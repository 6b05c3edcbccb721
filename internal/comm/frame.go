package comm

import (
	"encoding/binary"
	"fmt"
)

// The wire envelope for protocol payloads crossing a process
// boundary:
//
//	offset  size      field
//	0       4         magic "LPF1"
//	4       1         frame type (FrameType)
//	5       varint    session id
//	·       varint    sequence number
//	·       varint    payload length
//	·       len       payload (the metered protocol bytes)
//
// The envelope exists only on real transports (HTTP bodies); the
// in-process transport hands payloads around directly, which is why
// envelope bytes are never charged to the Meter. DecodeFrame never
// panics on arbitrary input (FuzzFrameRoundTrip pins this).

var frameMagic = [4]byte{'L', 'P', 'F', '1'}

// MaxFramePayload caps the payload length a frame may declare: large
// enough for any reply a real protocol produces (sampled nets and
// ship-all replies are O(net size) constraint encodings), small
// enough that a forged length cannot drive a huge allocation.
const MaxFramePayload = 1 << 26

// Frame is one enveloped protocol exchange on the wire.
type Frame struct {
	// Type tags the exchange (request types, or FrameReply).
	Type FrameType
	// Session names the protocol session (0 for session-less frames:
	// FrameInfo requests and FrameBegin requests).
	Session uint64
	// Seq is the request sequence number; replies echo it, so a
	// client can detect a response that answered a different request.
	Seq uint64
	// Payload is the protocol payload — the bytes the Meter charges.
	Payload []byte
}

// AppendFrame serializes f onto dst.
func AppendFrame(dst []byte, f Frame) []byte {
	return append(AppendFrameHeader(dst, f), f.Payload...)
}

// AppendFrameHeader serializes everything of f that precedes its
// payload bytes onto dst, so a writer can send the header and then the
// payload from where it lies, without copying it into one buffer.
func AppendFrameHeader(dst []byte, f Frame) []byte {
	dst = append(dst, frameMagic[:]...)
	dst = append(dst, byte(f.Type))
	dst = binary.AppendUvarint(dst, f.Session)
	dst = binary.AppendUvarint(dst, f.Seq)
	return binary.AppendUvarint(dst, uint64(len(f.Payload)))
}

// EncodeFrame returns the wire form of f.
func EncodeFrame(f Frame) []byte {
	return AppendFrame(make([]byte, 0, 16+len(f.Payload)), f)
}

// DecodeFrame parses one frame from src, returning it and the number
// of bytes consumed. The returned payload aliases src. Malformed
// input (bad magic, unknown type, over-long or truncated payload) is
// an ErrProtocol error, never a panic.
func DecodeFrame(src []byte) (Frame, int, error) {
	var f Frame
	if len(src) < len(frameMagic)+1 {
		return f, 0, fmt.Errorf("%w: short frame (%d bytes)", ErrProtocol, len(src))
	}
	if [4]byte(src[:4]) != frameMagic {
		return f, 0, fmt.Errorf("%w: bad frame magic", ErrProtocol)
	}
	f.Type = FrameType(src[4])
	if !validFrameType(f.Type) {
		return f, 0, fmt.Errorf("%w: unknown frame type %d", ErrProtocol, f.Type)
	}
	pos := 5
	readUvarint := func(name string) (uint64, error) {
		v, n := binary.Uvarint(src[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("%w: bad frame %s", ErrProtocol, name)
		}
		pos += n
		return v, nil
	}
	var err error
	if f.Session, err = readUvarint("session"); err != nil {
		return f, 0, err
	}
	if f.Seq, err = readUvarint("seq"); err != nil {
		return f, 0, err
	}
	plen, err := readUvarint("payload length")
	if err != nil {
		return f, 0, err
	}
	if plen > MaxFramePayload {
		return f, 0, fmt.Errorf("%w: frame payload length %d exceeds %d", ErrProtocol, plen, MaxFramePayload)
	}
	if uint64(len(src)-pos) < plen {
		return f, 0, fmt.Errorf("%w: truncated frame payload (%d of %d bytes)", ErrProtocol, len(src)-pos, plen)
	}
	if plen > 0 {
		f.Payload = src[pos : pos+int(plen)]
	}
	pos += int(plen)
	return f, pos, nil
}

// DecodeFrameStrict parses a frame that must occupy src exactly —
// what an HTTP body holds. Trailing bytes are an error.
func DecodeFrameStrict(src []byte) (Frame, error) {
	f, n, err := DecodeFrame(src)
	if err != nil {
		return f, err
	}
	if n != len(src) {
		return f, fmt.Errorf("%w: %d trailing bytes after frame", ErrProtocol, len(src)-n)
	}
	return f, nil
}
