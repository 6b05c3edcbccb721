// Package comm provides the codecs shared by the coordinator
// (internal/coordinator) and MPC (internal/mpc) substrates — the one
// constraint codec, RowCodec, and the Codec interface the per-kind
// basis codecs implement — and the coordinator's message framing and
// communication Meter.
//
// The quantities the paper bounds — total communication in the
// coordinator model, per-machine load in MPC — are combinatorial
// properties of a protocol, so the substrates simulate the distributed
// execution in-process: each logical message is actually serialized to
// bytes and its size charged, to a Meter by the coordinator and to the
// sending and receiving machine by MPC's own network.
package comm

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// Codec serializes values of type T for transport. Constraints use
// RowCodec; each kind package (lp, svm, meb, sea) implements it for
// its basis type (structurally — they do not import this package).
type Codec[T any] interface {
	// Append serializes v onto dst and returns the extended slice.
	Append(dst []byte, v T) []byte
	// Decode parses one value from src, returning it and the number of
	// bytes consumed.
	Decode(src []byte) (T, int, error)
	// Bits returns the encoded size of v in bits.
	Bits(v T) int
}

// Meter accumulates the coordinator's communication totals: bits,
// rounds and messages. It is safe for concurrent use. MPC does not use
// a Meter: it meters with its own net type (internal/mpc), which also
// tracks each machine's per-round load.
type Meter struct {
	mu        sync.Mutex
	totalBits int64
	rounds    int
	messages  int64
}

// NewMeter returns an empty meter.
func NewMeter() *Meter { return &Meter{} }

// StartRound counts one more communication round.
func (m *Meter) StartRound() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rounds++
}

// Charge records one message of the given size in bits.
func (m *Meter) Charge(bits int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.totalBits += int64(bits)
	m.messages++
}

// ChargeN records n messages of the given total size in bits, under
// one lock — a ship-all reply carries one message per constraint.
func (m *Meter) ChargeN(n int, bits int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.totalBits += bits
	m.messages += int64(n)
}

// TotalBits returns the total bits charged.
func (m *Meter) TotalBits() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.totalBits
}

// Rounds returns the number of rounds started.
func (m *Meter) Rounds() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rounds
}

// Messages returns the number of messages charged.
func (m *Meter) Messages() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.messages
}

func (m *Meter) String() string {
	return fmt.Sprintf("comm: %d bits over %d rounds (%d messages)", m.TotalBits(), m.Rounds(), m.Messages())
}

// Buffer is a write-then-read message buffer with primitive codecs for
// the scalar fields protocols exchange (counts, weights, flags). All
// integers are varint-encoded: the paper measures communication in
// bits, and e.g. the site→coordinator weight reports of Lemma 3.7 are
// O(ℓ/r·log n)-bit numbers, which fixed 64-bit fields would obscure.
type Buffer struct {
	data []byte
	pos  int
}

// NewBuffer returns an empty message buffer.
func NewBuffer() *Buffer { return &Buffer{} }

// FromBytes returns a buffer reading from data.
func FromBytes(data []byte) *Buffer { return &Buffer{data: data} }

// Bytes returns the written contents.
func (b *Buffer) Bytes() []byte { return b.data }

// Bits returns the current size in bits.
func (b *Buffer) Bits() int { return 8 * len(b.data) }

// Len returns the current size in bytes.
func (b *Buffer) Len() int { return len(b.data) }

// Remaining returns the number of unread bytes — protocol parsers use
// it to reject requests with trailing garbage.
func (b *Buffer) Remaining() int { return len(b.data) - b.pos }

// PutUvarint appends an unsigned varint.
func (b *Buffer) PutUvarint(v uint64) { b.data = binary.AppendUvarint(b.data, v) }

// Uvarint reads an unsigned varint.
func (b *Buffer) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(b.data[b.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("comm: bad uvarint at offset %d", b.pos)
	}
	b.pos += n
	return v, nil
}

// PutInt appends a signed count.
func (b *Buffer) PutInt(v int) {
	b.data = binary.AppendVarint(b.data, int64(v))
}

// Int reads a signed count.
func (b *Buffer) Int() (int, error) {
	v, n := binary.Varint(b.data[b.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("comm: bad varint at offset %d", b.pos)
	}
	b.pos += n
	return int(v), nil
}

// PutFloat appends a float64 (8 bytes).
func (b *Buffer) PutFloat(v float64) {
	b.data = binary.LittleEndian.AppendUint64(b.data, math.Float64bits(v))
}

// Float reads a float64.
func (b *Buffer) Float() (float64, error) {
	if b.pos+8 > len(b.data) {
		return 0, fmt.Errorf("comm: short buffer reading float at offset %d", b.pos)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(b.data[b.pos:]))
	b.pos += 8
	return v, nil
}

// PutBool appends a flag (1 byte).
func (b *Buffer) PutBool(v bool) {
	if v {
		b.data = append(b.data, 1)
	} else {
		b.data = append(b.data, 0)
	}
}

// Bool reads a flag.
func (b *Buffer) Bool() (bool, error) {
	if b.pos >= len(b.data) {
		return false, fmt.Errorf("comm: short buffer reading bool at offset %d", b.pos)
	}
	v := b.data[b.pos] != 0
	b.pos++
	return v, nil
}

// PutValue appends a codec-encoded value.
func PutValue[T any](b *Buffer, c Codec[T], v T) {
	b.data = c.Append(b.data, v)
}

// Value reads a codec-encoded value.
func Value[T any](b *Buffer, c Codec[T]) (T, error) {
	v, n, err := c.Decode(b.data[b.pos:])
	if err != nil {
		var zero T
		return zero, err
	}
	b.pos += n
	return v, nil
}
