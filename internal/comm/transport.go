// Transport: the substrate boundary that turns the in-process
// coordinator simulation into a real distributed protocol.
//
// The coordinator driver (internal/coordinator) exchanges *payload
// frames* with k sites: round-A requests carry the pending basis,
// round-B requests the success flag and sample allocation, and the
// replies carry weight reports and sampled constraints, all encoded
// with the exact same comm.Buffer/Codec bytes the in-process
// simulation meters. A Transport delivers those payloads — either by
// calling a site object in the same process (the historical
// simulation) or by POSTing them to lpserved worker processes
// (internal/comm/httptransport). Because the metered bytes are the
// payloads themselves, a networked run charges the Meter exactly the
// totals Theorem 2 bounds — and exactly the totals the in-process run
// charges.
//
// The wire envelope (Frame, frame.go) that carries a payload between
// processes — type, session, sequence number — is transport framing,
// not protocol communication, and is deliberately not metered: the
// in-process run has no envelope either.
package comm

import (
	"errors"
	"fmt"
	"sync"
)

// FrameType tags one protocol frame. The values are wire-stable:
// worker processes from one build must refuse (not misparse) frames
// from another.
type FrameType uint8

const (
	// FrameInfo asks a worker to describe the shard it owns (SiteInfo
	// payload in the reply). Session-less.
	FrameInfo FrameType = 1
	// FrameBegin opens a protocol session: the payload carries the
	// seed, the site index and the weight multiplier (EncodeBegin).
	// The reply's Session field names the new session.
	FrameBegin FrameType = 2
	// FrameRoundA is Algorithm 1's round A: pending basis out, weight
	// report back.
	FrameRoundA FrameType = 3
	// FrameRoundB is round B: success flag + sample allocation out,
	// sampled constraints back.
	FrameRoundB FrameType = 4
	// FrameShipAll asks the site for every constraint it holds (the
	// degenerate one-round protocol for small inputs, n ≤ 2m+1).
	FrameShipAll FrameType = 5
	// FrameEnd closes a protocol session.
	FrameEnd FrameType = 6
	// FrameReply tags every successful response.
	FrameReply FrameType = 7
)

// validFrameType reports whether t is a known frame type.
func validFrameType(t FrameType) bool { return t >= FrameInfo && t <= FrameReply }

// Transport delivers protocol payloads to the k sites of one
// coordinator-model solve. A Transport instance belongs to a single
// run: Begin opens the per-site protocol sessions, RoundTrip carries
// one request/reply exchange, Close releases the sessions. The
// coordinator addresses a round's sites at once (EachSite, DESIGN.md
// §8), so RoundTrip must be safe to call concurrently for distinct
// sites; it is never called concurrently for the same site.
type Transport interface {
	// Sites returns the number of sites (the paper's k).
	Sites() int
	// SiteRows returns the number of constraints site i holds — known
	// to the coordinator for free, exactly as the partition sizes are
	// in the in-process simulation.
	SiteRows(i int) int
	// Begin opens the protocol session on every site, delivering the
	// run parameters (seed, weight multiplier). Not metered: the
	// in-process simulation constructs its sites with these parameters
	// without any message flying.
	Begin(seed uint64, mult float64) error
	// RoundTrip delivers one request payload to site i and returns the
	// site's reply payload. The payloads are the metered protocol
	// bytes; the caller charges them.
	RoundTrip(site int, typ FrameType, payload []byte) ([]byte, error)
	// Close releases the sessions. Safe to call repeatedly.
	Close() error
}

// EachSite calls f(i) for every site i < k with all k calls in flight
// together — a round of the coordinator model addresses its sites at
// once (DESIGN.md §8) — and returns when every call has. The error is
// the lowest failing site's, so a round in which several sites fail
// reports the same site however the calls interleave. f must be safe
// to call concurrently for distinct i.
func EachSite(k int, f func(i int) error) error {
	errs := make([]error, k)
	var wg sync.WaitGroup
	wg.Add(k)
	for i := range k {
		go func() {
			defer wg.Done()
			errs[i] = f(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// TransportError reports a failed exchange with one site: the solve
// cannot continue (the protocol has no recovery path), but the caller
// learns which site and which frame died. Unwrap exposes the cause,
// so errors.Is(err, context.DeadlineExceeded) and friends work.
type TransportError struct {
	// Site is the site index the exchange targeted.
	Site int
	// Type is the frame type of the failed exchange.
	Type FrameType
	// Err is the underlying cause.
	Err error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("comm: site %d: frame type %d: %v", e.Site, e.Type, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// ErrProtocol reports a malformed or unexpected protocol frame — the
// remote spoke the wire format wrong (truncated reply, bad frame,
// wrong session), as opposed to an I/O failure.
var ErrProtocol = errors.New("comm: protocol violation")

// AppendBeginPayload serializes the FrameBegin payload: the run
// parameters a session needs (raw option seed, site index, weight
// multiplier n^{1/r}). Control plane, never metered.
func AppendBeginPayload(dst []byte, seed uint64, site int, mult float64) []byte {
	b := &Buffer{data: dst}
	b.PutUvarint(seed)
	b.PutUvarint(uint64(site))
	b.PutFloat(mult)
	return b.data
}

// DecodeBeginPayload parses a FrameBegin payload.
func DecodeBeginPayload(payload []byte) (seed uint64, site int, mult float64, err error) {
	b := FromBytes(payload)
	if seed, err = b.Uvarint(); err != nil {
		return 0, 0, 0, fmt.Errorf("%w: begin seed: %v", ErrProtocol, err)
	}
	s, err := b.Uvarint()
	if err != nil {
		return 0, 0, 0, fmt.Errorf("%w: begin site: %v", ErrProtocol, err)
	}
	if s > 1<<31 {
		return 0, 0, 0, fmt.Errorf("%w: begin site index %d out of range", ErrProtocol, s)
	}
	if mult, err = b.Float(); err != nil {
		return 0, 0, 0, fmt.Errorf("%w: begin mult: %v", ErrProtocol, err)
	}
	if b.Remaining() != 0 {
		return 0, 0, 0, fmt.Errorf("%w: %d trailing bytes after begin payload", ErrProtocol, b.Remaining())
	}
	return seed, int(s), mult, nil
}

// SiteInfo is a worker's self-description: the dataset shard it owns,
// in the engine registry's flat-instance vocabulary. It is what a
// coordinator needs to build the problem (kind + dim + objective) and
// size the protocol (rows) before any metered message flies.
type SiteInfo struct {
	// Kind is the registry kind name ("lp", "svm", "meb", "sea", …).
	Kind string
	// Dim is the ambient dimension d.
	Dim int
	// Width is the numbers-per-row of the shard payload.
	Width int
	// Rows is the shard's row count.
	Rows int
	// Objective is the objective row for kinds that carry one (lp).
	Objective []float64
}

// maxInfoKindLen caps the kind-name length a SiteInfo decode will
// allocate for (mirrors the dataset header cap).
const maxInfoKindLen = 255

// maxInfoObjLen caps the objective length a SiteInfo decode will
// allocate for.
const maxInfoObjLen = 1 << 16

// AppendSiteInfo serializes info onto dst.
func AppendSiteInfo(dst []byte, info SiteInfo) []byte {
	b := &Buffer{data: dst}
	b.PutUvarint(uint64(len(info.Kind)))
	b.data = append(b.data, info.Kind...)
	b.PutUvarint(uint64(info.Dim))
	b.PutUvarint(uint64(info.Width))
	b.PutUvarint(uint64(info.Rows))
	b.PutUvarint(uint64(len(info.Objective)))
	for _, v := range info.Objective {
		b.PutFloat(v)
	}
	return b.data
}

// DecodeSiteInfo parses a SiteInfo from src (the whole slice must be
// consumed). It never panics on malformed input.
func DecodeSiteInfo(src []byte) (SiteInfo, error) {
	var info SiteInfo
	b := FromBytes(src)
	kindLen, err := b.Uvarint()
	if err != nil {
		return info, fmt.Errorf("%w: site info kind length: %v", ErrProtocol, err)
	}
	if kindLen > maxInfoKindLen || int(kindLen) > len(src)-b.pos {
		return info, fmt.Errorf("%w: site info kind length %d", ErrProtocol, kindLen)
	}
	info.Kind = string(b.data[b.pos : b.pos+int(kindLen)])
	b.pos += int(kindLen)
	u := func(name string) (int, error) {
		v, err := b.Uvarint()
		if err != nil {
			return 0, fmt.Errorf("%w: site info %s: %v", ErrProtocol, name, err)
		}
		if v > 1<<62 {
			return 0, fmt.Errorf("%w: site info %s %d out of range", ErrProtocol, name, v)
		}
		return int(v), nil
	}
	if info.Dim, err = u("dim"); err != nil {
		return info, err
	}
	if info.Width, err = u("width"); err != nil {
		return info, err
	}
	if info.Rows, err = u("rows"); err != nil {
		return info, err
	}
	objLen, err := u("objective length")
	if err != nil {
		return info, err
	}
	if objLen > maxInfoObjLen {
		return info, fmt.Errorf("%w: site info objective length %d", ErrProtocol, objLen)
	}
	if objLen > 0 {
		info.Objective = make([]float64, objLen)
		for i := range info.Objective {
			if info.Objective[i], err = b.Float(); err != nil {
				return info, fmt.Errorf("%w: site info objective: %v", ErrProtocol, err)
			}
		}
	}
	if b.pos != len(src) {
		return info, fmt.Errorf("%w: %d trailing bytes after site info", ErrProtocol, len(src)-b.pos)
	}
	return info, nil
}
