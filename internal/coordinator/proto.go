package coordinator

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"slices"

	"lowdimlp/internal/comm"
	"lowdimlp/internal/dataset"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/numeric"
)

// This file is the site side of the two-round protocol, factored out
// of the solve loop so the *same* state machine runs in both
// substrates: the in-process simulation (localTransport below) calls
// it directly, and an lpserved worker process (internal/server) calls
// it for frames that arrived over HTTP. Bit-identical behavior across
// the two is therefore structural, not coincidental — there is one
// implementation of "what a site does".

// Site is one protocol participant, driven by frames. Step handles
// one request payload and appends the reply payload; both are exactly
// the bytes the coordinator meters. A Site belongs to one solve and
// is not safe for concurrent Steps.
type Site interface {
	// Step handles one protocol frame and appends its reply to dst,
	// returning the extended buffer. The site keeps no reference to
	// dst, so the caller owns every reply buffer and may reuse it for
	// any later reply, of this site or another (a worker keeps a few
	// between sessions). A frame that fails leaves the site's state as
	// it was.
	Step(dst []byte, typ comm.FrameType, payload []byte) ([]byte, error)
	// StateBytes returns the size of the per-row weight state the
	// site holds (lptype.SiteWeights.StateBytes).
	StateBytes() int
	// Close releases site-local resources: the weight state and the
	// scan cursor.
	Close() error
}

// SiteHost mints protocol sites over data a process owns — the worker
// side of session creation. Each solve gets its own Site (sites carry
// per-run state: weights, RNG, the pending basis).
type SiteHost interface {
	// Rows returns the number of constraints the host's data holds.
	Rows() int
	// NewSession returns a site initialized with the run parameters of
	// one solve: the raw option seed, the site index, and the weight
	// multiplier n^{1/r}.
	NewSession(seed uint64, site int, mult float64) Site
}

// NewSourceSiteHost returns a SiteHost over a columnar source. The
// access factory builds the kind's row-access layer for a given raw
// option seed (the engine closes it over the Spec, applying the
// per-kind seed mix) — sessions construct their domain at Begin time
// because the seed is a per-run parameter.
func NewSourceSiteHost[C, B any](
	access func(seed uint64) lptype.RowAccess[C, B],
	src dataset.Source,
	bcodec comm.Codec[B],
) SiteHost {
	return &sourceSiteHost[C, B]{access: access, src: src, bcodec: bcodec}
}

type sourceSiteHost[C, B any] struct {
	access func(seed uint64) lptype.RowAccess[C, B]
	src    dataset.Source
	bcodec comm.Codec[B]
}

func (h *sourceSiteHost[C, B]) Rows() int { return h.src.Rows() }

func (h *sourceSiteHost[C, B]) NewSession(seed uint64, site int, mult float64) Site {
	s := newProtoSite(lptype.NewSiteWeights(h.access(seed), h.src), h.bcodec)
	s.begin(seed, site, mult)
	return s
}

// protoSite is the site state machine: local constraint storage with
// its weight state (lptype.SiteWeights — the site keeps one exponent
// per row, not the list of successful bases), private randomness, and
// the pending basis delivered by the last round A. It answers in-process
// loopback frames and frames that arrived at a worker alike. Its
// replies carry constraints as their source rows (comm.RowCodec's wire
// form), so a site never decodes a constraint to ship it.
type protoSite[C, B any] struct {
	w       *lptype.SiteWeights[C, B]
	bcodec  comm.Codec[B]
	rng     *rand.Rand
	pending *B
	// awaitB is set by a round A and consumed by the round B that
	// follows it: a round B is answered once per round A, so a replayed
	// or forged success flag cannot bump the weights twice.
	awaitB bool
	begun  bool
}

func newProtoSite[C, B any](w *lptype.SiteWeights[C, B], bcodec comm.Codec[B]) *protoSite[C, B] {
	return &protoSite[C, B]{w: w, bcodec: bcodec}
}

// begin installs the run parameters. The RNG derivation (seed ^
// siteSeedMix, stream = site index + 1) matches the historical site
// construction bit for bit.
func (s *protoSite[C, B]) begin(seed uint64, site int, mult float64) {
	s.rng = numeric.NewRand(seed^siteSeedMix, uint64(site)+1)
	s.w.Reset(mult)
	s.pending = nil
	s.awaitB = false
	s.begun = true
}

// Step dispatches one protocol frame.
func (s *protoSite[C, B]) Step(dst []byte, typ comm.FrameType, payload []byte) ([]byte, error) {
	if typ == comm.FrameBegin {
		seed, site, mult, err := comm.DecodeBeginPayload(payload)
		if err != nil {
			return nil, err
		}
		s.begin(seed, site, mult)
		return binary.AppendUvarint(dst, uint64(s.w.Size())), nil
	}
	if !s.begun {
		return nil, fmt.Errorf("%w: frame type %d before begin", comm.ErrProtocol, typ)
	}
	switch typ {
	case comm.FrameRoundA:
		return s.roundA(dst, payload)
	case comm.FrameRoundB:
		return s.roundB(dst, payload)
	case comm.FrameShipAll:
		return s.shipAll(dst, payload)
	default:
		return nil, fmt.Errorf("%w: unexpected frame type %d", comm.ErrProtocol, typ)
	}
}

// roundA handles "pending basis out, weight report back": decode the
// (optional) pending basis, test the local constraints against it —
// one violation pass, none for the bootstrap round without a basis —
// and reply with the local total weight, the pending basis's local
// violator weight, and the violator count.
func (s *protoSite[C, B]) roundA(dst, payload []byte) ([]byte, error) {
	req := comm.FromBytes(payload)
	has, err := req.Bool()
	if err != nil {
		return nil, fmt.Errorf("%w: round A flag: %v", comm.ErrProtocol, err)
	}
	var pending *B
	if has {
		basis, err := comm.Value(req, s.bcodec)
		if err != nil {
			return nil, fmt.Errorf("%w: round A basis: %v", comm.ErrProtocol, err)
		}
		pending = &basis
	}
	if req.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in round A request", comm.ErrProtocol, req.Remaining())
	}
	s.pending, s.awaitB = pending, true
	wTot, wViol, count := s.w.Test(pending)
	rep := comm.FromBytes(dst)
	rep.PutFloat(wTot)
	rep.PutFloat(wViol)
	rep.PutInt(count)
	return rep.Bytes(), nil
}

// roundB handles "flag + allocation out, sampled constraints back":
// on success the pending basis's violators are bumped (raising their
// future weights), then the site samples its allocation by local
// weight and ships the sampled constraints. An allocation of zero
// sends no reply message (the reply payload is empty and the
// coordinator charges nothing — exactly the in-process accounting).
// Rounds alternate A → B: a round B with no round A since the last
// one, or a success flag with no basis tested, is a protocol error.
func (s *protoSite[C, B]) roundB(dst, payload []byte) ([]byte, error) {
	req := comm.FromBytes(payload)
	success, err := req.Bool()
	if err != nil {
		return nil, fmt.Errorf("%w: round B flag: %v", comm.ErrProtocol, err)
	}
	alloc, err := req.Int()
	if err != nil {
		return nil, fmt.Errorf("%w: round B allocation: %v", comm.ErrProtocol, err)
	}
	if req.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in round B request", comm.ErrProtocol, req.Remaining())
	}
	if alloc < 0 {
		return nil, fmt.Errorf("%w: negative round B allocation %d", comm.ErrProtocol, alloc)
	}
	if !s.awaitB {
		return nil, fmt.Errorf("%w: round B without a preceding round A", comm.ErrProtocol)
	}
	if success && s.pending == nil {
		return nil, fmt.Errorf("%w: round B success with no pending basis", comm.ErrProtocol)
	}
	if alloc > 0 && s.w.Size() == 0 {
		return nil, fmt.Errorf("%w: round B allocation %d to an empty site", comm.ErrProtocol, alloc)
	}
	s.awaitB = false
	if success {
		s.w.Commit()
	}
	rep := dst
	for t := 0; t < alloc; t++ {
		rep = comm.AppendRow(rep, s.w.Row(s.w.Draw(s.rng)))
		if t == 0 {
			// Rows of one kind and dimension encode to one size. The
			// clamp keeps a forged allocation from sizing the buffer.
			rep = slices.Grow(rep, min(alloc-1, s.w.Size())*(len(rep)-len(dst)))
		}
	}
	return rep, nil
}

// shipAll replies with every local constraint in storage order — the
// degenerate protocol for small inputs (n ≤ 2m+1).
func (s *protoSite[C, B]) shipAll(dst, payload []byte) ([]byte, error) {
	if len(payload) != 0 {
		return nil, fmt.Errorf("%w: %d unexpected bytes in ship-all request", comm.ErrProtocol, len(payload))
	}
	rep := dst
	for i, n := 0, s.w.Size(); i < n; i++ {
		rep = comm.AppendRow(rep, s.w.Row(i))
		if i == 0 {
			// Size the reply from the first row once, instead of
			// growing it by a quarter at a time (five times its size in
			// garbage for a large shard).
			rep = slices.Grow(rep, (n-1)*(len(rep)-len(dst)))
		}
	}
	return rep, nil
}

func (s *protoSite[C, B]) StateBytes() int { return s.w.StateBytes() }

// Close drops the site's weight state and releases its scan cursor.
func (s *protoSite[C, B]) Close() error {
	s.w.Close()
	return nil
}

// localTransport is the in-process Transport: frames are handed to
// site objects in the same address space. It is the historical
// simulation, expressed on the substrate boundary the networked
// implementation shares. Each site's replies reuse one buffer, valid
// until the site's next RoundTrip.
type localTransport[C, B any] struct {
	sites   []*protoSite[C, B]
	replies [][]byte
}

func newLocalTransport[C, B any](sites []*protoSite[C, B]) *localTransport[C, B] {
	return &localTransport[C, B]{sites: sites, replies: make([][]byte, len(sites))}
}

func (t *localTransport[C, B]) Sites() int { return len(t.sites) }

func (t *localTransport[C, B]) SiteRows(i int) int { return t.sites[i].w.Size() }

func (t *localTransport[C, B]) Begin(seed uint64, mult float64) error {
	return comm.EachSite(len(t.sites), func(i int) error {
		if _, err := t.sites[i].Step(nil, comm.FrameBegin, comm.AppendBeginPayload(nil, seed, i, mult)); err != nil {
			return &comm.TransportError{Site: i, Type: comm.FrameBegin, Err: err}
		}
		return nil
	})
}

func (t *localTransport[C, B]) RoundTrip(site int, typ comm.FrameType, payload []byte) ([]byte, error) {
	rep, err := t.sites[site].Step(t.replies[site][:0], typ, payload)
	if err != nil {
		return nil, &comm.TransportError{Site: site, Type: typ, Err: err}
	}
	t.replies[site] = rep
	return rep, nil
}

// Close is a no-op: the sites belong to the caller (solve closes
// them).
func (t *localTransport[C, B]) Close() error { return nil }
