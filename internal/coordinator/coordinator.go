// Package coordinator implements the coordinator (message-passing)
// model and the distributed version of Algorithm 1 (Theorem 2 of
// Assadi–Karpov–Zhang, PODS 2019), including the two-round weighted
// ε-net sampling protocol of Lemma 3.7.
//
// # Model
//
// k sites each hold a partition S_i of the constraints; a central
// coordinator exchanges messages with the sites in synchronous rounds
// and must output f(S₁ ∪ … ∪ S_k). Resources: rounds and total
// communication in bits. Every logical message in this simulation is
// serialized and metered (internal/comm), so the measured totals are
// the exact quantities Theorem 2 bounds.
//
// # Protocol (two rounds per iteration of Algorithm 1)
//
// A site holds its whole partition, so — unlike the streaming
// implementation, whose O~(n^{1/r}) space is what §3.2's "recompute the
// weights on the fly from the stored bases" buys — it may keep
// per-constraint state (Lemma 3.7: a site knows its local weights). Each
// site keeps one small weight exponent per local constraint
// (lptype.SiteWeights) instead of the bases of successful iterations:
// round A tests only the pending basis, a successful round B bumps the
// exponents of that basis's violators, and samples are drawn from an
// alias table rebuilt only after such a bump. The values are bit for
// bit those a recompute from the stored bases yields (DESIGN.md §17),
// so transcripts and metered bits are those of the recomputing
// protocol. One iteration of Algorithm 1 costs two rounds:
//
//	round A  coord → site: the pending basis B_{t-1}
//	         site  → coord: local total weight w_i(S), local violator
//	                        weight w_i(V) of B_{t-1}, violator count
//	round B  coord → site: success flag for B_{t-1} (the coordinator
//	                        evaluates w(V) ≤ ε·w(S) from the replies)
//	                        plus the multinomial sample allocation y_i
//	                        computed from the updated local totals
//	                        (Lemma 3.7's allocation step)
//	         site  → coord: y_i constraints sampled from S_i with
//	                        probability proportional to local weight
//
// after which the coordinator solves the net for the next basis. The
// run terminates when a round-A reply reports zero violators.
//
// The loop itself is core.Run's: this package is its star substrate
// (round A is Substrate.Test, round B is Substrate.Sample, ship-all is
// Substrate.All), so the parameters, the success rule, the Monte-Carlo
// exit and the iteration budget are those of every other backend. A
// round's exchanges are issued to the sites one after another, on every
// transport.
package coordinator

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"lowdimlp/internal/comm"
	"lowdimlp/internal/core"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/numeric"
	"lowdimlp/internal/obs"
	"lowdimlp/internal/sampling"
)

// Options configure the coordinator solver.
type Options struct {
	Core core.Options
	// Trace, when non-nil, records the solve's execution structure:
	// one span per site exchange (with the exact payload bytes the
	// Meter charges) plus the begin/merge phases. Tracing observes
	// values that already exist — it never changes the protocol, the
	// answer, or the metered totals, and a nil Trace costs nothing.
	Trace *obs.Trace
}

// Stats reports a coordinator-model run: Algorithm 1's counts and the
// resources Theorem 2 bounds, rounds and communication.
type Stats struct {
	core.RunStats
	K         int
	Rounds    int
	TotalBits int64
	Messages  int64
	// Retries counts full protocol restarts after a mid-solve site
	// failure (the elastic-fleet driver). Rounds/TotalBits/Messages
	// include the failed attempts' traffic — retries are metered
	// honestly, never hidden. Always 0 for single-attempt drivers.
	Retries int
}

func (s Stats) String() string {
	return fmt.Sprintf("n=%d k=%d r=%d rounds=%d bits=%d iters=%d",
		s.N, s.K, s.R, s.Rounds, s.TotalBits, s.Iterations)
}

// ErrNoSites is returned when the partition is empty.
var ErrNoSites = errors.New("coordinator: no sites")

// Seed mixes for the coordinator's and the sites' private RNG
// streams. Wire-stable: a worker process derives its site RNG from
// siteSeedMix, so changing either value changes every distributed
// answer.
const (
	siteSeedMix  = 0x5173
	coordSeedMix = 0xc002d
)

// Solve runs the distributed version of Algorithm 1 (Theorem 2) with
// the sites in this process, over the loopback transport; codecs meter
// the communication. The caller builds one weight state per site —
// lptype.NewSiteWeights over each part of an explicit partition, or
// lptype.ShardSiteWeights to deal one source round-robin (site j sees
// rows j, j+k, j+2k, … in order whatever the layout, so the transcript
// and the answer are too). The sites are closed on return (weight state
// dropped, file-backed scan cursors released).
func Solve[C, B any](
	dom lptype.Domain[C, B], sites []*lptype.SiteWeights[C, B],
	ccodec comm.Codec[C], bcodec comm.Codec[B],
	opt Options,
) (B, Stats, error) {
	tr := &localTransport[C, B]{sites: make([]*protoSite[C, B], len(sites))}
	for i, w := range sites {
		tr.sites[i] = newProtoSite(w, ccodec, bcodec)
	}
	defer func() {
		for _, s := range tr.sites {
			s.Close()
		}
	}()
	return SolveTransport(dom, tr, ccodec, bcodec, opt)
}

// SolveTransport runs the coordinator's side of Algorithm 1 over any
// Transport — the in-process loopback or a fleet of worker processes.
// Every request and reply payload is charged to the meter as it
// flies, so the reported Stats are the exact on-the-wire protocol
// bytes; for equal inputs, seeds and options the driver produces
// bit-identical bases, solutions and meter totals on every transport.
func SolveTransport[C, B any](
	dom lptype.Domain[C, B], tr comm.Transport,
	ccodec comm.Codec[C], bcodec comm.Codec[B],
	opt Options,
) (B, Stats, error) {
	var zero B
	k := tr.Sites()
	if k == 0 {
		return zero, Stats{}, ErrNoSites
	}
	n := 0
	for i := 0; i < k; i++ {
		n += tr.SiteRows(i)
	}
	stats := Stats{K: k}
	if n == 0 {
		b, err := dom.Solve(nil)
		return b, stats, err
	}
	p := core.NewParams(n, dom.CombinatorialDim(), dom.VCDim(), opt.Core)

	// Session setup (control plane: seeds and the multiplier are
	// public run parameters, not protocol communication).
	trace := opt.Trace
	bsp := trace.Start("begin")
	if err := tr.Begin(opt.Core.Seed, p.Mult); err != nil {
		bsp.EndErr(err, comm.ErrorClass(err))
		return zero, stats, err
	}
	bsp.End()

	st := &star[C, B]{
		tr: tr, ccodec: ccodec, bcodec: bcodec, meter: comm.NewMeter(), trace: trace,
		rng: numeric.NewRand(opt.Core.Seed^coordSeedMix, 0), mult: p.Mult,
		total: make([]float64, k), viol: make([]float64, k), count: make([]int, k),
		upd: make([]float64, k), off: make([]int, k+1),
	}
	b, rs, err := core.Run(p, st, func(net []C) (B, error) {
		sp := trace.Start("merge")
		b, err := dom.Solve(net)
		if err != nil {
			sp.EndErr(err, "")
		} else {
			sp.End()
		}
		return b, err
	})
	stats.RunStats = rs
	stats.Rounds, stats.TotalBits, stats.Messages = st.meter.Rounds(), st.meter.TotalBits(), st.meter.Messages()
	return b, stats, err
}

// star is the coordinator-model substrate of Algorithm 1: k sites
// behind a Transport, one metered round per Test (round A) and per
// Sample (round B). A round's exchanges are issued to every site in
// order and the lowest-site error is returned, so a multi-site failure
// reports deterministically and a failing round is metered the same on
// every transport.
type star[C, B any] struct {
	tr     comm.Transport
	ccodec comm.Codec[C]
	bcodec comm.Codec[B]
	meter  *comm.Meter
	trace  *obs.Trace
	rng    *rand.Rand // the coordinator's allocation draws
	mult   float64

	// Per-round scratch, reused across iterations: the sites' round-A
	// reports, the updated local totals the allocation is drawn over,
	// and the net segment of each site — net[off[i]:off[i+1]].
	total, viol []float64
	count       []int
	upd         []float64
	off         []int
}

// Test is round A: the pending basis out, weight reports back.
func (s *star[C, B]) Test(pending *B) (wS, wV float64, violators int, err error) {
	s.meter.StartRound()
	round := s.meter.Rounds()
	for i := range s.total {
		if e := s.roundA(i, round, pending); e != nil && err == nil {
			err = e
		}
	}
	if err != nil {
		return 0, 0, 0, err
	}
	for i := range s.total {
		wS += s.total[i]
		wV += s.viol[i]
		violators += s.count[i]
	}
	return wS, wV, violators, nil
}

func (s *star[C, B]) roundA(i, round int, pending *B) error {
	sp := s.trace.StartSite("round-a", i, round)
	// coord → site i: the pending basis (or none).
	req := comm.NewBuffer()
	req.PutBool(pending != nil)
	if pending != nil {
		comm.PutValue(req, s.bcodec, *pending)
	}
	s.meter.Charge(req.Bits())
	rep, err := s.tr.RoundTrip(i, comm.FrameRoundA, req.Bytes())
	if err != nil {
		sp.EndErr(err, comm.ErrorClass(err))
		return err
	}
	// site i → coord: two weights and a count.
	buf := comm.FromBytes(rep)
	if s.total[i], err = buf.Float(); err == nil {
		if s.viol[i], err = buf.Float(); err == nil {
			s.count[i], err = buf.Int()
		}
	}
	if err != nil || buf.Remaining() != 0 {
		if err == nil {
			err = fmt.Errorf("%d trailing bytes", buf.Remaining())
		}
		return protocolError(sp, i, comm.FrameRoundA, "round A reply: %v", err)
	}
	s.meter.Charge(8 * len(rep))
	sp.EndBytes(int64(req.Len() + len(rep)))
	return nil
}

// Sample is round B: the success flag and the multinomial allocation
// out — drawn over the local totals after the success bump, which the
// coordinator computes from the round-A reports (Lemma 3.7) — and the
// sampled constraints back.
func (s *star[C, B]) Sample(success bool, net []C) error {
	for i := range s.upd {
		s.upd[i] = s.total[i]
		if success {
			s.upd[i] += (s.mult - 1) * s.viol[i]
		}
	}
	alloc := sampling.Multinomial(len(net), s.upd, s.rng)
	for i, a := range alloc {
		s.off[i+1] = s.off[i] + a
	}
	s.meter.StartRound()
	round := s.meter.Rounds()
	var err error
	for i := range s.upd {
		if e := s.roundB(i, round, success, net[s.off[i]:s.off[i+1]]); e != nil && err == nil {
			err = e
		}
	}
	return err
}

func (s *star[C, B]) roundB(i, round int, success bool, picked []C) error {
	sp := s.trace.StartSite("round-b", i, round)
	req := comm.NewBuffer()
	req.PutBool(success)
	req.PutInt(len(picked))
	s.meter.Charge(req.Bits())
	rep, err := s.tr.RoundTrip(i, comm.FrameRoundB, req.Bytes())
	if err != nil {
		sp.EndErr(err, comm.ErrorClass(err))
		return err
	}
	if len(picked) == 0 {
		if len(rep) != 0 {
			return protocolError(sp, i, comm.FrameRoundB, "unsolicited %d-byte round B reply", len(rep))
		}
		sp.EndBytes(int64(req.Len()))
		return nil
	}
	buf := comm.FromBytes(rep)
	for t := range picked {
		if picked[t], err = comm.Value(buf, s.ccodec); err != nil {
			return protocolError(sp, i, comm.FrameRoundB, "sampled item %d: %v", t, err)
		}
	}
	if buf.Remaining() != 0 {
		return protocolError(sp, i, comm.FrameRoundB, "%d trailing bytes in round B reply", buf.Remaining())
	}
	s.meter.Charge(8 * len(rep))
	sp.EndBytes(int64(req.Len() + len(rep)))
	return nil
}

// All is the small-input protocol (n ≤ 2m+1): the sites ship everything
// in one round (the protocol degenerates to the naive algorithm, as it
// should).
func (s *star[C, B]) All() ([]C, error) {
	s.meter.StartRound()
	n := 0
	for i := range s.tr.Sites() {
		n += s.tr.SiteRows(i)
	}
	all := make([]C, 0, n)
	for i := range s.tr.Sites() {
		sp := s.trace.StartSite("ship-all", i, 1)
		rep, err := s.tr.RoundTrip(i, comm.FrameShipAll, nil)
		if err != nil {
			sp.EndErr(err, comm.ErrorClass(err))
			return nil, err
		}
		buf := comm.FromBytes(rep)
		for j, rows := 0, s.tr.SiteRows(i); j < rows; j++ {
			c, err := comm.Value(buf, s.ccodec)
			if err != nil {
				return nil, protocolError(sp, i, comm.FrameShipAll, "ship-all item %d: %v", j, err)
			}
			s.meter.Charge(s.ccodec.Bits(c))
			all = append(all, c)
		}
		if buf.Remaining() != 0 {
			return nil, protocolError(sp, i, comm.FrameShipAll, "%d trailing bytes in ship-all reply", buf.Remaining())
		}
		sp.EndBytes(int64(len(rep)))
	}
	return all, nil
}

// protocolError ends an exchange's span with a malformed reply of site
// i: a comm.ErrProtocol TransportError.
func protocolError(sp obs.SpanRef, i int, typ comm.FrameType, format string, args ...any) error {
	terr := &comm.TransportError{Site: i, Type: typ, Err: fmt.Errorf("%w: "+format, append([]any{comm.ErrProtocol}, args...)...)}
	sp.EndErr(terr, terr.Class())
	return terr
}
