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
package coordinator

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"lowdimlp/internal/comm"
	"lowdimlp/internal/core"
	"lowdimlp/internal/dataset"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/numeric"
	"lowdimlp/internal/obs"
	"lowdimlp/internal/sampling"
)

// Options configure the coordinator solver.
type Options struct {
	Core core.Options
	// Parallel runs site-local computation on goroutines (one per
	// site). The protocol and its randomness are identical either way.
	Parallel bool
	// Trace, when non-nil, records the solve's execution structure:
	// one span per site exchange (with the exact payload bytes the
	// Meter charges) plus the begin/merge phases. Tracing observes
	// values that already exist — it never changes the protocol, the
	// answer, or the metered totals, and a nil Trace costs nothing.
	Trace *obs.Trace
}

// Stats reports the resources of a coordinator-model run — the
// quantities Theorem 2 bounds.
type Stats struct {
	N, K, R     int
	Rounds      int
	TotalBits   int64
	Messages    int64
	NetSize     int
	Iterations  int
	Successes   int
	Failures    int
	DirectSolve bool // ship-all path for tiny inputs (m ≥ n)
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

// SolveDataset runs the distributed version of Algorithm 1 (Theorem 2)
// with one columnar view per site; codecs meter the communication.
// Round-robin shards of one store (View.Shard — nothing is copied to
// "distribute" the input) and explicit, possibly uneven partitions
// (one store per part, as the engine's typed entry point builds them)
// are the same thing here: site-local scans run over the flat arena
// with no per-constraint decode.
func SolveDataset[C, B any](
	ra lptype.RowAccess[C, B], shards []dataset.View,
	ccodec comm.Codec[C], bcodec comm.Codec[B],
	opt Options,
) (B, Stats, error) {
	sites := make([]*lptype.SiteWeights[C, B], len(shards))
	for i, v := range shards {
		sites[i] = lptype.NewSiteWeights(ra, v)
	}
	return solve(ra.Domain(), sites, ccodec, bcodec, opt)
}

// SolveSource runs the protocol over any columnar source split across
// k sites round-robin (lptype.ShardSiteWeights: one shard file per site
// when the counts line up — the disk-backed analogue of handing each
// coordinator site its partition — views of the materialized source
// otherwise). Site j sees rows j, j+k, j+2k, … in order either way, so
// the protocol transcript — and the answer — is bit-identical across
// layouts.
func SolveSource[C, B any](
	ra lptype.RowAccess[C, B], src dataset.Source, k int,
	ccodec comm.Codec[C], bcodec comm.Codec[B],
	opt Options,
) (B, Stats, error) {
	var zero B
	if k < 1 {
		return zero, Stats{}, ErrNoSites
	}
	sites, err := lptype.ShardSiteWeights(ra, src, k)
	if err != nil {
		return zero, Stats{}, err
	}
	return solve(ra.Domain(), sites, ccodec, bcodec, opt)
}

// solve adapts site storage onto the in-process transport and runs
// the shared protocol driver — the historical simulation, now
// expressed as "the networked coordinator over a loopback transport".
// The sites are closed on return (weight state dropped, file-backed
// scan cursors released).
func solve[C, B any](
	dom lptype.Domain[C, B], local []*lptype.SiteWeights[C, B],
	ccodec comm.Codec[C], bcodec comm.Codec[B],
	opt Options,
) (B, Stats, error) {
	var zero B
	if len(local) == 0 {
		return zero, Stats{}, ErrNoSites
	}
	sites := make([]*protoSite[C, B], len(local))
	for i, w := range local {
		sites[i] = newProtoSite(w, ccodec, bcodec)
	}
	defer func() {
		for _, s := range sites {
			s.Close()
		}
	}()
	return SolveTransport(dom, &localTransport[C, B]{sites: sites}, ccodec, bcodec, opt)
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
	stats := Stats{N: n, K: k}
	meter := comm.NewMeter()
	finish := func() {
		stats.Rounds = meter.Rounds()
		stats.TotalBits = meter.TotalBits()
		stats.Messages = meter.Messages()
	}
	if n == 0 {
		b, err := dom.Solve(nil)
		return b, stats, err
	}

	nu := dom.CombinatorialDim()
	lambda := dom.VCDim()
	r := opt.Core.EffectiveR(n)
	stats.R = r
	mult := math.Pow(float64(n), 1/float64(r))
	eps := 1 / (10 * float64(nu) * mult)
	m := core.NetSize(eps, lambda, n, nu, opt.Core)
	stats.NetSize = m

	// Session setup (control plane: seeds and the multiplier are
	// public run parameters, not protocol communication).
	trace := opt.Trace
	bsp := trace.Start("begin")
	if err := tr.Begin(opt.Core.Seed, mult); err != nil {
		bsp.EndErr(err, comm.ErrorClass(err))
		return zero, stats, err
	}
	bsp.End()

	if m >= n {
		// Tiny input: sites ship everything in one round (the protocol
		// degenerates to the naive algorithm, as it should).
		meter.StartRound()
		var all []C
		for i := 0; i < k; i++ {
			sp := trace.StartSite("ship-all", i, 1)
			rep, err := tr.RoundTrip(i, comm.FrameShipAll, nil)
			if err != nil {
				sp.EndErr(err, comm.ErrorClass(err))
				finish()
				return zero, stats, err
			}
			buf := comm.FromBytes(rep)
			for j, rows := 0, tr.SiteRows(i); j < rows; j++ {
				c, err := comm.Value(buf, ccodec)
				if err != nil {
					terr := &comm.TransportError{Site: i, Type: comm.FrameShipAll,
						Err: fmt.Errorf("%w: ship-all item %d: %v", comm.ErrProtocol, j, err)}
					sp.EndErr(terr, terr.Class())
					finish()
					return zero, stats, terr
				}
				meter.Charge(ccodec.Bits(c))
				all = append(all, c)
			}
			if buf.Remaining() != 0 {
				terr := &comm.TransportError{Site: i, Type: comm.FrameShipAll,
					Err: fmt.Errorf("%w: %d trailing bytes in ship-all reply", comm.ErrProtocol, buf.Remaining())}
				sp.EndErr(terr, terr.Class())
				finish()
				return zero, stats, terr
			}
			sp.EndBytes(int64(len(rep)))
		}
		finish()
		stats.DirectSolve = true
		stats.NetSize = n
		msp := trace.Start("merge")
		b, err := dom.Solve(all)
		msp.End()
		return b, stats, err
	}

	coordRng := numeric.NewRand(opt.Core.Seed^coordSeedMix, 0)
	maxIters := opt.Core.MaxIters
	if maxIters <= 0 {
		maxIters = 60*nu*r + 60
	}

	// Per-round scratch, reused across iterations: the sites' reports
	// and errors (each round overwrites or returns on them), and the
	// net — every iteration samples exactly m items, site i's into its
	// own segment net[netOff[i]:netOff[i+1]].
	repTotal := make([]float64, k)
	repViol := make([]float64, k)
	repCount := make([]int, k)
	siteErr := make([]error, k)
	updTotals := make([]float64, k)
	net := make([]C, m)
	netOff := make([]int, k+1)

	// Bootstrap: no pending basis; the first round-A degenerates to
	// weight reports only.
	var pending *B
	for iter := 0; iter < maxIters; iter++ {
		// ---- Round A: pending basis out, weight reports back. ----
		meter.StartRound()
		round := meter.Rounds()
		runSites(opt, k, func(i int) {
			sp := trace.StartSite("round-a", i, round)
			// coord → site i: the pending basis (or none).
			req := comm.NewBuffer()
			req.PutBool(pending != nil)
			if pending != nil {
				comm.PutValue(req, bcodec, *pending)
			}
			meter.Charge(req.Bits())
			rep, err := tr.RoundTrip(i, comm.FrameRoundA, req.Bytes())
			if err != nil {
				siteErr[i] = err
				sp.EndErr(err, comm.ErrorClass(err))
				return
			}
			// site i → coord: two weights and a count.
			buf := comm.FromBytes(rep)
			if repTotal[i], err = buf.Float(); err == nil {
				if repViol[i], err = buf.Float(); err == nil {
					repCount[i], err = buf.Int()
				}
			}
			if err != nil || buf.Remaining() != 0 {
				if err == nil {
					err = fmt.Errorf("%d trailing bytes", buf.Remaining())
				}
				terr := &comm.TransportError{Site: i, Type: comm.FrameRoundA,
					Err: fmt.Errorf("%w: round A reply: %v", comm.ErrProtocol, err)}
				siteErr[i] = terr
				sp.EndErr(terr, terr.Class())
				return
			}
			meter.Charge(8 * len(rep))
			sp.EndBytes(int64(req.Len() + len(rep)))
		})
		stats.Iterations++
		if err := firstError(siteErr); err != nil {
			finish()
			return zero, stats, err
		}

		var wS, wV float64
		violators := 0
		for i := 0; i < k; i++ {
			wS += repTotal[i]
			wV += repViol[i]
			violators += repCount[i]
		}
		success := false
		if pending != nil {
			if violators == 0 {
				finish()
				return *pending, stats, nil
			}
			success = wV <= eps*wS
			if success {
				stats.Successes++
			} else {
				stats.Failures++
				if opt.Core.MonteCarlo {
					finish()
					return zero, stats, core.ErrRoundFailed
				}
			}
		}

		// Updated local totals (after the success bump) — computable at
		// the coordinator from the round-A reports.
		for i := 0; i < k; i++ {
			updTotals[i] = repTotal[i]
			if success {
				updTotals[i] += (mult - 1) * repViol[i]
			}
		}
		alloc := sampling.Multinomial(m, updTotals, coordRng)
		for i, a := range alloc {
			netOff[i+1] = netOff[i] + a
		}

		// ---- Round B: flag + allocation out, sampled items back. ----
		meter.StartRound()
		round = meter.Rounds()
		runSites(opt, k, func(i int) {
			sp := trace.StartSite("round-b", i, round)
			req := comm.NewBuffer()
			req.PutBool(success)
			req.PutInt(alloc[i])
			meter.Charge(req.Bits())
			rep, err := tr.RoundTrip(i, comm.FrameRoundB, req.Bytes())
			if err != nil {
				siteErr[i] = err
				sp.EndErr(err, comm.ErrorClass(err))
				return
			}
			if alloc[i] == 0 {
				if len(rep) != 0 {
					terr := &comm.TransportError{Site: i, Type: comm.FrameRoundB,
						Err: fmt.Errorf("%w: unsolicited %d-byte round B reply", comm.ErrProtocol, len(rep))}
					siteErr[i] = terr
					sp.EndErr(terr, terr.Class())
					return
				}
				sp.EndBytes(int64(req.Len()))
				return
			}
			buf := comm.FromBytes(rep)
			picked := net[netOff[i]:netOff[i+1]]
			for t := range picked {
				if picked[t], err = comm.Value(buf, ccodec); err != nil {
					terr := &comm.TransportError{Site: i, Type: comm.FrameRoundB,
						Err: fmt.Errorf("%w: sampled item %d: %v", comm.ErrProtocol, t, err)}
					siteErr[i] = terr
					sp.EndErr(terr, terr.Class())
					return
				}
			}
			if buf.Remaining() != 0 {
				terr := &comm.TransportError{Site: i, Type: comm.FrameRoundB,
					Err: fmt.Errorf("%w: %d trailing bytes in round B reply", comm.ErrProtocol, buf.Remaining())}
				siteErr[i] = terr
				sp.EndErr(terr, terr.Class())
				return
			}
			meter.Charge(8 * len(rep))
			sp.EndBytes(int64(req.Len() + len(rep)))
		})
		if err := firstError(siteErr); err != nil {
			finish()
			return zero, stats, err
		}

		msp := trace.Start("merge")
		basis, err := dom.Solve(net)
		if err != nil {
			msp.EndErr(err, "")
			finish()
			return zero, stats, err
		}
		msp.End()
		pending = &basis
	}
	finish()
	return zero, stats, core.ErrIterationBudget
}

// firstError returns the lowest-site error of a round, so a
// multi-site failure reports deterministically.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runSites executes fn for every site index, in parallel when
// requested. The per-site work uses only site-local state plus
// write-disjoint result slots, so both modes are race-free and
// produce identical results.
func runSites(opt Options, k int, fn func(i int)) {
	if !opt.Parallel {
		for i := 0; i < k; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}
