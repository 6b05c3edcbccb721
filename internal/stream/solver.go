package stream

import (
	"math/rand/v2"

	"lowdimlp/internal/core"
	"lowdimlp/internal/dataset"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/numeric"
	"lowdimlp/internal/sampling"
)

// DatasetSolver phases. The solver is a state machine over passes:
// each pass is BeginPass → RowBlock×scan → EndPass, and EndPass
// decides the next phase.
const (
	solverSample0 = iota // pass 0: uniform-weight net sample
	solverDirect         // n ≤ 2m+1: materialize everything, solve once
	solverFused          // fused violation-test + next-net sampling passes
	solverDone
)

// DatasetSolver is the streaming algorithm (§3.2, Theorem 1) as a
// state machine over passes — BeginPass, every source row in order
// through RowBlock, EndPass; repeat until Done — which SolveDataset's
// pull loop drives over the source's cursor.
//
// Every pass samples the next net with one known-total sampler: the
// total weight of a pass is known before it starts (see nextTotal), so
// the net is read off m sorted sample points with one compare per row.
// A fused pass draws it ∝ w, the weights it scans under, and offers
// only the violators of the pending basis, at weight w, to a reservoir.
// If the iteration fails, the weights stand and the net is the draw as
// is. If it succeeds, the next weights are w·mult^[viol] =
// w + (mult−1)·w·[viol], a mixture: each slot independently keeps its
// draw with probability A/(A+B), A = Σw, B = (mult−1)·Σ_viol w, and
// takes the violator reservoir's slot otherwise — exactly m i.i.d.
// draws from the new weights.
//
// The per-pass computation, RNG consumption order (one stream: the
// violator offer, then the sample points, of each row in source order;
// the mixture coins at EndPass) and stats accounting do not depend on
// how the rows are batched, so a solver driven by any scan that
// delivers the rows in source order returns a bit-identical basis and
// identical Stats.
//
// RowBlock is the hot path: per row it performs the weight and
// violation arithmetic plus a compare against the next sample point,
// and allocates nothing (TestFusedPassAllocations pins 0 allocs/pass).
type DatasetSolver[C, B any] struct {
	ra  lptype.RowAccess[C, B]
	dom lptype.Domain[C, B]
	opt Options

	n, width int
	p        core.Params
	rng      *rand.Rand

	phase int

	// Sampling workspace, allocated once per solve (the direct path
	// allocates none of it): the all-rows sampler, the violator reservoir, a copy
	// of the pass's latest row for sample points the scan ends short
	// of, and the arena the net is decoded into.
	net      *sampling.KnownTotal
	viol     *sampling.RowReservoir
	lastRow  []float64
	netArena []float64
	netItems []C
	// nextTotal is the total weight the coming pass will sum, known
	// before it starts: n for passes 0 and 1 (no basis stored, every
	// weight 1), and afterwards one of the previous pass's own Kahan
	// sums over the same rows in the same order — wTotal if its
	// iteration failed (weights unchanged), wSucc if it succeeded.
	nextTotal float64
	seen      int // rows of the current pass 0 so far: its running total
	// Direct-solve state (n ≤ 2m+1).
	items []C
	arena []float64
	// Fused-pass state. wSucc sums the weights the next pass will see
	// if this iteration succeeds: the pending basis's violators one
	// exponent up.
	bases                []B
	pending              B
	wTotal, wViol, wSucc numeric.Kahan
	violCount            int
	// Block scratch, reused across RowBlock calls: weight exponents
	// per row, and the two violation index buffers (stored bases vs
	// the pending basis). Sized on first use, 0 allocs/block at steady
	// state (pinned by TestBlockPassAllocations).
	kexps, kidx, kpend []int32

	stats  Stats
	result B
	err    error
}

// NewDatasetSolver builds a solver for a source of n rows of the
// given width. An n of 0 resolves immediately (the domain's empty
// optimum); otherwise the first BeginPass/EndPass cycle runs pass 0.
func NewDatasetSolver[C, B any](ra lptype.RowAccess[C, B], n, width int, opt Options) *DatasetSolver[C, B] {
	s := &DatasetSolver[C, B]{ra: ra, dom: ra.Domain(), opt: opt, n: n, width: width}
	s.stats.N = n
	if n == 0 {
		s.result, s.err = s.dom.Solve(nil)
		s.phase = solverDone
		return s
	}
	s.p = core.NewParams(n, s.dom.CombinatorialDim(), s.dom.VCDim(), opt.Core)
	s.stats.R, s.stats.NetSize = s.p.R, s.p.M
	if s.p.Direct {
		// The n rows fit in the 2m+1 a sampled pass would hold: one
		// pass, solve directly.
		s.phase = solverDirect
		return s
	}
	s.rng = numeric.NewRand(opt.Core.Seed, 0x57124)
	s.net = sampling.NewKnownTotal(s.p.M, width, s.rng)
	s.viol = sampling.NewRowReservoir(s.p.M, width, s.rng)
	s.lastRow = make([]float64, 0, width)
	s.nextTotal = float64(n)
	s.phase = solverSample0
	return s
}

// Done reports whether the solver needs no further passes.
func (s *DatasetSolver[C, B]) Done() bool { return s.phase == solverDone }

// BeginPass arms the solver for one scan: the sampler with the pass's
// total (which draws the first sample point), the violator reservoir
// and the accumulators emptied.
func (s *DatasetSolver[C, B]) BeginPass() {
	switch s.phase {
	case solverDirect:
		s.items = make([]C, 0, s.n)
		s.arena = nil
	case solverSample0, solverFused:
		s.net.Reset(s.nextTotal)
		s.viol.Reset()
		s.lastRow, s.seen = s.lastRow[:0], 0
		s.wTotal, s.wViol, s.wSucc = numeric.Kahan{}, numeric.Kahan{}, numeric.Kahan{}
		s.violCount = 0
	}
}

// RowBlock feeds one scanned batch to the armed pass. The rows are
// borrowed views, valid only for the call; anything kept (sampled
// slots, the block's last row, direct-solve items) is copied. The
// fused phase takes its violation decisions from whole-block
// ViolatesBlock calls — the domain's kernels, or RowAccess's counted
// per-row loop for kernel-less domains — and then performs the Kahan
// accumulations, the violators' reservoir offers and the sample-point
// compares row by row in source order, so neither the batch boundaries
// nor the kernel class can change the RNG stream, the basis or the
// stats.
func (s *DatasetSolver[C, B]) RowBlock(rows []dataset.Row) {
	if len(rows) == 0 {
		return
	}
	s.stats.ItemsScanned += int64(len(rows))
	switch s.phase {
	case solverSample0:
		for _, row := range rows {
			s.seen++
			s.net.Offer(row, float64(s.seen))
		}
		s.lastRow = append(s.lastRow[:0], rows[len(rows)-1]...)
	case solverDirect:
		for _, row := range rows {
			w := len(row)
			if cap(s.arena)-len(s.arena) < w {
				s.arena = make([]float64, 0, max(s.n*w/4+w, 1024))
			}
			lo := len(s.arena)
			s.arena = append(s.arena, row...)
			s.items = append(s.items, s.ra.Item(s.arena[lo:lo+w:lo+w]))
		}
	case solverFused:
		if cap(s.kexps) < len(rows) {
			s.kexps = make([]int32, len(rows))
		}
		exps := s.kexps[:len(rows)]
		s.kidx = s.ra.WeightExpBlock(s.bases, rows, exps, s.kidx)
		s.kpend = s.ra.ViolatesBlock(s.pending, rows, s.kpend)
		pi := 0
		for i, row := range rows {
			// PowWeight's exponent fast paths: most rows violate no
			// stored basis (e=0) or one (e=1), and math.Pow documents
			// Pow(x,0)=1 and Pow(x,1)=x exactly.
			e := int(exps[i])
			w := lptype.PowWeight(s.p.Mult, e)
			s.wTotal.Add(w)
			if pi < len(s.kpend) && s.kpend[pi] == int32(i) {
				pi++
				s.wViol.Add(w)
				s.violCount++
				s.viol.Offer(row, w)
				s.wSucc.Add(lptype.PowWeight(s.p.Mult, e+1))
			} else {
				s.wSucc.Add(w)
			}
			s.net.Offer(row, s.wTotal.Sum())
		}
		// Every weight is ≥ 1, so the block's last row is the pass's
		// last positive-weight row so far.
		s.lastRow = append(s.lastRow[:0], rows[len(rows)-1]...)
	}
}

// EndPass closes the pass: sample/solve bookkeeping, next-phase
// decision. A non-nil error is terminal (Done becomes true and Result
// reports it).
func (s *DatasetSolver[C, B]) EndPass() error {
	switch s.phase {
	case solverSample0:
		s.stats.Passes++
		netRows, ok := s.net.Finish(s.lastRow)
		if !ok {
			return s.fail(ErrEmptyStream)
		}
		s.phase = solverFused
		return s.solveNet(netRows)

	case solverDirect:
		s.stats.Passes++
		s.stats.DirectSolve = true
		s.stats.trackSpace(s.opt, s.n, 0)
		b, err := s.dom.Solve(s.items)
		s.items, s.arena = nil, nil
		if err != nil {
			return s.fail(err)
		}
		return s.finish(b)

	case solverFused:
		s.stats.Passes++
		// Live rows: the sampler's m, the violator reservoir's m, and
		// the one remembered row.
		s.stats.trackSpace(s.opt, 2*s.p.M+1, len(s.bases))
		if s.violCount == 0 {
			return s.finish(s.pending)
		}
		netRows, ok := s.net.Finish(s.lastRow)
		if !ok {
			return s.fail(ErrEmptyStream)
		}
		a := s.wTotal.Sum()
		success := s.p.Success(a, s.wViol.Sum())
		if success {
			s.stats.Successes++
		} else {
			s.stats.Failures++
			if s.p.MonteCarlo {
				return s.fail(core.ErrRoundFailed)
			}
		}
		// Every solved net is tested before the budget ends the run: the
		// net this pass drew is not solved.
		if s.stats.Iterations >= s.p.MaxIters {
			return s.fail(core.ErrIterationBudget)
		}
		if success {
			s.bases = append(s.bases, s.pending)
			s.stats.StoredBases = len(s.bases)
			// The stored basis's constraints alias the arena its net
			// was decoded into: it keeps that arena.
			s.netArena, s.netItems = nil, nil
			// The mixture: a slot keeps its draw ∝ w with probability
			// A/(A+B) and takes the violators' draw otherwise.
			s.nextTotal = s.wSucc.Sum()
			violRows, _ := s.viol.Sample()
			for k, row := range netRows {
				if s.rng.Float64()*s.nextTotal >= a {
					copy(row, violRows[k])
				}
			}
		} else {
			s.nextTotal = a
		}
		return s.solveNet(netRows)
	}
	return s.err
}

// solveNet makes the basis of the sampled net the pending one. The
// rows are sampler slots the next pass overwrites, and decoded
// constraints — hence the basis — may alias their row, so the net is
// copied into the solver's arena first. The arena is reused while the
// basis solved from it is dropped (a failed iteration) and replaced
// when it is kept (EndPass: stored on success; returned at the end).
func (s *DatasetSolver[C, B]) solveNet(rows [][]float64) error {
	if s.netArena == nil {
		s.netArena = make([]float64, s.p.M*s.width)
		s.netItems = make([]C, s.p.M)
	}
	for i, row := range rows {
		dst := s.netArena[i*s.width : (i+1)*s.width : (i+1)*s.width]
		copy(dst, row)
		s.netItems[i] = s.ra.Item(dst)
	}
	pending, err := s.dom.Solve(s.netItems)
	if err != nil {
		return s.fail(err)
	}
	s.pending = pending
	s.stats.Iterations++
	return nil
}

// Result returns the basis, the accumulated stats, and the terminal
// error. Valid once Done reports true (stats are meaningful earlier,
// for error paths that abandon a scan mid-pass).
func (s *DatasetSolver[C, B]) Result() (B, Stats, error) {
	return s.result, s.stats, s.err
}

func (s *DatasetSolver[C, B]) fail(err error) error {
	s.err = err
	s.phase = solverDone
	return err
}

func (s *DatasetSolver[C, B]) finish(b B) error {
	s.result = b
	s.phase = solverDone
	return nil
}
