package stream

import (
	"math"
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
	solverDirect         // m ≥ n: materialize everything, solve once
	solverFused          // fused violation-test + dual-reservoir passes
	solverDone
)

// DatasetSolver is the streaming algorithm (§3.2, Theorem 1) as a
// state machine over passes — BeginPass, every source row in order
// through RowBlock, EndPass; repeat until Done — which SolveDataset's
// pull loop drives over the source's cursor.
//
// The per-pass computation, RNG consumption order (reservoirs draw
// only on Offer, and the fail reservoir is always created before the
// success one) and stats accounting do not depend on how the rows are
// batched, so a solver driven by any scan that delivers the rows in
// source order returns a bit-identical basis and identical Stats.
//
// RowBlock is the hot path: per row it performs the weight and
// violation arithmetic plus at most an accepted-slot copy, and
// allocates nothing (TestFusedPassAllocations pins 0 allocs/pass).
type DatasetSolver[C, B any] struct {
	ra  lptype.RowAccess[C, B]
	dom lptype.Domain[C, B]
	opt Options

	n, width, m int
	eps, mult   float64
	maxIters    int
	rng         *rand.Rand

	phase int
	iter  int

	// Pass-0 state.
	res *sampling.RowReservoir
	// Direct-solve state (m ≥ n).
	items []C
	arena []float64
	// Fused-pass state.
	bases            []B
	pending          B
	resFail, resSucc *sampling.RowReservoir
	wTotal, wViol    numeric.Kahan
	violCount        int
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
	nu := s.dom.CombinatorialDim()
	lambda := s.dom.VCDim()
	r := opt.Core.EffectiveR(n)
	s.stats.R = r
	s.mult = math.Pow(float64(n), 1/float64(r))
	s.eps = 1 / (10 * float64(nu) * s.mult)
	s.m = core.NetSize(s.eps, lambda, n, nu, opt.Core)
	s.stats.NetSize = s.m
	s.maxIters = opt.Core.MaxIters
	if s.maxIters <= 0 {
		s.maxIters = 60*nu*r + 60
	}
	if s.m >= n {
		// Net would contain everything: one pass, solve directly.
		s.phase = solverDirect
		return s
	}
	s.rng = numeric.NewRand(opt.Core.Seed, 0x57124)
	s.phase = solverSample0
	return s
}

// Done reports whether the solver needs no further passes.
func (s *DatasetSolver[C, B]) Done() bool { return s.phase == solverDone }

// BeginPass arms the solver for one scan. The fail reservoir is
// created before the success one: both draw from the solve's one RNG
// stream, so the order is part of the result.
func (s *DatasetSolver[C, B]) BeginPass() {
	switch s.phase {
	case solverSample0:
		s.res = sampling.NewRowReservoir(s.m, s.width, s.rng)
	case solverDirect:
		s.items = make([]C, 0, s.n)
		s.arena = nil
	case solverFused:
		s.resFail = sampling.NewRowReservoir(s.m, s.width, s.rng)
		s.resSucc = sampling.NewRowReservoir(s.m, s.width, s.rng)
		s.wTotal = numeric.Kahan{}
		s.wViol = numeric.Kahan{}
		s.violCount = 0
	}
}

// RowBlock feeds one scanned batch to the armed pass. The rows are
// borrowed views, valid only for the call; anything kept (reservoir
// slots, direct-solve items) is copied. The fused phase
// takes its violation decisions from whole-block ViolatesBlock calls
// — the domain's kernels, or RowAccess's counted per-row loop for
// kernel-less domains and kernel.SetEnabled(false) runs — and then
// performs the Kahan accumulations and reservoir offers row by row in
// source order, so neither the batch boundaries nor the kernel class
// can change the RNG stream, the basis or the stats.
func (s *DatasetSolver[C, B]) RowBlock(rows []dataset.Row) {
	switch s.phase {
	case solverSample0:
		s.stats.ItemsScanned += int64(len(rows))
		for _, row := range rows {
			s.res.Offer(row, 1)
		}
	case solverDirect:
		s.stats.ItemsScanned += int64(len(rows))
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
		s.stats.ItemsScanned += int64(len(rows))
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
			w := lptype.PowWeight(s.mult, int(exps[i]))
			s.wTotal.Add(w)
			if pi < len(s.kpend) && s.kpend[pi] == int32(i) {
				pi++
				s.wViol.Add(w)
				s.violCount++
				s.resFail.Offer(row, w)
				s.resSucc.Offer(row, w*s.mult)
			} else {
				s.resFail.Offer(row, w)
				s.resSucc.Offer(row, w)
			}
		}
	}
}

// EndPass closes the pass: sample/solve bookkeeping, next-phase
// decision. A non-nil error is terminal (Done becomes true and Result
// reports it).
func (s *DatasetSolver[C, B]) EndPass() error {
	switch s.phase {
	case solverSample0:
		s.stats.Passes++
		netRows, ok := s.res.Sample()
		if !ok {
			return s.fail(ErrEmptyStream)
		}
		pending, err := s.dom.Solve(decodeNet(s.ra, netRows, s.width))
		s.res = nil
		if err != nil {
			return s.fail(err)
		}
		s.pending = pending
		s.stats.Iterations++
		s.phase = solverFused
		return nil

	case solverDirect:
		s.stats.Passes++
		s.stats.DirectSolve = true
		s.stats.NetSize = s.n
		s.stats.trackSpace(s.opt, s.n, 0)
		b, err := s.dom.Solve(s.items)
		s.items, s.arena = nil, nil
		if err != nil {
			return s.fail(err)
		}
		return s.finish(b)

	case solverFused:
		s.iter++
		s.stats.Passes++
		s.stats.trackSpace(s.opt, 2*s.m, len(s.bases))
		if s.violCount == 0 {
			return s.finish(s.pending)
		}
		success := s.wViol.Sum() <= s.eps*s.wTotal.Sum()
		var nextNet [][]float64
		if success {
			s.stats.Successes++
			s.bases = append(s.bases, s.pending)
			s.stats.StoredBases = len(s.bases)
			nextNet, _ = s.resSucc.Sample()
		} else {
			s.stats.Failures++
			if s.opt.Core.MonteCarlo {
				return s.fail(core.ErrRoundFailed)
			}
			nextNet, _ = s.resFail.Sample()
		}
		pending, err := s.dom.Solve(decodeNet(s.ra, nextNet, s.width))
		if err != nil {
			return s.fail(err)
		}
		s.pending = pending
		s.stats.Iterations++
		if s.iter >= s.maxIters {
			return s.fail(core.ErrIterationBudget)
		}
		return nil
	}
	return s.err
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
