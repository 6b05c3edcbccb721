package stream

import (
	"math/rand/v2"

	"lowdimlp/internal/core"
	"lowdimlp/internal/dataset"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/numeric"
	"lowdimlp/internal/sampling"
)

// scanner is the streaming model's substrate of Algorithm 1 (§3.2,
// Theorem 1): core.Run tests and samples through it, one cursor pass
// per Test, and the source's rows are never held.
//
// Every pass samples the next net with one known-total sampler: the
// total weight of a pass is known before it starts (see nextTotal), so
// the net is read off m sorted sample points with one compare per row.
// Test(nil) is pass 0, the uniform draw. Test(pending) draws ∝ w, the
// weights it scans under, and offers only the violators of the pending
// basis, at weight w, to a reservoir. Sample, which scans nothing,
// settles the draw: if the iteration failed, the weights stand and the
// net is the draw as is. If it succeeded, the next weights are
// w·mult^[viol] = w + (mult−1)·w·[viol], a mixture: each slot
// independently keeps its draw with probability A/(A+B), A = Σw,
// B = (mult−1)·Σ_viol w, and takes the violator reservoir's slot
// otherwise — exactly m i.i.d. draws from the new weights. All is the
// direct pass.
//
// The per-pass computation, RNG consumption order (one stream: the
// violator offer, then the sample points, of each row in source order
// during Test; the mixture coins in Sample) and stats accounting do not
// depend on how the rows are batched, so any batch size returns a
// bit-identical basis and identical Stats.
//
// rowBlock is the hot path: per row it performs the weight and
// violation arithmetic plus a compare against the next sample point,
// and allocates nothing (TestFusedPassAllocations pins 0 allocs/pass).
type scanner[C, B any] struct {
	ra  lptype.RowAccess[C, B]
	opt Options

	n, width int
	p        core.Params
	rng      *rand.Rand

	// The one cursor every pass rewinds, and its batch buffer.
	cur   dataset.Cursor
	batch []dataset.Row

	// Sampling workspace, allocated once per solve (the direct path
	// allocates none of it): the all-rows sampler, the violator reservoir, a copy
	// of the pass's latest row for sample points the scan ends short
	// of, and the arena the net is decoded into.
	net      *sampling.KnownTotal
	viol     *sampling.RowReservoir
	lastRow  []float64
	netArena []float64
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
	// Fused-pass state; pending is nil in pass 0. wSucc sums the
	// weights the next pass will see if this iteration succeeds: the
	// pending basis's violators one exponent up.
	bases                []B
	pending              *B
	wTotal, wViol, wSucc numeric.Kahan
	violCount            int
	// Block scratch, reused across rowBlock calls: weight exponents
	// per row, and the two violation index buffers (stored bases vs
	// the pending basis). Sized on first use, 0 allocs/block at steady
	// state (pinned by TestBlockPassAllocations).
	kexps, kidx, kpend []int32

	stats Stats
}

// newScanner builds the substrate for a source of n ≥ 1 rows, with the
// run's parameters.
func newScanner[C, B any](ra lptype.RowAccess[C, B], src dataset.Source, p core.Params, opt Options) *scanner[C, B] {
	s := &scanner[C, B]{ra: ra, opt: opt, n: src.Rows(), width: src.Width(), p: p,
		cur: src.NewCursor(), batch: make([]dataset.Row, dataset.DefaultBatchRows)}
	if p.Direct {
		return s
	}
	s.rng = numeric.NewRand(opt.Core.Seed, 0x57124)
	s.net = sampling.NewKnownTotal(p.M, s.width, s.rng)
	s.viol = sampling.NewRowReservoir(p.M, s.width, s.rng)
	s.lastRow = make([]float64, 0, s.width)
	s.nextTotal = float64(s.n)
	return s
}

// Test runs one pass: pass 0's uniform draw for a nil pending basis,
// otherwise the fused pass that tests it and draws the next net.
func (s *scanner[C, B]) Test(pending *B) (wS, wV float64, violators int, err error) {
	s.begin(pending)
	if err := s.scan(); err != nil {
		return 0, 0, 0, err
	}
	s.stats.Passes++
	if pending == nil {
		return float64(s.n), 0, 0, nil
	}
	// Live rows: the sampler's m, the violator reservoir's m, and the
	// one remembered row.
	s.stats.trackSpace(s.opt, 2*s.p.M+1, len(s.bases))
	return s.wTotal.Sum(), s.wViol.Sum(), s.violCount, nil
}

// begin arms a pass: the sampler with the pass's total (which draws
// the first sample point), the violator reservoir and the accumulators
// emptied.
func (s *scanner[C, B]) begin(pending *B) {
	s.pending = pending
	s.net.Reset(s.nextTotal)
	s.viol.Reset()
	s.lastRow, s.seen = s.lastRow[:0], 0
	s.wTotal, s.wViol, s.wSucc = numeric.Kahan{}, numeric.Kahan{}, numeric.Kahan{}
	s.violCount = 0
}

// Sample settles the last pass's draw into net. On success it stores
// the tested basis and mixes the violators' draw in.
//
// The rows are sampler slots the next pass overwrites, and decoded
// constraints — hence the basis — may alias their row, so the net is
// copied into the scanner's arena first. The arena is reused while the
// basis solved from it is dropped (a failed iteration) and replaced
// when it is kept (stored on success; returned at the end).
func (s *scanner[C, B]) Sample(success bool, net []C) error {
	rows, ok := s.net.Finish(s.lastRow)
	if !ok {
		return ErrEmptyStream
	}
	switch {
	case success:
		s.bases = append(s.bases, *s.pending)
		s.stats.StoredBases = len(s.bases)
		// The stored basis's constraints alias the arena its net was
		// decoded into: it keeps that arena.
		s.netArena = nil
		// The mixture: a slot keeps its draw ∝ w with probability
		// A/(A+B) and takes the violators' draw otherwise.
		a := s.wTotal.Sum()
		s.nextTotal = s.wSucc.Sum()
		violRows, _ := s.viol.Sample()
		for k, row := range rows {
			if s.rng.Float64()*s.nextTotal >= a {
				copy(row, violRows[k])
			}
		}
	case s.pending != nil:
		// A failed iteration: the weights stand. (After pass 0 they
		// are all 1, and nextTotal is n already.)
		s.nextTotal = s.wTotal.Sum()
	}
	if s.netArena == nil {
		s.netArena = make([]float64, s.p.M*s.width)
	}
	for i, row := range rows {
		dst := s.netArena[i*s.width : (i+1)*s.width : (i+1)*s.width]
		copy(dst, row)
		net[i] = s.ra.Item(dst)
	}
	return nil
}

// All is the direct pass: every row, copied and decoded.
func (s *scanner[C, B]) All() ([]C, error) {
	s.items = make([]C, 0, s.n)
	if err := s.scan(); err != nil {
		return nil, err
	}
	s.stats.Passes++
	s.stats.trackSpace(s.opt, s.n, 0)
	return s.items, nil
}

// scan is one pass's read: the cursor rewound, then every batch, in
// source order, through rowBlock. Cursor and buffer live as long as the
// solve, so a pass allocates nothing (TestFusedPassAllocations pins 0).
func (s *scanner[C, B]) scan() error {
	if err := s.cur.Reset(); err != nil {
		return err
	}
	for {
		nr, err := s.cur.Next(s.batch)
		if err != nil || nr == 0 {
			return err
		}
		s.rowBlock(s.batch[:nr])
	}
}

// rowBlock feeds one scanned batch to the armed pass. The rows are
// borrowed views, valid only for the call; anything kept (sampled
// slots, the block's last row, direct-solve items) is copied. The
// fused pass takes its violation decisions from whole-block
// ViolatesBlock calls — the domain's kernels, or RowAccess's counted
// per-row loop for kernel-less domains — and then performs the Kahan
// accumulations, the violators' reservoir offers and the sample-point
// compares row by row in source order, so neither the batch boundaries
// nor the kernel class can change the RNG stream, the basis or the
// stats.
func (s *scanner[C, B]) rowBlock(rows []dataset.Row) {
	if len(rows) == 0 {
		return
	}
	s.stats.ItemsScanned += int64(len(rows))
	switch {
	case s.p.Direct:
		for _, row := range rows {
			w := len(row)
			if cap(s.arena)-len(s.arena) < w {
				s.arena = make([]float64, 0, max(s.n*w/4+w, 1024))
			}
			lo := len(s.arena)
			s.arena = append(s.arena, row...)
			s.items = append(s.items, s.ra.Item(s.arena[lo:lo+w:lo+w]))
		}
	case s.pending == nil:
		for _, row := range rows {
			s.seen++
			s.net.Offer(row, float64(s.seen))
		}
		s.lastRow = append(s.lastRow[:0], rows[len(rows)-1]...)
	default:
		if cap(s.kexps) < len(rows) {
			s.kexps = make([]int32, len(rows))
		}
		exps := s.kexps[:len(rows)]
		s.kidx = s.ra.WeightExpBlock(s.bases, rows, exps, s.kidx)
		s.kpend = s.ra.ViolatesBlock(*s.pending, rows, s.kpend)
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
