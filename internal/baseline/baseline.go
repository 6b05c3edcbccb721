// Package baseline implements the prior-work comparison points of the
// paper's §1.1:
//
//   - ChanChen: a multi-pass streaming LP solver in the style of
//     Chan–Chen (2007), whose pass complexity is O(r^{d-1}) — the
//     exponential-in-d behaviour that Result 1 improves to O(d·r).
//     Our rendition performs nested grid prune-and-search: the
//     top-level variable's range is refined over r sub-passes, and
//     each envelope evaluation recursively solves a (d-1)-dimensional
//     LP; sub-searches at the same depth advance in lockstep so a
//     single physical pass feeds all of them (Chan–Chen achieve the
//     same pass count with a more frugal space bound; we trade space
//     for implementation clarity and measure passes, the quantity the
//     paper compares).
//   - OneShot: a single unweighted ε-net sample without Clarkson
//     reweighting — the ablation showing why the iterate-and-reweight
//     loop is needed for exactness.
//
// Both read the constraint sequence as a dataset.Source, the input
// every solver of the repository reads: ChanChen the lp wire rows
// (a_1…a_d, b) through one cursor it rewinds for every pass, OneShot
// any kind's rows through its lptype.RowAccess.
//
// ChanChen converges geometrically rather than exactly (coordinates
// are committed to grid points): with per-level refinement factor
// s = n^{1/r} and r rounds per level the positional error is
// range/s^r per variable. Tests verify the objective matches Seidel to
// 1e-6 on the benchmark families.
package baseline

import (
	"errors"
	"fmt"
	"math"

	"lowdimlp/internal/dataset"
	"lowdimlp/internal/lp"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/numeric"
	"lowdimlp/internal/sampling"
)

// ChanChenStats reports the resources of a ChanChen run.
type ChanChenStats struct {
	N      int
	D      int
	R      int
	S      int // grid arity per pass ≈ n^{1/r}
	Passes int
	// PeakTasks is the maximum number of simultaneously active grid
	// tasks — the space driver.
	PeakTasks int
}

func (s ChanChenStats) String() string {
	return fmt.Sprintf("chan-chen: n=%d d=%d r=%d s=%d passes=%d tasks=%d",
		s.N, s.D, s.R, s.S, s.Passes, s.PeakTasks)
}

// ErrChanChenInfeasible reports that every grid task became infeasible.
var ErrChanChenInfeasible = errors.New("baseline: chan-chen found no feasible grid point")

// ChanChen approximately solves min c·x over the lp rows (a_1…a_d, b)
// of src by nested grid prune-and-search with O(r^{d-1}) passes. box
// bounds the search region (|x_i| ≤ box), which must contain the
// optimum. A cursor error ends the solve and is returned.
func ChanChen(p lp.Problem, src dataset.Source, r int, box float64) ([]float64, float64, ChanChenStats, error) {
	d := p.Dim
	if w := src.Width(); w != d+1 {
		return nil, 0, ChanChenStats{}, fmt.Errorf("%w: %d-wide rows for a %d-variable lp", dataset.ErrWidth, w, d)
	}
	n := src.Rows()
	if r < 1 {
		r = 1
	}
	s := int(math.Ceil(math.Pow(float64(n), 1/float64(r))))
	if s < 2 {
		s = 2
	}
	if s > 64 {
		// Grid tasks multiply as s^{d-1}; cap the arity and compensate
		// with extra refinement rounds, preserving the r^{d-1} pass
		// shape (the measured quantity).
		s = 64
	}
	stats := ChanChenStats{N: n, D: d, R: r, S: s}
	cc := &chanChen{p: p, s: s, r: r, cur: src.NewCursor(),
		batch: make([]dataset.Row, dataset.DefaultBatchRows), fixed: make([]float64, d)}
	defer dataset.CloseCursor(cc.cur)

	// intervals per variable, refined outer-to-inner. Variable d-1 is
	// the outermost.
	x := make([]float64, d)
	lo := make([]float64, d)
	hi := make([]float64, d)
	for i := range lo {
		lo[i], hi[i] = -box, box
	}
	val, err := cc.solve(d, lo, hi, &stats, x)
	if err != nil {
		return nil, 0, stats, err
	}
	return x, val, stats, nil
}

// chanChen is one ChanChen run: every pass rewinds the one cursor, and
// fixed[v] holds the grid value the enclosing levels chose for each
// variable v ≥ 1.
type chanChen struct {
	p     lp.Problem
	s, r  int
	cur   dataset.Cursor
	batch []dataset.Row
	fixed []float64
}

// solve refines the intervals of variables [0, dim) and writes the
// located optimum into x[0:dim]. It returns the (approximate) optimal
// objective restricted to x[dim:] already fixed by outer levels.
func (cc *chanChen) solve(dim int, lo, hi []float64, stats *ChanChenStats, x []float64) (float64, error) {
	if dim == 1 {
		return cc.solve1D(lo[0], hi[0], stats, x)
	}
	s := cc.s
	v := dim - 1 // the variable this level owns
	best := math.Inf(1)
	for round := 0; round < cc.r; round++ {
		// Evaluate the restricted optimum at s+1 grid values of x_v in
		// lockstep: all grid tasks recurse together, so the passes of
		// the (dim-1)-level are shared across the grid.
		grid := make([]float64, s+1)
		for t := 0; t <= s; t++ {
			grid[t] = lo[v] + (hi[v]-lo[v])*float64(t)/float64(s)
		}
		vals := make([]float64, s+1)
		xs := make([][]float64, s+1)
		for t := range vals {
			vals[t] = math.Inf(1)
			xs[t] = make([]float64, dim-1)
		}
		if stats.PeakTasks < (s + 1) {
			stats.PeakTasks = s + 1
		}
		// Recurse with x_v fixed to each grid value. The recursion is
		// executed sequentially but the pass accounting is lockstep:
		// remember the pass counter, run each task with a private
		// counter, and charge the maximum (all tasks advance within
		// the same physical scans). An infeasible task is skipped.
		base := stats.Passes
		maxPasses := 0
		for t := 0; t <= s; t++ {
			sub := *stats
			sub.Passes = 0
			cc.fixed[v] = grid[t]
			cl := make([]float64, dim-1)
			copy(cl, lo[:dim-1])
			ch := make([]float64, dim-1)
			copy(ch, hi[:dim-1])
			val, err := cc.solve(dim-1, cl, ch, &sub, xs[t])
			switch {
			case err == nil:
				vals[t] = val + cc.p.Objective[v]*grid[t]
			case !errors.Is(err, ErrChanChenInfeasible):
				return 0, err
			}
			if sub.Passes > maxPasses {
				maxPasses = sub.Passes
			}
			if sub.PeakTasks > stats.PeakTasks {
				stats.PeakTasks = sub.PeakTasks
			}
		}
		stats.Passes = base + maxPasses

		// The restricted optimum is convex in x_v: keep the cells
		// around the grid argmin.
		arg := 0
		for t, v := range vals {
			if v < vals[arg] {
				arg = t
			}
		}
		if math.IsInf(vals[arg], 1) {
			return 0, ErrChanChenInfeasible
		}
		best = vals[arg]
		x[v] = grid[arg]
		copy(x[:dim-1], xs[arg])
		l := arg - 1
		if l < 0 {
			l = 0
		}
		h := arg + 1
		if h > s {
			h = s
		}
		lo[v], hi[v] = grid[l], grid[h]
	}
	return best, nil
}

// solve1D solves the 1-variable restricted LP exactly in one pass:
// each row, with x_v = fixed[v] substituted for v = d-1 down to 1,
// bounds x_0 to an interval; intersect them and minimize the
// objective term.
func (cc *chanChen) solve1D(lo, hi float64, stats *ChanChenStats, x []float64) (float64, error) {
	stats.Passes++
	d := len(cc.fixed)
	err := pass(cc.cur, cc.batch, func(rows []dataset.Row) error {
		for _, row := range rows {
			b := row[d]
			for v := d - 1; v >= 1; v-- {
				b -= row[v] * cc.fixed[v]
			}
			a := row[0]
			switch {
			case math.Abs(a) < 1e-12:
				if b < -1e-9*(math.Abs(b)+1) {
					return ErrChanChenInfeasible
				}
			case a > 0:
				if ub := b / a; ub < hi {
					hi = ub
				}
			default:
				if lb := b / a; lb > lo {
					lo = lb
				}
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if lo > hi+1e-9*(math.Abs(hi)+1) {
		return 0, ErrChanChenInfeasible
	}
	if lo > hi {
		hi = lo
	}
	c := cc.p.Objective[0]
	if c >= 0 {
		x[0] = lo
	} else {
		x[0] = hi
	}
	return c * x[0], nil
}

// pass rewinds cur and hands fn the rows of one full pass, a batch at
// a time; a cursor error or an error of fn ends the pass.
func pass(cur dataset.Cursor, batch []dataset.Row, fn func(rows []dataset.Row) error) error {
	if err := cur.Reset(); err != nil {
		return err
	}
	for {
		k, err := cur.Next(batch)
		if err != nil || k == 0 {
			return err
		}
		if err := fn(batch[:k]); err != nil {
			return err
		}
	}
}

// --- One-shot sampling ablation -----------------------------------------

// OneShotResult reports the single-sample heuristic's outcome.
type OneShotResult struct {
	SampleSize int
	Violators  int // constraints of the full set violating the sample's basis
}

// OneShot draws a single uniform sample of m rows of src (with
// replacement, one weighted reservoir at weight 1), solves it, and
// reports how many rows its basis violates — the ablation showing
// that without the reweighting loop a single ε-net yields an
// infeasible "solution" with ≈ ε·n violated constraints rather than
// the exact optimum.
func OneShot[C, B any](ra lptype.RowAccess[C, B], src dataset.Source, m int, seed uint64) (B, OneShotResult, error) {
	var zero B
	cur := src.NewCursor()
	defer dataset.CloseCursor(cur)
	batch := make([]dataset.Row, dataset.DefaultBatchRows)
	var net [][]float64
	if n := src.Rows(); m >= n {
		// Sampling with replacement at m ≥ n would still miss ≈ n/e
		// rows; at this size take them all.
		view, err := dataset.Materialize(src)
		if err != nil {
			return zero, OneShotResult{}, err
		}
		for i := 0; i < n; i++ {
			net = append(net, view.Row(i))
		}
	} else {
		sample := sampling.NewRowReservoir(m, src.Width(), numeric.NewRand(seed, 0x15407))
		err := pass(cur, batch, func(rows []dataset.Row) error {
			for _, row := range rows {
				sample.Offer(row, 1)
			}
			return nil
		})
		if err != nil {
			return zero, OneShotResult{}, err
		}
		net, _ = sample.Sample()
	}
	items := make([]C, len(net))
	for i, row := range net {
		items[i] = ra.Item(row)
	}
	b, err := ra.Domain().Solve(items)
	if err != nil {
		return zero, OneShotResult{}, err
	}
	res := OneShotResult{SampleSize: len(net)}
	var idx []int32
	err = pass(cur, batch, func(rows []dataset.Row) error {
		idx = ra.ViolatesBlock(b, rows, idx)
		res.Violators += len(idx)
		return nil
	})
	if err != nil {
		return zero, OneShotResult{}, err
	}
	return b, res, nil
}
