package stream

import (
	"math"
	"math/rand/v2"

	"lowdimlp/internal/core"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/numeric"
)

// solveRef is the typed twin of SolveDataset: the same algorithm and
// the same draw order — one RNG stream; per item, the violator's
// reservoir offer and then the sample points its weight interval
// holds; the mixture coins after a successful pass — written
// independently over the typed items, one pass a loop over them:
// per-item dom.Violates, math.Pow for every weight, its own violator
// reservoir (refReservoir) and its own sorted-point sampler
// (refSampler). No rows, no blocks, no kernels, and no code shared
// with the driver or the sampling package, which is what makes
// TestSolverMatchesTypedReference an independent check.
func solveRef[C, B any](dom lptype.Domain[C, B], items []C, opt Options) (B, Stats, error) {
	var zero B
	n := len(items)
	stats := Stats{}
	stats.N = n
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
	p := core.NewParams(n, nu, lambda, opt.Core)
	m := p.M
	stats.NetSize = m

	if p.Direct {
		// The n rows fit in the 2m+1 a sampled pass holds: one pass,
		// solve directly.
		stats.Passes++
		stats.ItemsScanned += int64(n)
		stats.DirectSolve = true
		stats.trackSpace(opt, n, 0)
		b, err := dom.Solve(append([]C(nil), items...))
		return b, stats, err
	}

	rng := numeric.NewRand(opt.Core.Seed, 0x57124)
	var bases []B // bases of successful iterations — the weight oracle

	// weightExp computes a(c): the number of stored bases c violates.
	weightExp := func(c C) int {
		a := 0
		for i := range bases {
			if dom.Violates(bases[i], c) {
				a++
			}
		}
		return a
	}

	maxIters := opt.Core.MaxIters
	if maxIters <= 0 {
		maxIters = 60*nu*r + 60
	}

	// Pass 0: uniform-weight sample (no bases stored yet), total n.
	net := newRefSampler[C](m, float64(n), rng)
	for i, c := range items {
		stats.ItemsScanned++
		net.offer(c, float64(i+1))
	}
	stats.Passes++
	pending, err := dom.Solve(net.finish())
	if err != nil {
		return zero, stats, err
	}
	stats.Iterations++

	total := float64(n) // what the coming pass's weights sum to
	for {
		// One pass: violation test for `pending`, the next net drawn
		// from all items by current weight, and the violators sampled
		// on the side.
		net := newRefSampler[C](m, total, rng)
		viol := newRefReservoir[C](m, rng)
		var wTotal, wViol, wSucc numeric.Kahan
		violCount := 0
		for _, c := range items {
			stats.ItemsScanned++
			a := weightExp(c)
			w := math.Pow(mult, float64(a))
			wTotal.Add(w)
			if dom.Violates(pending, c) {
				wViol.Add(w)
				violCount++
				viol.offer(c, w)
				wSucc.Add(math.Pow(mult, float64(a+1)))
			} else {
				wSucc.Add(w)
			}
			net.offer(c, wTotal.Sum())
		}
		stats.Passes++
		stats.trackSpace(opt, 2*m+1, len(bases))
		if violCount == 0 {
			return pending, stats, nil
		}
		nextNet := net.finish()
		success := wViol.Sum() <= eps*wTotal.Sum()
		if success {
			stats.Successes++
		} else {
			stats.Failures++
			if opt.Core.MonteCarlo {
				return zero, stats, core.ErrRoundFailed
			}
		}
		// maxIters nets solved, and each of them tested.
		if stats.Iterations >= maxIters {
			return zero, stats, core.ErrIterationBudget
		}
		if success {
			bases = append(bases, pending)
			stats.StoredBases = len(bases)
			// New weights = old weights + (mult−1)·old weight on the
			// violators: each draw stays with probability old/new.
			total = wSucc.Sum()
			for k := range nextNet {
				if rng.Float64()*total >= wTotal.Sum() {
					nextNet[k] = viol.slots[k]
				}
			}
		} else {
			total = wTotal.Sum()
		}
		pending, err = dom.Solve(nextNet)
		if err != nil {
			return zero, stats, err
		}
		stats.Iterations++
	}
}

// refSampler places m sorted uniform points on [0, total) one at a
// time and hands each to the item whose cumulative-weight interval
// holds it.
type refSampler[C any] struct {
	items []C
	m     int
	total float64
	logp  float64
	point float64
	rng   *rand.Rand
	last  C
}

func newRefSampler[C any](m int, total float64, rng *rand.Rand) *refSampler[C] {
	s := &refSampler[C]{items: make([]C, 0, m), m: m, total: total, rng: rng}
	s.draw()
	return s
}

// draw moves to the next order statistic: of k uniforms left, the
// smallest leaves the fraction V^{1/k} = exp(−E/k) above it.
func (s *refSampler[C]) draw() {
	if k := s.m - len(s.items); k > 0 {
		s.logp -= s.rng.ExpFloat64() / float64(k)
		s.point = (1 - math.Exp(s.logp)) * s.total
	}
}

func (s *refSampler[C]) offer(c C, cum float64) {
	s.last = c
	for len(s.items) < s.m && s.point < cum {
		s.items = append(s.items, c)
		s.draw()
	}
}

func (s *refSampler[C]) finish() []C {
	for len(s.items) < s.m {
		s.items = append(s.items, s.last)
	}
	return s.items
}

// refReservoir keeps m independent weighted slots over the offers of
// one pass: each slot takes an item of weight w with probability w/W,
// W the weight offered so far. The slots taking it are found by
// geometric skips, one uniform per skip — the RNG draws the driver's
// violator reservoir makes.
type refReservoir[C any] struct {
	slots []C
	total float64
	rng   *rand.Rand
}

func newRefReservoir[C any](m int, rng *rand.Rand) *refReservoir[C] {
	return &refReservoir[C]{slots: make([]C, m), rng: rng}
}

func (r *refReservoir[C]) offer(c C, w float64) {
	r.total += w
	p := w / r.total
	if p >= 1 {
		for i := range r.slots {
			r.slots[i] = c
		}
		return
	}
	log1p := math.Log1p(-p)
	for i := 0; ; i++ {
		u := r.rng.Float64()
		if u == 0 {
			u = 0.5
		}
		skip := math.Log(u) / log1p
		if skip >= float64(len(r.slots)-i) {
			return
		}
		i += int(skip)
		r.slots[i] = c
	}
}

// SolveRef exposes the oracle to the external test package.
func SolveRef[C, B any](dom lptype.Domain[C, B], items []C, opt Options) (B, Stats, error) {
	return solveRef(dom, items, opt)
}
