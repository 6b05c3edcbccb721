package stream

import (
	"math"
	"math/rand/v2"

	"lowdimlp/internal/core"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/numeric"
	"lowdimlp/internal/sampling"
)

// solveRef is the typed twin of DatasetSolver: the same algorithm and
// the same draw order — one RNG stream; per item, the violator's
// reservoir offer and then the sample points its weight interval
// holds; the mixture coins after a successful pass — written
// independently over a typed Stream[C]: per-item dom.Violates,
// math.Pow for every weight, a typed violator reservoir, and its own
// sorted-point sampler (refSampler). No rows, no blocks, no kernels,
// and no code shared with DatasetSolver or sampling.KnownTotal, which
// is what makes TestSolverMatchesTypedReference an independent check.
// n is the number of items; n ≤ 0 counts them with one extra pass.
func solveRef[C, B any](dom lptype.Domain[C, B], st Stream[C], n int, opt Options) (B, Stats, error) {
	var zero B
	stats := Stats{}
	if n <= 0 {
		n = 0
		st.Reset()
		for {
			if _, ok := st.Next(); !ok {
				break
			}
			n++
		}
		stats.Passes++
		stats.ItemsScanned += int64(n)
	}
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
		buf := make([]C, 0, n)
		st.Reset()
		for {
			c, ok := st.Next()
			if !ok {
				break
			}
			buf = append(buf, c)
		}
		stats.Passes++
		stats.ItemsScanned += int64(len(buf))
		stats.DirectSolve = true
		stats.trackSpace(opt, n, 0)
		b, err := dom.Solve(buf)
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
	st.Reset()
	for i := 1; ; i++ {
		c, ok := st.Next()
		if !ok {
			break
		}
		stats.ItemsScanned++
		net.offer(c, float64(i))
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
		viol := sampling.NewReservoir[C](m, rng)
		var wTotal, wViol, wSucc numeric.Kahan
		violCount := 0
		st.Reset()
		for {
			c, ok := st.Next()
			if !ok {
				break
			}
			stats.ItemsScanned++
			a := weightExp(c)
			w := math.Pow(mult, float64(a))
			wTotal.Add(w)
			if dom.Violates(pending, c) {
				wViol.Add(w)
				violCount++
				viol.Offer(c, w)
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
			violItems, _ := viol.Sample()
			for k := range nextNet {
				if rng.Float64()*total >= wTotal.Sum() {
					nextNet[k] = violItems[k]
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

// SolveRef exposes the oracle to the external test package.
func SolveRef[C, B any](dom lptype.Domain[C, B], st Stream[C], n int, opt Options) (B, Stats, error) {
	return solveRef(dom, st, n, opt)
}
