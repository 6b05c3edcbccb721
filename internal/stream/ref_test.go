package stream

import (
	"math"

	"lowdimlp/internal/core"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/numeric"
	"lowdimlp/internal/sampling"
)

// solveRef is the typed fused streaming loop that was stream.Solve
// before typed input was converted to rows at the engine boundary,
// moved here verbatim (only the name changed, and the branch to the
// deleted unfused variant dropped) as the differential oracle of the
// one surviving driver: a typed Stream[C], per-item dom.Violates,
// math.Pow for every weight, typed reservoirs — no rows, no blocks, no
// kernels. It shares no code with DatasetSolver, which is what makes
// TestSolverMatchesTypedReference an independent check. n is the
// number of items; n ≤ 0 counts them with one extra pass.
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
	m := core.NetSize(eps, lambda, n, nu, opt.Core)
	stats.NetSize = m

	if m >= n {
		// Net would contain everything: one pass, solve directly.
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
		stats.NetSize = n
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

	// Fused mode. Pass 0: uniform-weight sample (no bases stored yet).
	res := sampling.NewReservoir[C](m, rng)
	st.Reset()
	for {
		c, ok := st.Next()
		if !ok {
			break
		}
		stats.ItemsScanned++
		res.Offer(c, 1)
	}
	stats.Passes++
	netItems, ok := res.Sample()
	if !ok {
		return zero, stats, ErrEmptyStream
	}
	pending, err := dom.Solve(netItems)
	if err != nil {
		return zero, stats, err
	}
	stats.Iterations++

	for iter := 1; iter <= maxIters; iter++ {
		// One pass: violation test for `pending` + dual reservoirs for
		// the next net.
		resFail := sampling.NewReservoir[C](m, rng)
		resSucc := sampling.NewReservoir[C](m, rng)
		var wTotal, wViol numeric.Kahan
		violCount := 0
		st.Reset()
		for {
			c, ok := st.Next()
			if !ok {
				break
			}
			stats.ItemsScanned++
			w := math.Pow(mult, float64(weightExp(c)))
			wTotal.Add(w)
			if dom.Violates(pending, c) {
				wViol.Add(w)
				violCount++
				resFail.Offer(c, w)
				resSucc.Offer(c, w*mult)
			} else {
				resFail.Offer(c, w)
				resSucc.Offer(c, w)
			}
		}
		stats.Passes++
		stats.trackSpace(opt, 2*m, len(bases))
		if violCount == 0 {
			return pending, stats, nil
		}
		success := wViol.Sum() <= eps*wTotal.Sum()
		var nextNet []C
		if success {
			stats.Successes++
			bases = append(bases, pending)
			stats.StoredBases = len(bases)
			nextNet, _ = resSucc.Sample()
		} else {
			stats.Failures++
			if opt.Core.MonteCarlo {
				return zero, stats, core.ErrRoundFailed
			}
			nextNet, _ = resFail.Sample()
		}
		pending, err = dom.Solve(nextNet)
		if err != nil {
			return zero, stats, err
		}
		stats.Iterations++
	}
	return zero, stats, core.ErrIterationBudget
}

// SolveRef exposes the oracle to the external test package.
func SolveRef[C, B any](dom lptype.Domain[C, B], st Stream[C], n int, opt Options) (B, Stats, error) {
	return solveRef(dom, st, n, opt)
}
