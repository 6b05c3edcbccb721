package core

import (
	"errors"
	"math"
	"testing"

	"lowdimlp/internal/lp"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/meb"
	"lowdimlp/internal/numeric"
	"lowdimlp/internal/svm"
)

// sphereLP builds the sphere-tangent random LP family (feasible, and
// bounded once n is moderately large).
func sphereLP(d, n int, seed uint64) (lp.Problem, []lp.Halfspace) {
	rng := numeric.NewRand(seed, 0xc0de)
	obj := make([]float64, d)
	for i := range obj {
		obj[i] = rng.NormFloat64()
	}
	cons := make([]lp.Halfspace, n)
	for i := range cons {
		a := make([]float64, d)
		for j := range a {
			a[j] = rng.NormFloat64()
		}
		nrm := numeric.Norm2(a)
		for j := range a {
			a[j] /= nrm
		}
		cons[i] = lp.Halfspace{A: a, B: 1}
	}
	return lp.NewProblem(obj), cons
}

func TestSolveLPMatchesDirect(t *testing.T) {
	for _, n := range []int{50, 500, 5000} {
		for _, r := range []int{1, 2, 3} {
			p, cons := sphereLP(3, n, uint64(n)+uint64(r))
			dom := lp.NewDomain(p, 7)
			got, stats, err := Solve[lp.Halfspace, lp.Basis](dom, cons, Options{R: r, Seed: 42})
			if err != nil {
				t.Fatalf("n=%d r=%d: %v (%v)", n, r, err, stats)
			}
			want, err := dom.Solve(cons)
			if err != nil {
				t.Fatal(err)
			}
			if !numeric.ApproxEqualTol(got.Sol.Value, want.Sol.Value, 1e-6) {
				t.Fatalf("n=%d r=%d: clarkson %v vs direct %v", n, r, got.Sol.Value, want.Sol.Value)
			}
		}
	}
}

func TestSolveEmptyAndTiny(t *testing.T) {
	p := lp.Problem{Dim: 2, Objective: []float64{1, 0}, Box: 10}
	dom := lp.NewDomain(p, 1)
	b, stats, err := Solve[lp.Halfspace, lp.Basis](dom, nil, Options{R: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.N != 0 || !numeric.ApproxEqual(b.Sol.X[0], -10) {
		t.Fatalf("empty solve: %+v", b.Sol)
	}
	// Tiny inputs take the direct path (n ≤ 2m+1).
	_, cons := sphereLP(2, 5, 3)
	b2, stats, err := Solve[lp.Halfspace, lp.Basis](lp.NewDomain(lp.NewProblem([]float64{1, 1}), 2), cons, Options{R: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.DirectSolve {
		t.Error("n=5 must be solved directly")
	}
	_ = b2
}

func TestSolveInfeasiblePropagates(t *testing.T) {
	// Infeasible LP: x ≥ 5 and x ≤ 3 replicated many times.
	var cons []lp.Halfspace
	for i := 0; i < 2000; i++ {
		cons = append(cons, lp.Halfspace{A: []float64{-1}, B: -5}, lp.Halfspace{A: []float64{1}, B: 3})
	}
	dom := lp.NewDomain(lp.NewProblem([]float64{1}), 3)
	_, _, err := Solve[lp.Halfspace, lp.Basis](dom, cons, Options{R: 2, Seed: 5})
	if !errors.Is(err, lptype.ErrInfeasible) {
		t.Fatalf("expected ErrInfeasible, got %v", err)
	}
}

func TestIterationBoundLemma33(t *testing.T) {
	// Lemma 3.3: O(ν·r) iterations w.h.p. — check a generous multiple,
	// and that per-iteration success rate is ≥ 2/3-ish (Claim 3.2).
	p, cons := sphereLP(3, 20000, 17)
	dom := lp.NewDomain(p, 11)
	nu := dom.CombinatorialDim()
	for _, r := range []int{2, 3, 5} {
		_, stats, err := Solve[lp.Halfspace, lp.Basis](dom, cons, Options{R: r, Seed: 1, CollectLog: true})
		if err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		bound := 3 * nu * r // 20/9·ν·r plus slack
		if stats.Iterations > bound {
			t.Errorf("r=%d: %d iterations exceed %d (Lemma 3.3 shape)", r, stats.Iterations, bound)
		}
		if stats.Iterations >= 6 {
			rate := float64(stats.Successes) / float64(stats.Iterations)
			if rate < 0.5 {
				t.Errorf("r=%d: success rate %.2f below Claim 3.2 shape", r, rate)
			}
		}
	}
}

func TestWeightGrowthSandwich(t *testing.T) {
	// Claims 3.4/3.5: after t successes, n^{t/νr} ≤ w(S) ≤ e^{t/10ν}·n.
	p, cons := sphereLP(2, 10000, 23)
	dom := lp.NewDomain(p, 13)
	nu := float64(dom.CombinatorialDim())
	r := 3
	_, stats, err := Solve[lp.Halfspace, lp.Basis](dom, cons, Options{R: r, Seed: 9, CollectLog: true})
	if err != nil {
		t.Fatal(err)
	}
	n := float64(stats.N)
	succ := 0
	for _, rec := range stats.Log {
		if rec.TotalWeight == 0 {
			continue
		}
		// rec.TotalWeight is w(S) at the start of the iteration, i.e.
		// after `succ` successful iterations.
		t1 := math.Pow(n, float64(succ)/(nu*float64(stats.R)))
		t2 := math.Exp(float64(succ)/(10*nu)) * n
		// The lower bound of Claim 3.4 is on w(B*) ≤ w(S); the upper
		// bound holds for w(S) directly.
		if rec.TotalWeight < t1-1e-9 {
			t.Errorf("after %d successes w(S)=%v below lower bound %v", succ, rec.TotalWeight, t1)
		}
		if rec.TotalWeight > t2*(1+1e-9) {
			t.Errorf("after %d successes w(S)=%v above upper bound %v", succ, rec.TotalWeight, t2)
		}
		if rec.Success {
			succ++
		}
	}
	_ = r
}

func TestMonteCarloVariant(t *testing.T) {
	p, cons := sphereLP(3, 5000, 29)
	dom := lp.NewDomain(p, 17)
	// With the enlarged Monte-Carlo net the run should almost always
	// succeed; accept either success or an explicit round failure.
	got, stats, err := Solve[lp.Halfspace, lp.Basis](dom, cons, Options{R: 2, Seed: 3, MonteCarlo: true})
	if err != nil {
		if errors.Is(err, ErrRoundFailed) {
			t.Skip("monte-carlo round failed (allowed, probability ≤ 1/(nν))")
		}
		t.Fatal(err)
	}
	want, _ := dom.Solve(cons)
	if !numeric.ApproxEqualTol(got.Sol.Value, want.Sol.Value, 1e-6) {
		t.Fatalf("mc %v vs direct %v (%v)", got.Sol.Value, want.Sol.Value, stats)
	}
}

func TestTheoryNetDirectFallback(t *testing.T) {
	// With theory-exact net sizes and small n, n ≤ 2m+1 forces the direct
	// path — the result must still be correct.
	p, cons := sphereLP(2, 2000, 31)
	dom := lp.NewDomain(p, 19)
	got, stats, err := Solve[lp.Halfspace, lp.Basis](dom, cons, Options{R: 2, Seed: 4, TheoryNet: true})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.DirectSolve {
		t.Logf("theory net size %d < n=%d (fine for large n)", stats.NetSize, stats.N)
	}
	want, _ := dom.Solve(cons)
	if !numeric.ApproxEqualTol(got.Sol.Value, want.Sol.Value, 1e-6) {
		t.Fatal("theory-net result mismatch")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	p, cons := sphereLP(3, 3000, 37)
	dom1 := lp.NewDomain(p, 3)
	b1, s1, err := Solve[lp.Halfspace, lp.Basis](dom1, cons, Options{R: 2, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	dom2 := lp.NewDomain(p, 3)
	b2, s2, err := Solve[lp.Halfspace, lp.Basis](dom2, cons, Options{R: 2, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if s1.Iterations != s2.Iterations || b1.Sol.Value != b2.Sol.Value {
		t.Error("equal seeds must reproduce the run exactly")
	}
}

func TestSolveMEBDomain(t *testing.T) {
	rng := numeric.NewRand(41, 41)
	var pts []meb.Point
	for i := 0; i < 8000; i++ {
		p := make(meb.Point, 3)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		pts = append(pts, p)
	}
	dom := meb.NewDomain(3)
	got, stats, err := Solve[meb.Point, meb.Basis](dom, pts, Options{R: 2, Seed: 1})
	if err != nil {
		t.Fatalf("%v (%v)", err, stats)
	}
	want, err := meb.Solve(pts)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.ApproxEqualTol(got.B.R2, want.R2, 1e-7) {
		t.Fatalf("clarkson MEB %v vs direct %v", got.B.R2, want.R2)
	}
}

func TestSolveSVMDomain(t *testing.T) {
	rng := numeric.NewRand(43, 43)
	d := 3
	w := make([]float64, d)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	nrm := numeric.Norm2(w)
	for i := range w {
		w[i] /= nrm
	}
	var exs []svm.Example
	for i := 0; i < 8000; i++ {
		x := make([]float64, d)
		for j := range x {
			x[j] = rng.NormFloat64() * 2
		}
		y := 1.0
		if rng.IntN(2) == 0 {
			y = -1
		}
		dot := numeric.Dot(w, x)
		shift := y*(0.3+rng.Float64()*2) - dot
		for j := range x {
			x[j] += shift * w[j]
		}
		exs = append(exs, svm.Example{X: x, Y: y})
	}
	dom := svm.NewDomain(d)
	got, stats, err := Solve[svm.Example, svm.Basis](dom, exs, Options{R: 2, Seed: 2})
	if err != nil {
		t.Fatalf("%v (%v)", err, stats)
	}
	want, err := svm.Solve(d, exs)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.ApproxEqualTol(got.Sol.Norm2, want.Norm2, 1e-5) {
		t.Fatalf("clarkson SVM %v vs direct %v", got.Sol.Norm2, want.Norm2)
	}
}

func TestEffectiveR(t *testing.T) {
	if (Options{R: 0}).EffectiveR(100) != 1 {
		t.Error("R=0 must clamp to 1")
	}
	if (Options{R: 100}).EffectiveR(100) != 5 {
		t.Error("R must clamp to ⌈ln n⌉ = 5 for n=100")
	}
	if (Options{R: 3}).EffectiveR(1000) != 3 {
		t.Error("R=3 must be preserved")
	}
	if (Options{R: 7}).EffectiveR(2) != 1 {
		t.Error("tiny n must clamp to 1")
	}
}

func TestNetSizeScaling(t *testing.T) {
	// The practical net size must scale as n^{1/r}: quadrupling n at
	// r=2 doubles m.
	opt := Options{NetConst: 8}
	nu, lambda := 4, 4
	m1 := netSize(1/(10*float64(nu)*math.Sqrt(10000)), lambda, 10000, nu, opt)
	m2 := netSize(1/(10*float64(nu)*math.Sqrt(40000)), lambda, 40000, nu, opt)
	ratio := m2 / m1
	if math.Abs(ratio-2) > 0.1 {
		t.Errorf("net size ratio %v, want ≈ 2", ratio)
	}
}
