package svm

import (
	"errors"
	"math"
	"testing"

	"lowdimlp/internal/linalg"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/numeric"
)

func ex(y float64, xs ...float64) Example { return Example{X: xs, Y: y} }

// equalitySolve solves min ‖u‖² s.t. y_j⟨u,x_j⟩ = 1 for j ∈ w via the
// Gram KKT system K·λ = 1, u = Σ λ_j y_j x_j. Test oracle only.
func equalitySolve(dim int, examples []Example, w []int) (lambda []float64, u []float64, err error) {
	u = make([]float64, dim)
	if len(w) == 0 {
		return nil, u, nil
	}
	k := len(w)
	g := linalg.NewMatrix(k, k)
	rhs := make([]float64, k)
	for a := 0; a < k; a++ {
		ea := examples[w[a]]
		for b := 0; b < k; b++ {
			eb := examples[w[b]]
			g.Set(a, b, ea.Y*eb.Y*numeric.Dot(ea.X, eb.X))
		}
		rhs[a] = 1
	}
	lambda, err = linalg.Solve(g, rhs)
	if err != nil {
		return nil, nil, err
	}
	for j, l := range lambda {
		e := examples[w[j]]
		for i := range u {
			u[i] += l * e.Y * e.X[i]
		}
	}
	return lambda, u, nil
}

// separableCloud plants a unit normal w* and margin, then samples
// points on both sides. The resulting set is separable by construction.
func separableCloud(d, n int, margin float64, seed uint64) []Example {
	rng := numeric.NewRand(seed, 0x53564d)
	w := make([]float64, d)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	nrm := numeric.Norm2(w)
	for i := range w {
		w[i] /= nrm
	}
	out := make([]Example, n)
	for i := range out {
		x := make([]float64, d)
		for j := range x {
			x[j] = rng.NormFloat64() * 3
		}
		y := 1.0
		if rng.IntN(2) == 0 {
			y = -1
		}
		// Project to the correct side at distance ≥ margin.
		dot := numeric.Dot(w, x)
		shift := y*(margin+rng.Float64()*3) - dot
		for j := range x {
			x[j] += shift * w[j]
		}
		out[i] = Example{X: x, Y: y}
	}
	return out
}

// bruteForceSVM enumerates candidate support sets of size ≤ d+1, solves
// the equality QP on each, and returns the minimum-norm u that is
// feasible with nonnegative multipliers (KKT ⇒ global optimum of the
// convex QP). Exponential; tiny inputs only.
func bruteForceSVM(t *testing.T, dim int, examples []Example) (Solution, bool) {
	t.Helper()
	best := Solution{Norm2: math.Inf(1)}
	found := false
	n := len(examples)
	var idx []int
	var rec func(start int)
	check := func() {
		lambda, u, err := equalitySolve(dim, examples, idx)
		if err != nil {
			return
		}
		for _, l := range lambda {
			if l < -1e-9 {
				return
			}
		}
		for _, e := range examples {
			if !e.Satisfied(u) {
				return
			}
		}
		if n2 := numeric.Dot(u, u); n2 < best.Norm2 {
			best = Solution{U: u, Norm2: n2}
			found = true
		}
	}
	rec = func(start int) {
		check()
		if len(idx) == dim+1 {
			return
		}
		for i := start; i < n; i++ {
			idx = append(idx, i)
			rec(i + 1)
			idx = idx[:len(idx)-1]
		}
	}
	rec(0)
	return best, found
}

func TestSolveTwoPoints(t *testing.T) {
	// +1 at (1,0), -1 at (-1,0): u = (1,0), margin 1.
	sol, err := Solve(2, []Example{ex(1, 1, 0), ex(-1, -1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.ApproxEqual(sol.U[0], 1) || math.Abs(sol.U[1]) > 1e-9 {
		t.Fatalf("u = %v, want (1, 0)", sol.U)
	}
	if !numeric.ApproxEqual(sol.Norm2, 1) {
		t.Fatalf("‖u‖² = %v, want 1", sol.Norm2)
	}
}

func TestSolveAsymmetric(t *testing.T) {
	// +1 at x=3, -1 at x=1 (1-D): separating u with y·u·x ≥ 1 needs
	// u·3 ≥ 1 and -u·1 ≥ 1 — impossible with one variable? u ≤ -1 and
	// u ≥ 1/3: infeasible. (No bias term in model (6).)
	_, err := Solve(1, []Example{ex(1, 3), ex(-1, 1)})
	if !errors.Is(err, ErrNotSeparable) {
		t.Fatalf("expected ErrNotSeparable (no bias term), got %v", err)
	}
	// Same-side labels consistent with a homogeneous separator.
	sol, err := Solve(1, []Example{ex(1, 3), ex(-1, -1)})
	if err != nil {
		t.Fatal(err)
	}
	// Constraints: 3u ≥ 1, u ≥ 1 ⇒ u = 1.
	if !numeric.ApproxEqual(sol.U[0], 1) {
		t.Fatalf("u = %v, want 1", sol.U)
	}
}

func TestSolveEmptyAndSingle(t *testing.T) {
	sol, err := Solve(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Norm2 != 0 {
		t.Fatal("f(∅) must be the zero vector")
	}
	sol, err = Solve(2, []Example{ex(1, 2, 0)})
	if err != nil {
		t.Fatal(err)
	}
	// min ‖u‖² s.t. 2u₁ ≥ 1: u = (1/2, 0).
	if !numeric.ApproxEqual(sol.U[0], 0.5) || math.Abs(sol.U[1]) > 1e-9 {
		t.Fatalf("u = %v, want (0.5, 0)", sol.U)
	}
}

func TestSolveNotSeparable(t *testing.T) {
	// Identical point with opposite labels.
	_, err := Solve(2, []Example{ex(1, 1, 1), ex(-1, 1, 1)})
	if !errors.Is(err, ErrNotSeparable) {
		t.Fatalf("expected ErrNotSeparable, got %v", err)
	}
}

func TestSolveMatchesBruteForce(t *testing.T) {
	for d := 1; d <= 3; d++ {
		for trial := 0; trial < 20; trial++ {
			exs := separableCloud(d, 8, 0.5, uint64(100*d+trial))
			got, err := Solve(d, exs)
			if err != nil {
				t.Fatalf("d=%d trial=%d: %v", d, trial, err)
			}
			want, found := bruteForceSVM(t, d, exs)
			if !found {
				t.Fatalf("d=%d trial=%d: brute force found no KKT point", d, trial)
			}
			if !numeric.ApproxEqualTol(got.Norm2, want.Norm2, 1e-6) {
				t.Fatalf("d=%d trial=%d: ‖u‖² %v vs brute force %v", d, trial, got.Norm2, want.Norm2)
			}
		}
	}
}

func TestSolveFeasibilityAndKKT(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		exs := separableCloud(4, 500, 0.2, uint64(trial))
		sol, err := Solve(4, exs)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range exs {
			if !e.Satisfied(sol.U) {
				t.Fatalf("trial %d: example %d violated, margin %v", trial, i, e.Margin(sol.U))
			}
		}
		// u must be a nonnegative combination of support vectors
		// (verified implicitly by re-solving on the support set).
		b, err := NewDomain(4).Solve(exs)
		if err != nil {
			t.Fatal(err)
		}
		support := b.Support
		if len(support) == 0 || len(support) > 4 {
			t.Fatalf("trial %d: %d support vectors", trial, len(support))
		}
		again, err := Solve(4, support)
		if err != nil {
			t.Fatal(err)
		}
		if !numeric.ApproxEqualTol(again.Norm2, sol.Norm2, 1e-6) {
			t.Fatalf("trial %d: support set does not reproduce the optimum (%v vs %v)", trial, again.Norm2, sol.Norm2)
		}
	}
}

func TestMarginGeometry(t *testing.T) {
	// Planted margin m ⇒ optimal ‖u‖ ≤ 1/m (the planted separator
	// scaled by 1/m is feasible).
	exs := separableCloud(3, 300, 1.0, 77)
	sol, err := Solve(3, exs)
	if err != nil {
		t.Fatal(err)
	}
	if norm := math.Sqrt(sol.Norm2); norm > 1+1e-6 {
		t.Fatalf("‖u‖ = %v exceeds 1/margin = 1", norm)
	}
}

func TestDomainContract(t *testing.T) {
	dom := NewDomain(3)
	// λ = d exactly (fixed-offset halfspaces after the label fold —
	// see Domain.VCDim), one below the combinatorial dimension ν = d+1.
	if dom.CombinatorialDim() != 4 || dom.VCDim() != 3 {
		t.Fatal("dimension bounds")
	}
	exs := separableCloud(3, 200, 0.3, 5)
	b, err := dom.Solve(exs)
	if err != nil {
		t.Fatal(err)
	}
	if i := lptype.Verify[Example, Basis](dom, exs, b); i >= 0 {
		t.Fatalf("example %d violates the basis of its own set", i)
	}
	// f(∅) = 0 is violated by every example.
	be, err := dom.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !dom.Violates(be, exs[0]) {
		t.Error("every example must violate f(∅)")
	}
}

func TestGenericSolversAgree(t *testing.T) {
	dom := NewDomain(2)
	exs := separableCloud(2, 7, 0.5, 13)
	bf, err := lptype.BruteForce[Example, Basis](dom, exs)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Solve(2, exs)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.ApproxEqualTol(bf.Sol.Norm2, direct.Norm2, 1e-6) {
		t.Fatalf("generic brute force %v vs direct %v", bf.Sol.Norm2, direct.Norm2)
	}
	big := separableCloud(2, 300, 0.4, 17)
	pv, err := lptype.SolvePivot[Example, Basis](dom, big)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := wolfeRef(2, big)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.ApproxEqualTol(pv.Sol.Norm2, ref.Norm2, 1e-6) {
		t.Fatalf("pivot loop %v vs Wolfe %v", pv.Sol.Norm2, ref.Norm2)
	}
}

func TestSolveDuplicateExamples(t *testing.T) {
	// Duplicated examples (singular Gram systems inside the solver)
	// must still be handled.
	exs := []Example{ex(1, 1, 0), ex(1, 1, 0), ex(1, 1, 0)}
	sol, err := Solve(2, exs)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.ApproxEqual(sol.U[0], 1) || math.Abs(sol.U[1]) > 1e-9 {
		t.Fatalf("u = %v, want (1, 0)", sol.U)
	}
}

func TestCodecRoundtrips(t *testing.T) {
	bc := BasisCodec{Dim: 2}
	b := Basis{Sol: Solution{U: []float64{1, 2}, Norm2: 5}}
	buf := bc.Append(nil, b)
	b2, _, err := bc.Decode(buf)
	if err != nil || b2.Sol.Norm2 != 5 || b2.Sol.U[1] != 2 {
		t.Fatalf("basis roundtrip: %v %v", b2, err)
	}
}
