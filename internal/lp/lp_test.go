package lp

import (
	"errors"
	"math"
	"testing"

	"lowdimlp/internal/lptype"
	"lowdimlp/internal/numeric"
)

// --- helpers ---------------------------------------------------------

func hs(b float64, a ...float64) Halfspace { return Halfspace{A: a, B: b} }

// randomFeasibleLP generates an LP whose constraints are tangent to the
// unit sphere (so the feasible region contains the origin and the
// optimum is bounded with high probability): a_i random unit vector,
// b_i = 1.
func randomFeasibleLP(d, n int, seed uint64) (Problem, []Halfspace) {
	rng := numeric.NewRand(seed, 0xfeed)
	obj := make([]float64, d)
	for i := range obj {
		obj[i] = rng.NormFloat64()
	}
	p := NewProblem(obj)
	cons := make([]Halfspace, n)
	for i := range cons {
		a := make([]float64, d)
		for j := range a {
			a[j] = rng.NormFloat64()
		}
		nrm := numeric.Norm2(a)
		for j := range a {
			a[j] /= nrm
		}
		// A·x ≤ 1 keeps the unit ball feasible; flip to face the origin.
		cons[i] = Halfspace{A: a, B: 1}
	}
	return p, cons
}

// --- Seidel basic behaviour ------------------------------------------

func TestSeidel1D(t *testing.T) {
	p := NewProblem([]float64{1}) // minimize x
	cons := []Halfspace{
		hs(-3, -1), // -x ≤ -3  ⇔  x ≥ 3
		hs(10, 1),  // x ≤ 10
	}
	sol, err := Seidel(p, cons, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.ApproxEqual(sol.X[0], 3) {
		t.Errorf("x = %v, want 3", sol.X[0])
	}
	if !numeric.ApproxEqual(sol.Value, 3) {
		t.Errorf("value = %v, want 3", sol.Value)
	}
}

func TestSeidel2DCorner(t *testing.T) {
	// minimize x+y subject to x ≥ 1, y ≥ 2: optimum (1, 2).
	p := NewProblem([]float64{1, 1})
	cons := []Halfspace{
		hs(-1, -1, 0),
		hs(-2, 0, -1),
	}
	sol, err := Seidel(p, cons, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.ApproxEqual(sol.X[0], 1) || !numeric.ApproxEqual(sol.X[1], 2) {
		t.Errorf("x = %v, want (1, 2)", sol.X)
	}
}

func TestSeidelInfeasible(t *testing.T) {
	p := NewProblem([]float64{1})
	cons := []Halfspace{
		hs(-5, -1), // x ≥ 5
		hs(3, 1),   // x ≤ 3
	}
	_, err := Seidel(p, cons, nil)
	if !errors.Is(err, lptype.ErrInfeasible) {
		t.Errorf("expected ErrInfeasible, got %v", err)
	}
}

func TestSeidelInfeasible3D(t *testing.T) {
	p := NewProblem([]float64{1, 1, 1})
	cons := []Halfspace{
		hs(-1, -1, 0, 0), // x ≥ 1
		hs(-1, 0, -1, 0), // y ≥ 1
		hs(-1, 0, 0, -1), // z ≥ 1
		hs(2, 1, 1, 1),   // x+y+z ≤ 2 < 3: empty
	}
	rng := numeric.NewRand(1, 1)
	for trial := 0; trial < 20; trial++ { // any shuffle must detect it
		_, err := Seidel(p, cons, rng)
		if !errors.Is(err, lptype.ErrInfeasible) {
			t.Fatalf("trial %d: expected ErrInfeasible, got %v", trial, err)
		}
	}
}

func TestSeidelEmptyConstraints(t *testing.T) {
	// f(∅): objective-optimal box corner.
	p := Problem{Dim: 2, Objective: []float64{1, -1}, Box: 100}
	sol, err := Seidel(p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.ApproxEqual(sol.X[0], -100) || !numeric.ApproxEqual(sol.X[1], 100) {
		t.Errorf("corner = %v, want (-100, 100)", sol.X)
	}
	if !sol.AtBox(100) {
		t.Error("corner solution must report AtBox")
	}
}

func TestSeidelLexicographicTieBreak(t *testing.T) {
	// minimize y over the square [1,2]×[1,2]: every (x, 1) is optimal;
	// the LP-type formulation demands the lexicographically smallest,
	// i.e. (1, 1).
	p := NewProblem([]float64{0, 1})
	cons := []Halfspace{
		hs(-1, -1, 0), // x ≥ 1
		hs(2, 1, 0),   // x ≤ 2
		hs(-1, 0, -1), // y ≥ 1
		hs(2, 0, 1),   // y ≤ 2
	}
	rng := numeric.NewRand(3, 3)
	for trial := 0; trial < 50; trial++ {
		sol, err := Seidel(p, cons, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !numeric.ApproxEqual(sol.X[0], 1) || !numeric.ApproxEqual(sol.X[1], 1) {
			t.Fatalf("trial %d: x = %v, want (1, 1)", trial, sol.X)
		}
	}
}

func TestSeidelLexTieBreak3D(t *testing.T) {
	// minimize 0 (pure feasibility) over a box: lex-min corner wanted.
	p := NewProblem([]float64{0, 0, 0})
	cons := []Halfspace{
		hs(5, 1, 0, 0), hs(-2, -1, 0, 0), // 2 ≤ x ≤ 5
		hs(7, 0, 1, 0), hs(-3, 0, -1, 0), // 3 ≤ y ≤ 7
		hs(9, 0, 0, 1), hs(-4, 0, 0, -1), // 4 ≤ z ≤ 9
	}
	rng := numeric.NewRand(4, 4)
	for trial := 0; trial < 30; trial++ {
		sol, err := Seidel(p, cons, rng)
		if err != nil {
			t.Fatal(err)
		}
		want := []float64{2, 3, 4}
		for i := range want {
			if !numeric.ApproxEqual(sol.X[i], want[i]) {
				t.Fatalf("trial %d: x = %v, want %v", trial, sol.X, want)
			}
		}
	}
}

func TestSeidelShuffleInvariance(t *testing.T) {
	// The optimum must not depend on the processing order.
	p, cons := randomFeasibleLP(3, 60, 11)
	ref, err := Seidel(p, cons, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := numeric.NewRand(5, 5)
	for trial := 0; trial < 25; trial++ {
		sol, err := Seidel(p, cons, rng)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.X {
			if !numeric.ApproxEqualTol(sol.X[i], ref.X[i], 1e-6) {
				t.Fatalf("trial %d: x = %v, want %v", trial, sol.X, ref.X)
			}
		}
	}
}

func TestSeidelRedundantAndDuplicateConstraints(t *testing.T) {
	p := NewProblem([]float64{1, 1})
	base := []Halfspace{
		hs(-1, -1, 0),
		hs(-2, 0, -1),
	}
	cons := append([]Halfspace{}, base...)
	// Duplicates and dominated copies must not change the optimum.
	cons = append(cons, base[0].Clone(), base[1].Clone(), hs(100, 1, 0), hs(0, -1, 0))
	sol, err := Seidel(p, cons, numeric.NewRand(6, 6))
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.ApproxEqual(sol.X[0], 1) || !numeric.ApproxEqual(sol.X[1], 2) {
		t.Errorf("x = %v, want (1, 2)", sol.X)
	}
}

func TestSeidelZeroNormalConstraints(t *testing.T) {
	p := NewProblem([]float64{1})
	ok := hs(1, 0)   // 0 ≤ 1: vacuous
	bad := hs(-1, 0) // 0 ≤ -1: contradiction
	if _, err := Seidel(p, []Halfspace{ok, hs(-3, -1)}, nil); err != nil {
		t.Errorf("vacuous zero constraint should be ignored: %v", err)
	}
	if _, err := Seidel(p, []Halfspace{bad}, nil); !errors.Is(err, lptype.ErrInfeasible) {
		t.Errorf("contradictory zero constraint: got %v", err)
	}
}

// --- Differential testing: Seidel vs simplex --------------------------

func TestSeidelVsSimplexRandom(t *testing.T) {
	for d := 1; d <= 5; d++ {
		for trial := 0; trial < 30; trial++ {
			p, cons := randomFeasibleLP(d, 8+5*trial, uint64(1000*d+trial))
			ssol, serr := Seidel(p, cons, numeric.NewRand(uint64(trial), 9))
			xval, xerr := SimplexValue(p, cons)
			if errors.Is(xerr, lptype.ErrUnbounded) {
				// With few constraints the LP can be genuinely
				// unbounded; boxed Seidel must then sit on the box.
				if serr != nil || !ssol.AtBox(p.box()) {
					t.Fatalf("d=%d trial=%d: simplex unbounded but seidel = %v (err %v)", d, trial, ssol.X, serr)
				}
				continue
			}
			if serr != nil || xerr != nil {
				// The sphere-tangent family is feasible by construction
				// (the origin satisfies every constraint); remaining
				// failures here are real bugs.
				t.Fatalf("d=%d trial=%d: seidel err %v, simplex err %v", d, trial, serr, xerr)
			}
			if !numeric.ApproxEqualTol(ssol.Value, xval, 1e-6) {
				t.Fatalf("d=%d trial=%d: seidel %.12f vs simplex %.12f", d, trial, ssol.Value, xval)
			}
		}
	}
}

func TestSimplexInfeasible(t *testing.T) {
	p := NewProblem([]float64{1})
	cons := []Halfspace{hs(-5, -1), hs(3, 1)}
	if _, err := SimplexValue(p, cons); !errors.Is(err, lptype.ErrInfeasible) {
		t.Errorf("expected ErrInfeasible, got %v", err)
	}
}

func TestSimplexUnbounded(t *testing.T) {
	p := NewProblem([]float64{1}) // minimize x, only bounded above
	cons := []Halfspace{hs(3, 1)}
	if _, err := SimplexValue(p, cons); !errors.Is(err, lptype.ErrUnbounded) {
		t.Errorf("expected ErrUnbounded, got %v", err)
	}
}

func TestSimplexKnownValue(t *testing.T) {
	// Classic: min -x-y s.t. x+2y ≤ 4, 3x+y ≤ 6, x,y implicitly free
	// but optimum interior-bounded. Optimum at intersection: x=1.6, y=1.2.
	p := NewProblem([]float64{-1, -1})
	cons := []Halfspace{
		hs(4, 1, 2),
		hs(6, 3, 1),
		hs(0, -1, 0), // x ≥ 0
		hs(0, 0, -1), // y ≥ 0
	}
	v, err := SimplexValue(p, cons)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.ApproxEqual(v, -2.8) {
		t.Errorf("value = %v, want -2.8", v)
	}
	sol, err := Seidel(p, cons, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.ApproxEqual(sol.X[0], 1.6) || !numeric.ApproxEqual(sol.X[1], 1.2) {
		t.Errorf("seidel x = %v, want (1.6, 1.2)", sol.X)
	}
}

// --- Domain contract ---------------------------------------------------

func TestDomainContract(t *testing.T) {
	p, cons := randomFeasibleLP(3, 100, 21)
	dom := NewDomain(p, 77)
	if dom.CombinatorialDim() != 4 || dom.VCDim() != 4 {
		t.Errorf("dims = %d, %d, want 4, 4", dom.CombinatorialDim(), dom.VCDim())
	}
	b, err := dom.Solve(cons)
	if err != nil {
		t.Fatal(err)
	}
	// No constraint of the solved set may violate its own basis.
	if i := lptype.Verify[Halfspace, Basis](dom, cons, b); i >= 0 {
		t.Fatalf("constraint %d violates the basis of its own set", i)
	}
	// The tight set must determine the same solution.
	tight := dom.Basis(b)
	if len(tight) == 0 {
		t.Fatal("expected a non-empty tight set at a sphere-tangent optimum")
	}
	b2, err := dom.Solve(tight)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b.Sol.X {
		if !numeric.ApproxEqualTol(b.Sol.X[i], b2.Sol.X[i], 1e-6) {
			t.Fatalf("tight set does not reproduce the optimum: %v vs %v", b.Sol.X, b2.Sol.X)
		}
	}
}

func TestDomainEmptySolve(t *testing.T) {
	dom := NewDomain(Problem{Dim: 2, Objective: []float64{1, 0}, Box: 10}, 1)
	b, err := dom.Solve(nil)
	if err != nil {
		t.Fatalf("Solve(∅) must succeed: %v", err)
	}
	if !numeric.ApproxEqual(b.Sol.X[0], -10) {
		t.Errorf("f(∅) corner = %v", b.Sol.X)
	}
}

func TestDomainViolates(t *testing.T) {
	dom := NewDomain(NewProblem([]float64{1, 1}), 1)
	b := Basis{Sol: Solution{X: []float64{0, 0}}}
	if dom.Violates(b, hs(1, 1, 1)) {
		t.Error("(0,0) satisfies x+y ≤ 1")
	}
	if !dom.Violates(b, hs(-1, 1, 1)) {
		t.Error("(0,0) violates x+y ≤ -1")
	}
}

// --- Generic solvers against the LP domain ----------------------------

func TestBruteForceMatchesSeidel(t *testing.T) {
	for trial := 0; trial < 15; trial++ {
		p, cons := randomFeasibleLP(2, 7, uint64(300+trial))
		dom := NewDomain(p, uint64(trial))
		bf, err := lptype.BruteForce[Halfspace, Basis](dom, cons)
		if err != nil {
			t.Fatal(err)
		}
		sd, err := dom.Solve(cons)
		if err != nil {
			t.Fatal(err)
		}
		if !numeric.ApproxEqualTol(bf.Sol.Value, sd.Sol.Value, 1e-6) {
			t.Fatalf("trial %d: brute force %v vs seidel %v", trial, bf.Sol.Value, sd.Sol.Value)
		}
	}
}

// TestSolvePivotMatchesSeidel: Domain.Solve, the pivot loop over
// Seidel, reaches the value of one Seidel run over every constraint.
func TestSolvePivotMatchesSeidel(t *testing.T) {
	for trial := 0; trial < 15; trial++ {
		p, cons := randomFeasibleLP(3, 200, uint64(400+trial))
		dom := NewDomain(p, uint64(trial))
		pv, err := dom.Solve(cons)
		if err != nil {
			t.Fatal(err)
		}
		sd, err := Seidel(p, cons, numeric.NewRand(uint64(trial), 1))
		if err != nil {
			t.Fatal(err)
		}
		if !numeric.ApproxEqualTol(pv.Sol.Value, sd.Value, 1e-6) {
			t.Fatalf("trial %d: pivot %v vs seidel %v", trial, pv.Sol.Value, sd.Value)
		}
	}
}

// --- Codec roundtrips --------------------------------------------------

func TestBasisCodecRoundtrip(t *testing.T) {
	c := BasisCodec{Dim: 2}
	b := Basis{Sol: Solution{X: []float64{1.5, -2.25}, Value: 7}}
	buf := c.Append(nil, b)
	b2, n, err := c.Decode(buf)
	if err != nil || n != len(buf) {
		t.Fatalf("decode: %v", err)
	}
	if b2.Sol.Value != 7 || b2.Sol.X[0] != 1.5 || b2.Sol.X[1] != -2.25 {
		t.Fatalf("roundtrip mismatch: %+v", b2)
	}
	if _, _, err := c.Decode(buf[:3]); !errors.Is(err, ErrShortBuffer) {
		t.Error("expected ErrShortBuffer")
	}
}

// --- Degenerate / stress ------------------------------------------------

func TestSeidelHighlyDegenerate(t *testing.T) {
	// Many constraints through one point: minimize x+y with k
	// halfplanes all tight at the origin.
	p := NewProblem([]float64{1, 1})
	var cons []Halfspace
	for i := 0; i < 24; i++ {
		th := float64(i) / 24 * math.Pi // normals in the upper halfplane
		a := []float64{-math.Cos(th), -math.Sin(th)}
		cons = append(cons, Halfspace{A: a, B: 0}) // a·x ≤ 0, tight at 0
	}
	// Bound the region so the optimum is the origin.
	cons = append(cons, hs(10, 1, 0), hs(10, 0, 1))
	sol, err := Seidel(p, cons, numeric.NewRand(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.X[0]) > 1e-6 || math.Abs(sol.X[1]) > 1e-6 {
		t.Errorf("x = %v, want ≈(0,0)", sol.X)
	}
}

func TestSeidelLargeRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("large randomized test")
	}
	p, cons := randomFeasibleLP(4, 20000, 99)
	sol, err := Seidel(p, cons, numeric.NewRand(9, 9))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range cons {
		if !h.Satisfied(sol.X) {
			t.Fatal("optimum violates a constraint")
		}
	}
	// Optimum of tangent constraints lies on the unit sphere boundary
	// region: ‖x‖ ≥ 1 is impossible... the feasible region contains the
	// unit ball, so the optimum satisfies Objective·x ≤ min over ball.
	ballVal := -numeric.Norm2(p.Objective)
	if sol.Value > ballVal+1e-6 {
		t.Errorf("optimum %v worse than ball bound %v", sol.Value, ballVal)
	}
}
