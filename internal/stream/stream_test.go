package stream

import (
	"errors"
	"testing"

	"lowdimlp/internal/comm"
	"lowdimlp/internal/core"
	"lowdimlp/internal/dataset"
	"lowdimlp/internal/lp"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/meb"
	"lowdimlp/internal/numeric"
)

func sphereLP(d, n int, seed uint64) (lp.Problem, []lp.Halfspace) {
	rng := numeric.NewRand(seed, 0x5ee)
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

// solveLP runs SolveDataset over cons stored as flat rows a₁ … a_d b,
// the way the engine serves the lp kind.
func solveLP(d int, dom lptype.Domain[lp.Halfspace, lp.Basis], cons []lp.Halfspace, opt Options) (lp.Basis, Stats, error) {
	return SolveDataset(lpAccess(d, dom), lpStore(d, cons), opt)
}

func lpAccess(d int, dom lptype.Domain[lp.Halfspace, lp.Basis]) lptype.RowAccess[lp.Halfspace, lp.Basis] {
	return lptype.NewRowAccess(dom, func(row []float64) lp.Halfspace { return lp.Halfspace{A: row[:d], B: row[d]} })
}

func lpStore(d int, cons []lp.Halfspace) *dataset.Store {
	st := dataset.NewStore(d + 1)
	st.Grow(len(cons))
	row := make([]float64, 0, d+1)
	for _, h := range cons {
		st.AppendRow(append(append(row[:0], h.A...), h.B))
	}
	return st
}

func TestStreamingLPMatchesDirect(t *testing.T) {
	for _, n := range []int{300, 3000, 30000} {
		for _, r := range []int{2, 3} {
			p, cons := sphereLP(3, n, uint64(n*10+r))
			dom := lp.NewDomain(p, 7)
			got, stats, err := solveLP(3, dom, cons, Options{Core: core.Options{R: r, Seed: 5, NetConst: 0.5}})
			if err != nil {
				t.Fatalf("n=%d r=%d: %v (%v)", n, r, err, stats)
			}
			want, err := dom.Solve(cons)
			if err != nil {
				t.Fatal(err)
			}
			if !numeric.ApproxEqualTol(got.Sol.Value, want.Sol.Value, 1e-6) {
				t.Fatalf("n=%d r=%d: stream %v vs direct %v (%v)", n, r, got.Sol.Value, want.Sol.Value, stats)
			}
		}
	}
}

func TestStreamingPassBound(t *testing.T) {
	// Theorem 1: O(ν·r) passes, one pass per iteration (the dual
	// reservoirs fuse sampling with the violation test): passes =
	// iterations + 1. TestSolverMatchesTypedReference asserts the same
	// invariant over its whole matrix.
	p, cons := sphereLP(3, 50000, 77)
	dom := lp.NewDomain(p, 3)
	nu := dom.CombinatorialDim()
	for _, r := range []int{2, 3} {
		_, stats, err := solveLP(3, dom, cons, Options{Core: core.Options{R: r, Seed: 1, NetConst: 0.5}})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Passes != stats.Iterations+1 {
			t.Errorf("passes %d != iterations+1 %d", stats.Passes, stats.Iterations+1)
		}
		if stats.Passes > 3*nu*r+1 {
			t.Errorf("r=%d: %d passes exceed the O(ν·r) shape (bound %d)", r, stats.Passes, 3*nu*r+1)
		}
	}
}

// TestStreamingCountsN: the solver sizes the solve by the source's row
// count, and every pass it makes over the rows is in Passes and
// ItemsScanned.
func TestStreamingCountsN(t *testing.T) {
	p, cons := sphereLP(2, 2000, 13)
	dom := lp.NewDomain(p, 5)
	got, stats, err := solveLP(2, dom, cons, Options{Core: core.Options{R: 2, Seed: 8, NetConst: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.N != 2000 {
		t.Fatalf("n=%d, want the source's 2000 rows", stats.N)
	}
	if stats.Passes != stats.Iterations+1 || stats.ItemsScanned != int64(stats.Passes)*2000 {
		t.Fatalf("passes not accounted: %+v", stats)
	}
	want, _ := dom.Solve(cons)
	if !numeric.ApproxEqualTol(got.Sol.Value, want.Sol.Value, 1e-6) {
		t.Fatal("result mismatch")
	}
}

func TestStreamingEmpty(t *testing.T) {
	dom := lp.NewDomain(lp.Problem{Dim: 1, Objective: []float64{1}, Box: 5}, 1)
	b, stats, err := solveLP(1, dom, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.N != 0 || !numeric.ApproxEqual(b.Sol.X[0], -5) {
		t.Fatalf("empty stream: %+v %+v", b.Sol, stats)
	}
}

func TestStreamingDirectSmall(t *testing.T) {
	p, cons := sphereLP(2, 20, 21)
	dom := lp.NewDomain(p, 9)
	_, stats, err := solveLP(2, dom, cons, Options{Core: core.Options{R: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.DirectSolve || stats.Passes != 1 {
		t.Fatalf("small n must take one direct pass: %+v", stats)
	}
}

func TestStreamingInfeasible(t *testing.T) {
	var cons []lp.Halfspace
	for i := 0; i < 5000; i++ {
		cons = append(cons, lp.Halfspace{A: []float64{-1}, B: -5}, lp.Halfspace{A: []float64{1}, B: 3})
	}
	dom := lp.NewDomain(lp.NewProblem([]float64{1}), 3)
	_, _, err := solveLP(1, dom, cons, Options{Core: core.Options{R: 2, Seed: 5}})
	if !errors.Is(err, lptype.ErrInfeasible) {
		t.Fatalf("expected ErrInfeasible, got %v", err)
	}
}

func TestStreamingSpaceAccounting(t *testing.T) {
	p, cons := sphereLP(3, 40000, 31)
	dom := lp.NewDomain(p, 13)
	hc := comm.RowCodec[lp.Halfspace]{Width: 3 + 1} // Bits needs no views
	bc := lp.BasisCodec{Dim: 3}
	_, stats, err := solveLP(3, dom, cons, Options{
		Core:         core.Options{R: 3, Seed: 2, NetConst: 0.5},
		BitsPerItem:  hc.Bits(lp.Halfspace{}),
		BitsPerBasis: bc.Bits(lp.Basis{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PeakSpaceBits == 0 {
		t.Fatal("space accounting must be active")
	}
	// Peak space ≈ 2m·bit(C) + bases·bit(B) — far below n·bit(C).
	fullBits := int64(stats.N) * int64(hc.Bits(lp.Halfspace{}))
	if stats.PeakSpaceBits >= fullBits {
		t.Errorf("peak space %d not sublinear (full input %d)", stats.PeakSpaceBits, fullBits)
	}
}

func TestStreamingSpaceScalesWithR(t *testing.T) {
	// Larger r ⇒ smaller n^{1/r} ⇒ smaller nets.
	p, cons := sphereLP(2, 100000, 41)
	dom := lp.NewDomain(p, 17)
	var sizes []int
	for _, r := range []int{2, 3, 4} {
		_, stats, err := solveLP(2, dom, cons, Options{Core: core.Options{R: r, Seed: 6, NetConst: 0.5}})
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, stats.NetSize)
	}
	if !(sizes[0] > sizes[1] && sizes[1] > sizes[2]) {
		t.Errorf("net sizes %v must decrease with r", sizes)
	}
}

func TestStreamingFuncStreamLargeMEB(t *testing.T) {
	// A generated (never materialized) source of 200k points.
	if testing.Short() {
		t.Skip("large stream")
	}
	n := 200000
	fill := func(p []float64, i int) {
		rng := numeric.NewRand(0xabc, uint64(i))
		for j := range p {
			p[j] = rng.NormFloat64()
		}
	}
	src := &genSource{n: n, width: 2, fill: fill}
	got, stats, err := SolveDataset(mebAccess(2), src, Options{Core: core.Options{R: 3, Seed: 4, NetConst: 0.5}})
	if err != nil {
		t.Fatalf("%v (%v)", err, stats)
	}
	// Verify against a direct solve of the same generated set.
	pts := make([]meb.Point, n)
	for i := range pts {
		pts[i] = make(meb.Point, 2)
		fill(pts[i], i)
	}
	want, err := meb.Solve(pts)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.ApproxEqualTol(got.B.R2, want.R2, 1e-6) {
		t.Fatalf("stream MEB %v vs direct %v", got.B.R2, want.R2)
	}
}
