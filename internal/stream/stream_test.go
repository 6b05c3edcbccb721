package stream

import (
	"errors"
	"testing"

	"lowdimlp/internal/core"
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

// solveLP and solveMEB run the typed entry point the way the engine
// does for the kind: a row-access layer over the domain, plus the
// kind's row layout as the encoder.
func solveLP(d int, dom *lp.Domain, st Stream[lp.Halfspace], n int, opt Options) (lp.Basis, Stats, error) {
	ra := lptype.NewRowAccess[lp.Halfspace, lp.Basis](dom,
		func(row []float64) lp.Halfspace { return lp.Halfspace{A: row[:d], B: row[d]} })
	return Solve(ra, st, n, d+1, func(dst []float64, _ int, h lp.Halfspace) ([]float64, error) {
		return append(append(dst, h.A...), h.B), nil
	}, opt)
}

func mebRow(dst []float64, _ int, p meb.Point) ([]float64, error) { return append(dst, p...), nil }

func solveMEB(d int, st Stream[meb.Point], n int, opt Options) (meb.Basis, Stats, error) {
	return Solve(mebAccess(d), st, n, d, mebRow, opt)
}

func TestStreamAdapters(t *testing.T) {
	s := NewSliceStream([]int{1, 2, 3})
	var got []int
	for {
		v, ok := s.Next()
		if !ok {
			break
		}
		got = append(got, v)
	}
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("slice stream read %v", got)
	}
	s.Reset()
	if v, ok := s.Next(); !ok || v != 1 {
		t.Fatal("Reset must rewind")
	}
	f := NewFuncStream(4, func(i int) int { return i * i })
	sum := 0
	for {
		v, ok := f.Next()
		if !ok {
			break
		}
		sum += v
	}
	if sum != 0+1+4+9 {
		t.Fatalf("func stream sum %d", sum)
	}
	f.Reset()
	if v, _ := f.Next(); v != 0 {
		t.Fatal("func stream Reset")
	}
}

func TestStreamingLPMatchesDirect(t *testing.T) {
	for _, n := range []int{300, 3000, 30000} {
		for _, r := range []int{2, 3} {
			p, cons := sphereLP(3, n, uint64(n*10+r))
			dom := lp.NewDomain(p, 7)
			st := NewSliceStream(cons)
			got, stats, err := solveLP(3, dom, st, n, Options{Core: core.Options{R: r, Seed: 5, NetConst: 0.5}})
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
		st := NewSliceStream(cons)
		_, stats, err := solveLP(3, dom, st, len(cons), Options{Core: core.Options{R: r, Seed: 1, NetConst: 0.5}})
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

func TestStreamingCountsN(t *testing.T) {
	p, cons := sphereLP(2, 2000, 13)
	dom := lp.NewDomain(p, 5)
	st := NewSliceStream(cons)
	// n ≤ 0: the solver must count with one extra pass.
	got, stats, err := solveLP(2, dom, st, 0, Options{Core: core.Options{R: 2, Seed: 8, NetConst: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.N != 2000 {
		t.Fatalf("counted n=%d", stats.N)
	}
	// The counting pass is a pass: it is in Passes and ItemsScanned.
	if stats.Passes != stats.Iterations+2 || stats.ItemsScanned != int64(stats.Passes)*2000 {
		t.Fatalf("counting pass not accounted: %+v", stats)
	}
	want, _ := dom.Solve(cons)
	if !numeric.ApproxEqualTol(got.Sol.Value, want.Sol.Value, 1e-6) {
		t.Fatal("result mismatch after counting pass")
	}
}

func TestStreamingEmpty(t *testing.T) {
	dom := lp.NewDomain(lp.Problem{Dim: 1, Objective: []float64{1}, Box: 5}, 1)
	st := NewSliceStream[lp.Halfspace](nil)
	b, stats, err := solveLP(1, dom, st, 0, Options{})
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
	st := NewSliceStream(cons)
	_, stats, err := solveLP(2, dom, st, 20, Options{Core: core.Options{R: 3}})
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
	st := NewSliceStream(cons)
	_, _, err := solveLP(1, dom, st, len(cons), Options{Core: core.Options{R: 2, Seed: 5}})
	if !errors.Is(err, lptype.ErrInfeasible) {
		t.Fatalf("expected ErrInfeasible, got %v", err)
	}
}

func TestStreamingSpaceAccounting(t *testing.T) {
	p, cons := sphereLP(3, 40000, 31)
	dom := lp.NewDomain(p, 13)
	hc := lp.HalfspaceCodec{Dim: 3}
	bc := lp.BasisCodec{Dim: 3}
	st := NewSliceStream(cons)
	_, stats, err := solveLP(3, dom, st, len(cons), Options{
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
		st := NewSliceStream(cons)
		_, stats, err := solveLP(2, dom, st, len(cons), Options{Core: core.Options{R: r, Seed: 6, NetConst: 0.5}})
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
	// A generated (never materialized) stream of 200k points.
	if testing.Short() {
		t.Skip("large stream")
	}
	n := 200000
	gen := func(i int) meb.Point {
		rng := numeric.NewRand(0xabc, uint64(i))
		p := make(meb.Point, 2)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		return p
	}
	st := NewFuncStream(n, gen)
	got, stats, err := solveMEB(2, st, n, Options{Core: core.Options{R: 3, Seed: 4, NetConst: 0.5}})
	if err != nil {
		t.Fatalf("%v (%v)", err, stats)
	}
	// Verify against a direct solve of the same generated set.
	pts := make([]meb.Point, n)
	for i := range pts {
		pts[i] = gen(i)
	}
	want, err := meb.Solve(pts)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.ApproxEqualTol(got.B.R2, want.R2, 1e-6) {
		t.Fatalf("stream MEB %v vs direct %v", got.B.R2, want.R2)
	}
}
