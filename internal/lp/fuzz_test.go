package lp

import (
	"cmp"
	"errors"
	"math/big"
	"math/bits"
	"slices"
	"testing"

	"lowdimlp/internal/lptype"
	"lowdimlp/internal/numeric"
)

// counting records the size of each small solve of one
// lptype.SolvePivot run.
type counting struct {
	solveCall
	sizes *[]int
}

func (c counting) SolveSmall(cons []Halfspace) (Basis, error) {
	*c.sizes = append(*c.sizes, len(cons))
	return c.solveCall.SolveSmall(cons)
}

// pivotBound is the stated bound on small solves per SolvePivot run,
// ν²·⌈log₂(n+1)⌉, as for svm and meb.
func pivotBound(nu, n int) int { return nu * nu * bits.Len(uint(n)) }

// integerLP draws an LP in R^d with a small integer objective (zeros
// included, so lexicographic ties are common) and n integer rows of one
// of five shapes: free, with duplicates, all through one integer point,
// with zero normals (0 ≤ 0, 0 ≤ 1, and 0 ≤ −1 on some seeds) and
// sorted by right-hand side.
func integerLP(seed uint64, d, n int, shape uint8) (Problem, []Halfspace) {
	rng := numeric.NewRand(seed, 0x1f022)
	coord := func(k int) float64 { return float64(rng.IntN(2*k+1) - k) }
	obj, q := make([]float64, d), make([]float64, d)
	for i := range obj {
		obj[i], q[i] = coord(2), coord(2)
	}
	cons := make([]Halfspace, n)
	for k := range cons {
		a := make([]float64, d)
		for i := range a {
			a[i] = coord(3)
		}
		h := Halfspace{A: a, B: float64(rng.IntN(9) - 2)}
		switch shape % 5 {
		case 1:
			if k > 0 && rng.IntN(2) == 0 {
				h = cons[rng.IntN(k)].Clone()
			}
		case 2:
			h.B = numeric.Dot(a, q)
		case 3:
			if rng.IntN(3) == 0 {
				clear(a)
				h.B = float64(rng.IntN(2))
				if seed%7 == 0 && rng.IntN(4) == 0 {
					h.B = -1
				}
			}
		}
		cons[k] = h
	}
	if shape%5 == 4 {
		slices.SortStableFunc(cons, func(g, h Halfspace) int { return cmp.Compare(g.B, h.B) })
	}
	return NewProblem(obj), cons
}

// ratOptimum is RatSeidel's exact answer in input order, rounded to
// float64.
func ratOptimum(p Problem, cons []Halfspace) ([]float64, error) {
	obj := make([]*big.Rat, p.Dim)
	for i, c := range p.Objective {
		obj[i] = new(big.Rat).SetFloat64(c)
	}
	rcons := make([]RatHalfspace, len(cons))
	for i, h := range cons {
		rcons[i] = NewRatHalfspace(h)
	}
	x, err := RatSeidel(obj, rcons, new(big.Rat).SetFloat64(p.box()), nil)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(x))
	for i, v := range x {
		out[i], _ = v.Float64()
	}
	return out, nil
}

// FuzzSolveMatchesBruteForce solves small degenerate integer LPs: the
// answer passes lptype.Verify and is RatSeidel's exact lexicographic
// optimum within 1e-9 relative (or both report ErrInfeasible), it
// never ends in ErrCycling and it stays under pivotBound. Up to 128
// rows, so that the loop starts from a sample at d ≤ 4.
func FuzzSolveMatchesBruteForce(f *testing.F) {
	for shape := range uint8(5) {
		f.Add(uint64(shape)+1, uint8(1+shape%4), uint8(20+25*shape), shape)
	}
	f.Add(uint64(14), uint8(2), uint8(90), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, d, n, shape uint8) {
		dim, m := 1+int(d%4), 1+int(n%128)
		p, cons := integerLP(seed, dim, m, shape)
		var sizes []int
		dom := NewDomain(p, seed)
		b, err := lptype.SolvePivot[Halfspace, Basis](counting{dom.call(), &sizes}, cons)
		want, werr := ratOptimum(p, cons)
		switch {
		case errors.Is(err, lptype.ErrInfeasible) && errors.Is(werr, lptype.ErrInfeasible):
		case err != nil || werr != nil:
			t.Fatalf("d=%d n=%d shape %d: %v (ErrCycling: %v), exact: %v", dim, m, shape%5, err, errors.Is(err, lptype.ErrCycling), werr)
		case relDiff(b.Sol.X, want) > 1e-9:
			t.Fatalf("d=%d n=%d shape %d: x = %v, exact %v", dim, m, shape%5, b.Sol.X, want)
		}
		if err == nil && !b.Sol.AtBox(p.box()) {
			if i := lptype.Verify[Halfspace, Basis](dom, cons, b); i >= 0 {
				t.Fatalf("row %d %v violates the answer %v", i, cons[i], b.Sol.X)
			}
		}
		if bound := pivotBound(dim+1, m); len(sizes) > bound {
			t.Fatalf("%d small solves, bound %d", len(sizes), bound)
		}
	})
}
