package svm

import (
	"errors"
	"math/bits"
	"slices"
	"testing"

	"lowdimlp/internal/lptype"
	"lowdimlp/internal/numeric"
)

// counting counts the small solves of one lptype.SolvePivot run.
type counting struct {
	*Domain
	calls *int
}

func (c counting) SolveSmall(exs []Example) (Basis, error) {
	*c.calls++
	return c.Domain.SolveSmall(exs)
}

// pivotBound is the stated bound on small solves per SolvePivot run,
// ν²·⌈log₂(n+1)⌉: about twice the most any separable cloud needs at
// d ≤ 16, n ≤ 100 000, in generator, reversed or sorted order.
func pivotBound(nu, n int) int { return nu * nu * bits.Len(uint(n)) }

// solveCounted runs SolvePivot on exs and returns its basis, error and
// number of small solves.
func solveCounted(d int, exs []Example) (Basis, error, int) {
	calls := 0
	b, err := lptype.SolvePivot[Example, Basis](counting{NewDomain(d), &calls}, exs)
	return b, err, calls
}

// integerExamples draws n integer-coordinate examples in R^d of one of
// five shapes: free, with duplicates, collinear, co-spherical (integer
// points of the sphere of radius 3, shifted) and sorted by first
// coordinate. Odd seeds label by a planted integer normal (dropping its
// zeros to label +1), so the set is separable; even seeds label at
// random, so it mostly is not.
func integerExamples(seed uint64, d, n int, shape uint8) []Example {
	rng := numeric.NewRand(seed, 0x5f022)
	coord := func() float64 { return float64(rng.IntN(9) - 4) }
	base, dir, w := make([]float64, d), make([]float64, d), make([]float64, d)
	for i := range base {
		base[i], dir[i], w[i] = coord(), coord(), coord()
	}
	sphere := [][]float64{{3, 0, 0}, {0, 3, 0}, {0, 0, 3}, {1, 2, 2}, {2, -1, 2}, {-2, 2, 1}, {2, 2, -1}}
	exs := make([]Example, n)
	for k := range exs {
		x := make([]float64, d)
		switch shape % 5 {
		case 1:
			if k > 0 && rng.IntN(2) == 0 {
				copy(x, exs[rng.IntN(k)].X)
				break
			}
			fallthrough
		case 0, 4:
			for i := range x {
				x[i] = coord()
			}
		case 2:
			t := coord()
			for i := range x {
				x[i] = base[i] + t*dir[i]
			}
		case 3:
			q := sphere[rng.IntN(len(sphere))]
			for i := range x {
				x[i] = base[i] + q[i%3]
			}
		}
		y := float64(1 - 2*rng.IntN(2))
		if seed%2 == 1 {
			y = 1
			if numeric.Dot(w, x) < 0 {
				y = -1
			}
		}
		exs[k] = Example{X: x, Y: y}
	}
	if shape%5 == 4 {
		slices.SortStableFunc(exs, func(a, b Example) int { return int(a.X[0] - b.X[0]) })
	}
	return exs
}

// FuzzSolveMatchesBruteForce solves small degenerate integer inputs:
// the answer passes lptype.Verify and matches the brute-force optimum
// within 1e-9 relative (or both find no separator), it never ends in
// ErrCycling and it stays under pivotBound.
func FuzzSolveMatchesBruteForce(f *testing.F) {
	for shape := range uint8(5) {
		f.Add(uint64(2*shape)+1, uint8(1+shape%3), uint8(4+3*shape), shape)
	}
	f.Add(uint64(8), uint8(2), uint8(6), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, d, n, shape uint8) {
		dim, m := 1+int(d%3), 1+int(n%10)
		exs := integerExamples(seed, dim, m, shape)
		b, err, calls := solveCounted(dim, exs)
		want, found := bruteForceSVM(t, dim, exs)
		switch {
		case errors.Is(err, ErrNotSeparable) && !found:
		case err != nil:
			t.Fatalf("d=%d n=%d shape %d: %v (ErrCycling: %v; brute force found %v)", dim, m, shape%5, err, errors.Is(err, lptype.ErrCycling), want.U)
		case !found:
			t.Fatalf("answer %v, brute force found no separator for %v", b.Sol.U, exs)
		case !numeric.ApproxEqualTol(b.Sol.Norm2, want.Norm2, 1e-9):
			t.Fatalf("‖u‖² %v, brute force %v on %v", b.Sol.Norm2, want.Norm2, exs)
		}
		if err == nil {
			if i := lptype.Verify[Example, Basis](NewDomain(dim), exs, b); i >= 0 {
				t.Fatalf("example %d %v violates the answer %v", i, exs[i], b.Sol.U)
			}
		}
		if bound := pivotBound(dim+1, m); calls > bound {
			t.Fatalf("%d small solves, bound %d", calls, bound)
		}
	})
}
