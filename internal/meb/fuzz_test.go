package meb

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

func (c counting) SolveSmall(pts []Point) (Basis, error) {
	*c.calls++
	return c.Domain.SolveSmall(pts)
}

// pivotBound is the stated bound on small solves per SolvePivot run,
// ν²·⌈log₂(n+1)⌉: about twice the most any gaussian or shell cloud
// needs at d ≤ 16, n ≤ 100 000, in generator, reversed or sorted order.
func pivotBound(nu, n int) int { return nu * nu * bits.Len(uint(n)) }

// solveCounted runs SolvePivot on pts and returns its basis, error and
// number of small solves.
func solveCounted(d int, pts []Point) (Basis, error, int) {
	calls := 0
	b, err := lptype.SolvePivot[Point, Basis](counting{NewDomain(d), &calls}, pts)
	return b, err, calls
}

// integerCloud draws n integer-coordinate points in R^d of one of five
// shapes: free, with duplicates, collinear, co-spherical (integer
// points of the sphere of radius 3 or the circle of radius 5, shifted)
// and sorted by first coordinate.
func integerCloud(seed uint64, d, n int, shape uint8) []Point {
	rng := numeric.NewRand(seed, 0xf022)
	coord := func() float64 { return float64(rng.IntN(17) - 8) }
	var sphere []Point
	for _, r := range [][]float64{{3, 0, 0}, {1, 2, 2}, {2, 1, 2}, {2, 2, 1}, {5, 0, 0}, {3, 4, 0}, {4, 3, 0}} {
		for signs := range 8 {
			p := make(Point, d)
			for i := range min(d, 3) {
				p[i] = r[i]
				if signs>>i&1 == 1 {
					p[i] = -p[i]
				}
			}
			if numeric.Dot(p, p) == map[bool]float64{true: 25, false: 9}[d == 2] {
				sphere = append(sphere, p)
			}
		}
	}
	base, dir := make(Point, d), make(Point, d)
	for i := range base {
		base[i], dir[i] = coord(), coord()
	}
	pts := make([]Point, n)
	for k := range pts {
		p := make(Point, d)
		switch shape % 5 {
		case 1:
			if k > 0 && rng.IntN(2) == 0 {
				copy(p, pts[rng.IntN(k)])
				break
			}
			fallthrough
		case 0, 4:
			for i := range p {
				p[i] = coord()
			}
		case 2:
			t := coord()
			for i := range p {
				p[i] = base[i] + t*dir[i]
			}
		case 3:
			q := sphere[rng.IntN(len(sphere))]
			for i := range p {
				p[i] = base[i] + q[i]
			}
		}
		pts[k] = p
	}
	if shape%5 == 4 {
		slices.SortStableFunc(pts, func(a, b Point) int { return int(a[0] - b[0]) })
	}
	return pts
}

// FuzzSolveMatchesBruteForce solves small degenerate integer inputs:
// the answer passes lptype.Verify, matches the brute-force ball within
// 1e-9 relative, never ends in ErrCycling and stays under pivotBound.
func FuzzSolveMatchesBruteForce(f *testing.F) {
	for shape := range uint8(5) {
		f.Add(uint64(shape)+1, uint8(1+shape%3), uint8(4+3*shape), shape)
	}
	f.Add(uint64(9), uint8(3), uint8(12), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, d, n, shape uint8) {
		dim, m := 1+int(d%3), 1+int(n%12)
		pts := integerCloud(seed, dim, m, shape)
		b, err, calls := solveCounted(dim, pts)
		if err != nil {
			t.Fatalf("d=%d n=%d shape %d: %v (ErrCycling: %v)", dim, m, shape%5, err, errors.Is(err, lptype.ErrCycling))
		}
		if i := lptype.Verify[Point, Basis](NewDomain(dim), pts, b); i >= 0 {
			t.Fatalf("point %d %v violates the answer %v", i, pts[i], b.B)
		}
		if want := bruteForceMEB(t, pts); !numeric.ApproxEqualTol(b.B.R2, want.R2, 1e-9) {
			t.Fatalf("R2 %v, brute force %v on %v", b.B.R2, want.R2, pts)
		}
		if bound := pivotBound(dim+1, m); calls > bound {
			t.Fatalf("%d small solves, bound %d", calls, bound)
		}
	})
}
