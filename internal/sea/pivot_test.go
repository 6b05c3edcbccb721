package sea

import (
	"errors"
	"math"
	"math/big"
	"math/bits"
	"slices"
	"testing"

	"lowdimlp/internal/lp"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/numeric"
)

// relDiff returns max_i |got_i − want_i| / max(1, max_i |want_i|).
func relDiff(got, want []float64) float64 {
	scale, diff := 1.0, 0.0
	for i, w := range want {
		scale = max(scale, math.Abs(w))
		diff = max(diff, math.Abs(got[i]-w))
	}
	return diff / scale
}

// integerCloud draws n integer-coordinate points in R^d of one of five
// shapes: free, with duplicates, collinear, co-spherical (integer
// points of the circle of radius 5 or the sphere of radius 3, shifted)
// and sorted by first coordinate.
func integerCloud(seed uint64, d, n int, shape uint8) []Point {
	rng := numeric.NewRand(seed, 0x5ea)
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
	if len(sphere) == 0 { // d = 1: the two points of the "sphere" ±3
		sphere = []Point{{3}, {-3}}
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

// TestPivotMatchesSeidelRef: Domain.Solve, lptype.SolvePivot over the
// lifted LP, returns within 1e-12 relative the answer of lp.Seidel over
// every lifted row (bit for bit seidelRef's, TestSeidelMatchesReference
// pins that), on ring clouds and the degenerate integer shapes, or the
// same typed error.
func TestPivotMatchesSeidelRef(t *testing.T) {
	worst := 0.0
	for dim := 1; dim <= 4; dim++ {
		for _, n := range []int{1, 2, dim + 3, 40, 300, 2000} {
			for seed := uint64(0); seed < 6; seed++ {
				pts := ringPoints(dim, n, seed+uint64(100*dim+n))
				if seed >= 1 {
					pts = integerCloud(seed+uint64(100*dim+n), dim, n, uint8(seed-1))
				}
				got, gerr := NewDomain(dim, seed).Solve(pts)
				want, werr := solveViaHalfspaces(dim, pts, seed, 77)
				if gerr != nil || werr != nil {
					if !errors.Is(gerr, werr) || !errors.Is(werr, gerr) {
						t.Fatalf("d=%d n=%d seed %d: error %v, reference %v", dim, n, seed, gerr, werr)
					}
					continue
				}
				diff := relDiff(got.X, want.X)
				if worst = max(worst, diff); diff > 1e-12 {
					t.Fatalf("d=%d n=%d seed %d: X = %v, reference %v (%.2g relative)", dim, n, seed, got.X, want.X, diff)
				}
			}
		}
	}
	t.Logf("largest relative difference %.2g", worst)
}

// counting records the size of each small solve of one
// lptype.SolvePivot run.
type counting struct {
	solveCall
	sizes *[]int
}

func (c counting) SolveSmall(pts []Point) (Basis, error) {
	*c.sizes = append(*c.sizes, len(pts))
	return c.solveCall.SolveSmall(pts)
}

// pivotBound is the stated bound on small solves per SolvePivot run,
// ν²·⌈log₂(n+1)⌉, as for svm and meb.
func pivotBound(nu, n int) int { return nu * nu * bits.Len(uint(n)) }

// exactLifted is lp.RatSeidel's exact answer to the lifted LP of pts in
// input order, rounded to float64.
func exactLifted(dim int, pts []Point) ([]float64, error) {
	obj := make([]*big.Rat, dim+2)
	for i := range obj {
		obj[i] = new(big.Rat)
	}
	obj[dim].SetInt64(1)
	obj[dim+1].SetInt64(-1)
	var rcons []lp.RatHalfspace
	for _, p := range pts {
		for _, h := range liftedCons(dim, p, nil) {
			rcons = append(rcons, lp.NewRatHalfspace(h))
		}
	}
	x, err := lp.RatSeidel(obj, rcons, new(big.Rat).SetFloat64(lp.DefaultBox), nil)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(x))
	for i, v := range x {
		out[i], _ = v.Float64()
	}
	return out, nil
}

// FuzzSolveMatchesBruteForce solves small degenerate integer clouds: the
// answer is lp.RatSeidel's exact lifted optimum within 1e-9 relative,
// passes lptype.Verify unless its center sits on the box, never ends in
// ErrCycling and stays under pivotBound. Up to 200 points, so that the
// loop starts from a sample at d ≤ 2.
func FuzzSolveMatchesBruteForce(f *testing.F) {
	for shape := range uint8(5) {
		f.Add(uint64(shape)+1, uint8(1+shape%3), uint8(10+40*shape), shape)
	}
	f.Add(uint64(9), uint8(1), uint8(150), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, d, n, shape uint8) {
		dim, m := 1+int(d%3), 1+int(n%200)
		pts := integerCloud(seed, dim, m, shape)
		var sizes []int
		dom := NewDomain(dim, seed)
		b, err := lptype.SolvePivot[Point, Basis](counting{dom.call(), &sizes}, pts)
		if err != nil {
			t.Fatalf("d=%d n=%d shape %d: %v (ErrCycling: %v)", dim, m, shape%5, err, errors.Is(err, lptype.ErrCycling))
		}
		want, err := exactLifted(dim, pts)
		if err != nil {
			t.Fatal(err)
		}
		if relDiff(b.X, want) > 1e-9 {
			t.Fatalf("d=%d n=%d shape %d: X = %v, exact %v", dim, m, shape%5, b.X, want)
		}
		if !(lp.Solution{X: b.X[:dim]}).AtBox(lp.DefaultBox / 2) {
			if i := lptype.Verify[Point, Basis](dom, pts, b); i >= 0 {
				t.Fatalf("point %d %v violates the answer %v", i, pts[i], b.X)
			}
		}
		if bound := pivotBound(dim+3, m); len(sizes) > bound {
			t.Fatalf("%d small solves, bound %d", len(sizes), bound)
		}
	})
}

// TestSolvePivotSmallSolvesStaySmall: the pivot loop solves its sample
// by SolvePivot itself, so no Seidel call of Domain.Solve takes more
// than (2ν+1)² points on sea/ring at lpmark's d = 3, n = 2 000.
func TestSolvePivotSmallSolvesStaySmall(t *testing.T) {
	var sizes []int
	if _, err := lptype.SolvePivot[Point, Basis](counting{NewDomain(3, 1).call(), &sizes}, ringPoints(3, 2_000, 1)); err != nil {
		t.Fatal(err)
	}
	if nu, most := 3+3, slices.Max(sizes); most > (2*nu+1)*(2*nu+1) {
		t.Errorf("a Seidel call on %d points, more than (2ν+1)² = %d", most, (2*nu+1)*(2*nu+1))
	}
}
