package meb

import (
	"math"
	"testing"

	"lowdimlp/internal/lptype"
	"lowdimlp/internal/numeric"
)

func pt(xs ...float64) Point { return Point(xs) }

func randCloud(d, n int, seed uint64, gen func(rng interface{ NormFloat64() float64 }) float64) []Point {
	rng := numeric.NewRand(seed, 0xba11)
	pts := make([]Point, n)
	for i := range pts {
		p := make(Point, d)
		for j := range p {
			p[j] = gen(rng)
		}
		pts[i] = p
	}
	return pts
}

func gaussCloud(d, n int, seed uint64) []Point {
	return randCloud(d, n, seed, func(rng interface{ NormFloat64() float64 }) float64 {
		return rng.NormFloat64()
	})
}

// bruteForceMEB finds the minimum enclosing ball by enumerating support
// subsets of size ≤ d+1. Exponential; tiny inputs only.
func bruteForceMEB(t *testing.T, pts []Point) Ball {
	t.Helper()
	best := Ball{R2: math.Inf(1)}
	n := len(pts)
	d := len(pts[0])
	var rec func(start int, cur []Point)
	rec = func(start int, cur []Point) {
		if len(cur) >= 1 {
			b, err := Circumball(cur)
			if err == nil && b.R2 < best.R2 {
				ok := true
				for _, p := range pts {
					if !b.Contains(p) {
						ok = false
						break
					}
				}
				if ok {
					best = b
				}
			}
		}
		if len(cur) == d+1 {
			return
		}
		for i := start; i < n; i++ {
			rec(i+1, append(cur, pts[i]))
		}
	}
	rec(0, nil)
	return best
}

func TestCircumballBasics(t *testing.T) {
	b, err := Circumball(nil)
	if err != nil || !b.IsEmpty() {
		t.Fatalf("empty circumball: %v %v", b, err)
	}
	b, err = Circumball([]Point{pt(1, 2)})
	if err != nil || b.R2 != 0 || b.Center[0] != 1 {
		t.Fatalf("single-point circumball: %v %v", b, err)
	}
	// Two points: midpoint.
	b, err = Circumball([]Point{pt(0, 0), pt(2, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.ApproxEqual(b.Center[0], 1) || !numeric.ApproxEqual(b.Center[1], 0) || !numeric.ApproxEqual(b.R2, 1) {
		t.Fatalf("two-point circumball: %v", b)
	}
	// 3-4-5 right triangle: circumcenter at hypotenuse midpoint.
	b, err = Circumball([]Point{pt(0, 0), pt(3, 0), pt(0, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.ApproxEqual(b.Center[0], 1.5) || !numeric.ApproxEqual(b.Center[1], 2) {
		t.Fatalf("triangle circumcenter: %v", b)
	}
	if !numeric.ApproxEqual(b.Radius(), 2.5) {
		t.Fatalf("triangle circumradius: %v", b.Radius())
	}
}

func TestCircumballDegenerate(t *testing.T) {
	// Three collinear points are affinely dependent.
	if _, err := Circumball([]Point{pt(0, 0), pt(1, 0), pt(2, 0)}); err == nil {
		t.Error("expected ErrDegenerate for collinear points")
	}
	// More than d+1 points.
	if _, err := Circumball([]Point{pt(0), pt(1), pt(2)}); err == nil {
		t.Error("expected ErrDegenerate for k > d+1")
	}
}

func TestEmptyBallSemantics(t *testing.T) {
	if EmptyBall.Contains(pt(0, 0)) {
		t.Error("null ball contains nothing")
	}
	if EmptyBall.Radius() != 0 {
		t.Error("null ball radius reported as 0")
	}
	if !math.IsInf(EmptyBall.Dist2(pt(1)), 1) {
		t.Error("null ball distance must be +Inf")
	}
}

func TestSolveSmallKnown(t *testing.T) {
	// Square corners: ball centered at the middle, determined by a
	// diagonal pair or by three corners.
	pts := []Point{pt(0, 0), pt(0, 2), pt(2, 0), pt(2, 2)}
	bs, err := NewDomain(2).SolveSmall(pts)
	if err != nil {
		t.Fatal(err)
	}
	b := bs.B
	if !numeric.ApproxEqual(b.Center[0], 1) || !numeric.ApproxEqual(b.Center[1], 1) {
		t.Fatalf("center = %v", b.Center)
	}
	if !numeric.ApproxEqual(b.R2, 2) {
		t.Fatalf("R2 = %v, want 2", b.R2)
	}
	if n := len(bs.Support); n < 2 || n > 3 {
		t.Fatalf("support %v", bs.Support)
	}
}

func TestSolveMatchesBruteForce(t *testing.T) {
	for d := 1; d <= 3; d++ {
		for trial := 0; trial < 20; trial++ {
			pts := gaussCloud(d, 8, uint64(100*d+trial))
			got, err := Solve(pts)
			if err != nil {
				t.Fatalf("d=%d trial=%d: %v", d, trial, err)
			}
			want := bruteForceMEB(t, pts)
			if !numeric.ApproxEqualTol(got.R2, want.R2, 1e-7) {
				t.Fatalf("d=%d trial=%d: R2 %v vs brute force %v", d, trial, got.R2, want.R2)
			}
		}
	}
}

func TestSolveContainment(t *testing.T) {
	for _, n := range []int{1, 2, 10, 500, 5000} {
		pts := gaussCloud(3, n, uint64(n))
		b, err := Solve(pts)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i, p := range pts {
			if !b.Contains(p) {
				t.Fatalf("n=%d: point %d outside ball (dist2 %v vs R2 %v)", n, i, b.Dist2(p), b.R2)
			}
		}
	}
}

func TestSolveCoSpherical(t *testing.T) {
	// Adversarial degeneracy: many points exactly on a sphere, so many
	// subsets of a small solve certify nearly the same ball.
	rng := numeric.NewRand(5, 5)
	var pts []Point
	for i := 0; i < 200; i++ {
		v := make(Point, 3)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		nrm := numeric.Norm2(v)
		for j := range v {
			v[j] = v[j]/nrm*5 + 1 // sphere of radius 5 centered at (1,1,1)
		}
		pts = append(pts, v)
	}
	b, err := Solve(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.Radius()-5) > 1e-6 {
		t.Fatalf("radius = %v, want 5", b.Radius())
	}
	for i, p := range pts {
		if !b.Contains(p) {
			t.Fatalf("point %d outside", i)
		}
	}
}

func TestSolveDuplicatePoints(t *testing.T) {
	pts := []Point{pt(1, 1), pt(1, 1), pt(1, 1), pt(3, 1), pt(3, 1)}
	b, err := Solve(pts)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.ApproxEqual(b.Center[0], 2) || !numeric.ApproxEqual(b.R2, 1) {
		t.Fatalf("ball = %v", b)
	}
}

func TestSolveLowRankCloud(t *testing.T) {
	// Points confined to a 1-D line inside R³.
	rng := numeric.NewRand(6, 6)
	var pts []Point
	for i := 0; i < 300; i++ {
		s := rng.Float64()*4 - 2
		pts = append(pts, pt(s, 2*s, -s))
	}
	b, err := Solve(pts)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if !b.Contains(p) {
			t.Fatalf("point %d outside", i)
		}
	}
}

func TestDomainContract(t *testing.T) {
	dom := NewDomain(3)
	if dom.CombinatorialDim() != 4 || dom.VCDim() != 4 {
		t.Fatal("dimension bounds")
	}
	pts := gaussCloud(3, 300, 9)
	b, err := dom.Solve(pts)
	if err != nil {
		t.Fatal(err)
	}
	if i := lptype.Verify[Point, Basis](dom, pts, b); i >= 0 {
		t.Fatalf("point %d violates the basis of its own set", i)
	}
	if len(b.Support) == 0 || len(b.Support) > 4 {
		t.Fatalf("support size %d out of range", len(b.Support))
	}
	// The support determines the same ball.
	b2, err := dom.Solve(b.Support)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.ApproxEqualTol(b.B.R2, b2.B.R2, 1e-7) {
		t.Fatalf("support does not reproduce ball: %v vs %v", b.B.R2, b2.B.R2)
	}
	// Empty solve: the null ball, violated by everything.
	be, err := dom.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !dom.Violates(be, pt(0, 0, 0)) {
		t.Error("every point must violate f(∅)")
	}
}

func TestGenericBruteForceMatchesSolve(t *testing.T) {
	dom := NewDomain(2)
	pts := gaussCloud(2, 7, 31)
	bf, err := lptype.BruteForce[Point, Basis](dom, pts)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Solve(pts)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.ApproxEqualTol(bf.B.R2, direct.R2, 1e-7) {
		t.Fatalf("generic brute force %v vs direct %v", bf.B.R2, direct.R2)
	}
}

// TestSolvePivotGenericMatchesSolve checks the pivot loop against the
// recursive Welzl oracle (welzlRef).
func TestSolvePivotGenericMatchesSolve(t *testing.T) {
	dom := NewDomain(3)
	pts := gaussCloud(3, 400, 37)
	pv, err := lptype.SolvePivot[Point, Basis](dom, pts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := welzlRef(pts)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.ApproxEqualTol(pv.B.R2, ref.R2, 1e-7) {
		t.Fatalf("pivot loop %v vs Welzl %v", pv.B.R2, ref.R2)
	}
}

func TestBasisCodecRoundtrip(t *testing.T) {
	c := BasisCodec{Dim: 2}
	b := Basis{B: Ball{Center: []float64{1, 2}, R2: 9}}
	buf := c.Append(nil, b)
	b2, _, err := c.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if b2.B.R2 != 9 || b2.B.Center[1] != 2 {
		t.Fatal("roundtrip mismatch")
	}
	// Null ball roundtrip.
	be := Basis{B: EmptyBall}
	buf = c.Append(nil, be)
	b3, _, err := c.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !b3.B.IsEmpty() {
		t.Error("null ball must survive the roundtrip")
	}
}
