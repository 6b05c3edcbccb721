package sea

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"lowdimlp/internal/engine"
	"lowdimlp/internal/lp"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/numeric"
)

func TestUnitCircleAnnulus(t *testing.T) {
	pts := []Point{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
	d := NewDomain(2, 1)
	b, err := d.Solve(pts)
	if err != nil {
		t.Fatal(err)
	}
	a := b.Annulus()
	if math.Abs(a.OuterRadius()-1) > 1e-9 || math.Abs(a.InnerRadius()-1) > 1e-9 {
		t.Fatalf("want the unit circle (width 0), got %v", a)
	}
	if math.Abs(a.Center[0]) > 1e-9 || math.Abs(a.Center[1]) > 1e-9 {
		t.Fatalf("center %v, want the origin", a.Center)
	}
	for _, p := range pts {
		if d.Violates(b, p) {
			t.Fatalf("point %v violates its own basis", p)
		}
	}
	if !d.Violates(b, Point{3, 3}) {
		t.Fatal("far point should violate")
	}
	if !d.Violates(b, Point{0.1, 0}) {
		t.Fatal("deep inner point should violate")
	}
}

// TestAnnulusCoversInput checks the two defining properties on random
// clouds: every input point lies in the annulus, and both boundaries
// are touched (otherwise the shell could shrink).
func TestAnnulusCoversInput(t *testing.T) {
	for _, dim := range []int{2, 3, 4} {
		dom := NewDomain(dim, 7)
		pts := make([]Point, 200)
		for i := range pts {
			pts[i] = RingAt(dim, 42, 0.3, i)
		}
		b, err := dom.Solve(pts)
		if err != nil {
			t.Fatalf("dim %d: %v", dim, err)
		}
		a := b.Annulus()
		touchIn, touchOut := false, false
		for _, p := range pts {
			d2 := dist2(a.Center, p)
			if d2 > a.R2*(1+1e-9)+1e-9 || d2 < a.InR2*(1-1e-9)-1e-9 {
				t.Fatalf("dim %d: point %v outside annulus %v (d²=%v)", dim, p, a, d2)
			}
			if math.Abs(d2-a.R2) <= 1e-6*(a.R2+1) {
				touchOut = true
			}
			if math.Abs(d2-a.InR2) <= 1e-6*(a.InR2+1) {
				touchIn = true
			}
		}
		if !touchIn || !touchOut {
			t.Fatalf("dim %d: annulus boundaries not both tight (in=%v out=%v)", dim, touchIn, touchOut)
		}
		if len(b.Support) == 0 || len(b.Support) > dom.CombinatorialDim() {
			t.Fatalf("dim %d: support size %d vs ν=%d", dim, len(b.Support), dom.CombinatorialDim())
		}
	}
}

func dist2(c []float64, p Point) float64 {
	s := 0.0
	for i := range c {
		d := p[i] - c[i]
		s += d * d
	}
	return s
}

// TestAgainstBruteForce cross-checks the lifted-LP solver against the
// generic subset-enumeration solver on tiny instances.
func TestAgainstBruteForce(t *testing.T) {
	rng := numeric.NewRand(3, 0)
	for trial := 0; trial < 20; trial++ {
		dom := NewDomain(2, uint64(trial))
		pts := make([]Point, 7)
		for i := range pts {
			pts[i] = Point{rng.NormFloat64() * 2, rng.NormFloat64() * 2}
		}
		got, err := dom.Solve(pts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := lptype.BruteForce[Point, Basis](dom, pts)
		if err != nil {
			t.Fatal(err)
		}
		gw, ww := got.Annulus(), want.Annulus()
		if math.Abs((gw.R2-gw.InR2)-(ww.R2-ww.InR2)) > 1e-6*(1+ww.R2) {
			t.Fatalf("trial %d: objective %v (lifted LP) vs %v (brute force)",
				trial, gw.R2-gw.InR2, ww.R2-ww.InR2)
		}
	}
}

// pivotDomain lets lptype.SolvePivot pivot over Seidel. The support
// leaves the lifted LP's implicit box out, so it is not a determining
// set while the box binds; the adapter's basis keeps every point
// pivoted on instead, so each pivot is Seidel on a growing set. The
// lifted f is lexicographic, so Value is the size of that set, which
// every pivot increases.
type pivotDomain struct{ *Domain }

func (d pivotDomain) SolveSmall(pts []Point) (Basis, error) {
	b, err := d.Solve(pts)
	b.Support = append([]Point(nil), pts...)
	return b, err
}

func (pivotDomain) Value(b Basis) float64 { return float64(len(b.Support)) }

func (d pivotDomain) FirstViolator(b Basis, pts []Point) int {
	return slices.IndexFunc(pts, func(p Point) bool { return d.Violates(b, p) })
}

// TestAgainstPivot cross-checks against the generic basis-improvement
// solver on a larger instance.
func TestAgainstPivot(t *testing.T) {
	dom := NewDomain(3, 5)
	pts := make([]Point, 400)
	for i := range pts {
		pts[i] = RingAt(3, 99, 0.2, i)
	}
	got, err := dom.Solve(pts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := lptype.SolvePivot[Point, Basis](pivotDomain{dom}, pts)
	if err != nil {
		t.Fatal(err)
	}
	g, w := got.Annulus(), want.Annulus()
	if math.Abs((g.R2-g.InR2)-(w.R2-w.InR2)) > 1e-6*(1+w.R2) {
		t.Fatalf("objective %v (direct) vs %v (pivot)", g.R2-g.InR2, w.R2-w.InR2)
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	dom := NewDomain(2, 1)
	b, err := dom.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !b.IsEmpty() {
		t.Fatal("basis of ∅ should be the null annulus")
	}
	if !dom.Violates(b, Point{0, 0}) {
		t.Fatal("every point must violate the null annulus")
	}
	one, err := dom.Solve([]Point{{3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if dom.Violates(one, Point{3, 4}) {
		t.Fatal("a point must not violate its own singleton basis")
	}
}

func TestBasisCodecRoundTrip(t *testing.T) {
	c := BasisCodec{Dim: 2}
	dom := NewDomain(2, 9)
	pts := []Point{{1, 0}, {-1, 0}, {0, 1}, {0, -1}, {0.5, 0.9}}
	b, err := dom.Solve(pts)
	if err != nil {
		t.Fatal(err)
	}
	enc := c.Append(nil, b)
	dec, n, err := c.Decode(enc)
	if err != nil || n != len(enc) {
		t.Fatalf("decode: %v (n=%d)", err, n)
	}
	// The decoded basis must reproduce the violation behaviour.
	for _, q := range append(append([]Point{}, pts...), Point{5, 5}, Point{0, 0.05}) {
		if dom.Violates(b, q) != dom.Violates(dec, q) {
			t.Fatalf("violation mismatch on %v after codec roundtrip", q)
		}
	}
	// Null annulus survives the roundtrip.
	empty, _, err := c.Decode(c.Append(nil, Basis{}))
	if err != nil || !empty.IsEmpty() {
		t.Fatalf("empty basis roundtrip: %v empty=%v", err, empty.IsEmpty())
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := RingAt(3, 11, 0.1, 42)
	b := RingAt(3, 11, 0.1, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("RingAt not deterministic")
		}
	}
	if g := GaussianAt(3, 11, 7); len(g) != 3 {
		t.Fatalf("GaussianAt dim %d", len(g))
	}
	inst, err := Spec.Generate("ring", engine.GenParams{N: 200, D: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Rows) != 200 || inst.Dim != 3 {
		t.Fatalf("ring instance %d×%d", len(inst.Rows), inst.Dim)
	}
	if _, err := Spec.Generate("torus", engine.GenParams{N: 10, D: 2, Seed: 1}); err == nil {
		t.Fatal("unknown family must error")
	}
}

// TestRingPlantsAnnulus checks that the ring family's optimum matches
// the planted shell: outer radius ≈ 5 around the all-ones center.
func TestRingPlantsAnnulus(t *testing.T) {
	dom := NewDomain(2, 3)
	pts := make([]Point, 600)
	for i := range pts {
		pts[i] = RingAt(2, 17, 0.1, i)
	}
	b, err := dom.Solve(pts)
	if err != nil {
		t.Fatal(err)
	}
	a := b.Annulus()
	if math.Abs(a.OuterRadius()-5) > 0.05 || math.Abs(a.Center[0]-1) > 0.2 {
		t.Fatalf("planted shell not recovered: %v", a)
	}
	if a.Width() > 5*0.11 {
		t.Fatalf("width %v exceeds planted thickness", a.Width())
	}
}

// TestDegenerateCollinearSnapsCenter pins the degenerate-instance
// render: with fewer than d+2 points in general position the LP
// optimum's center is under-determined and lands on the bounding box;
// the render must snap it onto the support's affine hull (here the
// line y = x) at data scale, preserving optimality and coverage.
func TestDegenerateCollinearSnapsCenter(t *testing.T) {
	dom := NewDomain(2, 3)
	pts := []Point{{0, 0}, {1, 1}, {2, 2}, {5, 5}}
	b, err := dom.Solve(pts)
	if err != nil {
		t.Fatal(err)
	}
	a := b.Annulus()
	if len(a.Center) != 2 {
		t.Fatalf("center %v", a.Center)
	}
	if math.Abs(a.Center[0]-a.Center[1]) > 1e-6 {
		t.Fatalf("center %v is off the data line y=x", a.Center)
	}
	if math.Abs(a.Center[0]) > 100 {
		t.Fatalf("center %v is not data-scale (box corner leak)", a.Center)
	}
	// The snapped annulus still covers every input point.
	for _, p := range pts {
		dx, dy := p[0]-a.Center[0], p[1]-a.Center[1]
		d := math.Hypot(dx, dy)
		if d > a.OuterRadius()+1e-6 || d < a.InnerRadius()-1e-6 {
			t.Fatalf("point %v at distance %v outside [%v, %v]", p, d, a.InnerRadius(), a.OuterRadius())
		}
	}
	if a.Width() < 0 {
		t.Fatalf("negative width %v", a.Width())
	}

	// A singleton degenerates all the way: the annulus is the point.
	one, err := dom.Solve([]Point{{3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	oa := one.Annulus()
	if math.Abs(oa.Center[0]-3) > 1e-6 || math.Abs(oa.Center[1]-4) > 1e-6 {
		t.Fatalf("singleton center %v, want (3,4)", oa.Center)
	}
	if oa.OuterRadius() > 1e-6 {
		t.Fatalf("singleton outer radius %v", oa.OuterRadius())
	}

	// Well-posed instances keep their exact render: the unit square's
	// annulus center stays at the square's center, untouched by the
	// snap heuristic.
	sq, err := dom.Solve([]Point{{0, 0}, {1, 0}, {0, 1}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	sa := sq.Annulus()
	if math.Abs(sa.Center[0]-0.5) > 1e-6 || math.Abs(sa.Center[1]-0.5) > 1e-6 {
		t.Fatalf("square center %v, want (0.5,0.5)", sa.Center)
	}
}

// liftedCons is how Solve used to hand the lifted LP to lp.Seidel: two
// materialized halfspaces per point. Kept as the oracle for the rows
// Solve now writes in place.
func liftedCons(d int, p Point, dst []lp.Halfspace) []lp.Halfspace {
	q2 := numeric.Dot(p, p)
	outer := make([]float64, d+2)
	inner := make([]float64, d+2)
	for j, x := range p {
		outer[j] = -2 * x
		inner[j] = 2 * x
	}
	outer[d] = -1
	inner[d+1] = 1
	return append(dst,
		lp.Halfspace{A: outer, B: -q2},
		lp.Halfspace{A: inner, B: q2},
	)
}

func ringPoints(dim, n int, seed uint64) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = RingAt(dim, seed, 0.3, i)
	}
	return pts
}

// solveViaHalfspaces is Solve on materialized halfspaces, for call
// number call of a Domain with the given seed.
func solveViaHalfspaces(dim int, pts []Point, seed, call uint64) (lp.Solution, error) {
	var cons []lp.Halfspace
	for _, p := range pts {
		cons = liftedCons(dim, p, cons)
	}
	return lp.Seidel(liftedProblem(dim), cons, numeric.NewRand(seed, call))
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSolveMatchesLiftedHalfspaces: rows written in place into the
// solver's workspace give bit for bit the basis that materialized
// halfspaces give, on the same shuffle stream. The same Domain is used
// throughout, so rows left in a recycled workspace by a larger or
// higher-dimensional solve would show.
func TestSolveMatchesLiftedHalfspaces(t *testing.T) {
	for _, dim := range []int{4, 1, 3, 2} {
		dom := NewDomain(dim, 5)
		call := uint64(0)
		for _, n := range []int{300, 1, 2, dim + 3, 40} {
			pts := ringPoints(dim, n, uint64(10*dim+n))
			got, err := dom.Solve(pts)
			call++
			want, werr := solveViaHalfspaces(dim, pts, 5, call)
			if err != nil || werr != nil {
				t.Fatalf("dim %d n %d: err = %v, oracle err = %v", dim, n, err, werr)
			}
			if !sameBits(got.X, want.X) {
				t.Fatalf("dim %d n %d: X = %v, oracle %v", dim, n, got.X, want.X)
			}
		}
	}
}

func TestSolveRejectsWrongPointLength(t *testing.T) {
	dom := NewDomain(2, 1)
	for _, bad := range []Point{{1}, {1, 2, 3}} {
		_, err := dom.Solve([]Point{{1, 0}, {0, 1}, bad})
		if err == nil || !strings.Contains(err.Error(), "point 2") {
			t.Errorf("point of %d coordinates in R^2: err = %v, want one naming point 2", len(bad), err)
		}
	}
}

// TestSeidelAllocations is the sea half of the pin in internal/lp: the
// allocations of a basis solve (warm: 8 — rng, lifted problem, X,
// support set) do not grow with the number of points. See the lp test
// for why the bound leaves room for one workspace build.
func TestSeidelAllocations(t *testing.T) {
	const maxAllocs = 44
	for _, n := range []int{250, 2500} { // m = 2n lifted rows: 500 and 5000
		pts := ringPoints(3, n, 1)
		dom := NewDomain(3, 1)
		if _, err := dom.Solve(pts); err != nil { // warm the pool
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := dom.Solve(pts); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("sea.Domain.Solve d=3 n=%d: %.1f allocs", n, allocs)
		if allocs > maxAllocs {
			t.Errorf("sea.Domain.Solve d=3 n=%d: %.1f allocs (want ≤ %d) — lifted halfspaces materialized again?", n, allocs, maxAllocs)
		}
	}
}

// TestConcurrentSolves shares one Domain between goroutines, as
// coordinator sites do; each result must be the oracle's for one of the
// shuffle streams the call counter hands out.
func TestConcurrentSolves(t *testing.T) {
	const goroutines, rounds = 8, 5
	pts := ringPoints(3, 200, 9)
	dom := NewDomain(3, 21)
	var want [][]float64
	for call := uint64(1); call <= goroutines*rounds; call++ {
		sol, err := solveViaHalfspaces(3, pts, 21, call)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, sol.X)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				b, err := dom.Solve(pts)
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.ContainsFunc(want, func(x []float64) bool { return sameBits(x, b.X) }) {
					t.Error("concurrent Solve returned a basis no shuffle stream of the oracle produces")
					return
				}
			}
		}()
	}
	wg.Wait()
}
