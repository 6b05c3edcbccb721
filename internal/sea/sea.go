// Package sea implements the smallest enclosing annulus problem — the
// fourth LP-type problem of this repository, registered through
// internal/engine (see internal/models) to demonstrate that adding a
// workload costs one Spec, not per-layer plumbing.
//
// # Problem
//
// Given points p_1 … p_n in R^d, find a center c and radii r ≤ R
// minimizing R² − r² such that every point lies in the closed annulus
// r ≤ |p_i − c| ≤ R. This is the classical "roundness" objective of
// computational metrology (how far from a sphere is a machined part?)
// and a textbook LP-type problem: with u := R² − |c|² and
// v := r² − |c|², the constraint for point p reads
//
//	v ≤ |p|² − 2⟨p, c⟩ ≤ u,
//
// linear in (c, u, v), so the whole problem is a linear program in
// R^{d+2} minimizing u − v — which is exactly R² − r². Each point
// contributes the two halfspaces above; a basis touches at most d+3
// of them, hence at most d+3 points (ν = d+3).
//
// # Exactness and degeneracy
//
// The solver is the repository's exact Seidel LP solver on the lifted
// program, with the standard bounding box. Violation tests are done in
// lifted coordinates (|p|² − 2⟨p, c⟩ vs u and v), which is free of the
// catastrophic cancellation that recovering R² = u + |c|² would cost
// when an under-determined subset (fewer than d+2 points in general
// position) pushes the center to the box. Such centers only arise for
// intermediate bases inside the meta-algorithm; a well-posed instance
// renders a data-scale annulus.
package sea

import (
	"fmt"
	"math"
	"sync/atomic"

	"lowdimlp/internal/lp"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/numeric"
)

// Point is a point in R^d. As an LP-type constraint it reads "the
// annulus covers me".
type Point []float64

// Annulus is a d-dimensional annulus: the set of points at distance
// [r, R] from the center, stored as squared radii.
type Annulus struct {
	Center []float64
	R2     float64 // outer squared radius
	InR2   float64 // inner squared radius
}

// OuterRadius returns R (0 for a degenerate annulus).
func (a Annulus) OuterRadius() float64 { return safeSqrt(a.R2) }

// InnerRadius returns r.
func (a Annulus) InnerRadius() float64 { return safeSqrt(a.InR2) }

// Width returns R − r, the shell thickness.
func (a Annulus) Width() float64 { return a.OuterRadius() - a.InnerRadius() }

func safeSqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

func (a Annulus) String() string {
	return fmt.Sprintf("annulus(center=%v, r=%v, R=%v)", a.Center, a.InnerRadius(), a.OuterRadius())
}

// Basis is the LP-type basis: the lifted optimum X = (c_1…c_d, u, v)
// of the solved subset plus its support points (the points whose
// inner or outer constraint is tight). The zero value (X = nil) is
// f(∅): the "null annulus" every point violates.
type Basis struct {
	X       []float64
	Support []Point
}

// Own returns b with its support points copied into one allocation of
// their own. A point decoded from a wire row is that row, so a basis
// kept past its solve (a warm-start cache entry) would otherwise keep
// the whole input it was solved from alive. The copy is exact.
func (b Basis) Own() Basis {
	b.Support = numeric.CloneRows(b.Support, func(p *Point) *[]float64 { return (*[]float64)(p) })
	return b
}

// IsEmpty reports whether b is the basis of the empty point set.
func (b Basis) IsEmpty() bool { return b.X == nil }

// Annulus recovers the geometric annulus from the lifted solution.
// The inner squared radius is clamped at 0 (float round-off can leave
// v + |c|² marginally negative on zero-width instances).
//
// Degenerate bases — fewer than d+2 support points in general
// position, so the support's affine hull has dimension < d — leave the
// center under-determined: moving it orthogonally to the hull changes
// every hull point's squared distance by the same amount, so the
// lifted LP's optimal face is unbounded in those directions and
// Seidel's lexicographic minimum lands on the implicit bounding box,
// an arbitrary data-free corner. The render detects that signature
// (box-scale center plus a rank-deficient support hull) and snaps the
// center to the projection of the LP optimum onto the hull — still an
// optimum, because the hull component of the center survives the box
// excursion at full absolute precision — and recomputes both radii
// from the support distances (recovering them from u + |c|² would
// subtract ~box² numbers whose low bits are long gone). Violation
// testing is untouched: it runs in lifted coordinates on the exact LP
// solution.
func (b Basis) Annulus() Annulus {
	if b.IsEmpty() {
		return Annulus{}
	}
	d := len(b.X) - 2
	c := b.X[:d]
	c2 := numeric.Dot(c, c)
	a := Annulus{Center: append([]float64(nil), c...), R2: b.X[d] + c2, InR2: b.X[d+1] + c2}
	if proj, ok := snapDegenerate(b.Support, a.Center); ok {
		a.Center = proj
		a.R2, a.InR2 = supportRadii(b.Support, proj)
	}
	if a.R2 < 0 {
		a.R2 = 0
	}
	if a.InR2 < 0 {
		a.InR2 = 0
	}
	return a
}

// snapDegenerate projects a box-stranded center onto the affine hull
// of the support points. It reports ok=false — leave the exact LP
// render alone — unless the center sits at bounding-box scale (the
// under-determination signature; a merely ill-conditioned instance,
// e.g. nearly-collinear points with a far-but-finite circumcenter,
// keeps its exact extreme render) and the support hull is genuinely
// rank-deficient.
func snapDegenerate(support []Point, c []float64) ([]float64, bool) {
	d := len(c)
	atBox := false
	for _, ci := range c {
		if math.Abs(ci) >= 0.5*lp.DefaultBox {
			atBox = true
			break
		}
	}
	if !atBox || len(support) == 0 {
		return nil, false
	}
	// Orthonormalize the hull directions q_i − q_0 (modified
	// Gram-Schmidt with a relative rank tolerance).
	q0 := support[0]
	basis := make([][]float64, 0, d)
	scale := 1.0
	for _, q := range support[1:] {
		v := make([]float64, d)
		for i := range v {
			v[i] = q[i] - q0[i]
		}
		if n := numeric.Norm2(v); n > scale {
			scale = n
		}
		for _, e := range basis {
			t := numeric.Dot(v, e)
			for i := range v {
				v[i] -= t * e[i]
			}
		}
		if n := numeric.Norm2(v); n > 1e-9*scale {
			for i := range v {
				v[i] /= n
			}
			basis = append(basis, v)
			if len(basis) == d {
				return nil, false // full-rank hull: well-posed
			}
		}
	}
	// Rank < d: project c onto q0 + span(basis).
	proj := append([]float64(nil), q0...)
	diff := make([]float64, d)
	for i := range diff {
		diff[i] = c[i] - q0[i]
	}
	for _, e := range basis {
		t := numeric.Dot(diff, e)
		for i := range proj {
			proj[i] += t * e[i]
		}
	}
	return proj, true
}

// supportRadii returns the outer and inner squared radii of the
// annulus centered at c through the support points: the optimum's
// radii are attained on the support (tight outer and inner
// constraints), so max and min squared support distance recover them
// at data scale.
func supportRadii(support []Point, c []float64) (r2, inR2 float64) {
	inR2 = math.Inf(1)
	for _, p := range support {
		d2 := 0.0
		for i := range c {
			dd := p[i] - c[i]
			d2 += dd * dd
		}
		if d2 > r2 {
			r2 = d2
		}
		if d2 < inR2 {
			inR2 = d2
		}
	}
	if math.IsInf(inR2, 1) {
		inR2 = 0
	}
	return r2, inR2
}

// Domain adapts the smallest enclosing annulus to the lptype.Domain
// interface via the lifted linear program. It is safe for concurrent
// use: like lp.Domain, each Solve call derives a private shuffle
// stream from the seed and an atomic call counter.
type Domain struct {
	Dim  int
	Seed uint64

	calls atomic.Uint64
}

// NewDomain returns a SEA domain for points in R^dim.
func NewDomain(dim int, seed uint64) *Domain { return &Domain{Dim: dim, Seed: seed} }

// liftedProblem returns the LP "minimize u − v" in R^{d+2} with
// variables (c, u, v).
func liftedProblem(d int) lp.Problem {
	obj := make([]float64, d+2)
	obj[d] = 1
	obj[d+1] = -1
	return lp.NewProblem(obj)
}

// liftedRow writes one of the two halfspaces of point p into a (all d+2
// coefficients) and returns its right-hand side:
//
//	|p|² − 2⟨p, c⟩ − u ≤ 0   (outer: p inside radius R)
//	v − |p|² + 2⟨p, c⟩ ≤ 0   (inner: p outside radius r)
func liftedRow(d int, p Point, inner bool, a []float64) float64 {
	q2 := numeric.Dot(p, p)
	sign := -2.0
	if inner {
		sign = 2
	}
	for j, x := range p {
		a[j] = sign * x
	}
	if inner {
		a[d], a[d+1] = 0, 1
		return q2
	}
	a[d], a[d+1] = -1, 0
	return -q2
}

// Solve computes the basis of the point subset (Tb) by solving the
// lifted LP exactly with Seidel's algorithm. Constraint 2i is the outer
// and 2i+1 the inner halfspace of point i, written straight into the
// solver's workspace.
func (d *Domain) Solve(pts []Point) (Basis, error) {
	if len(pts) == 0 {
		return Basis{}, nil // the null annulus, violated by every point
	}
	for i, p := range pts {
		if len(p) != d.Dim {
			return Basis{}, fmt.Errorf("sea: point %d has %d coordinates, want %d", i, len(p), d.Dim)
		}
	}
	rng := numeric.NewRand(d.Seed, d.calls.Add(1))
	sol, err := lp.SeidelRows(liftedProblem(d.Dim), 2*len(pts), func(i int, a []float64) float64 {
		return liftedRow(d.Dim, pts[i/2], i%2 == 1, a)
	}, rng)
	if err != nil {
		return Basis{}, err
	}
	b := Basis{X: sol.X}
	b.Support = supportOf(pts, b, d.Dim+3)
	return b, nil
}

// Basis returns the support points of b.
func (d *Domain) Basis(b Basis) []Point { return b.Support }

// Violates reports whether p violates b (Tv): p's lifted value
// |p|² − 2⟨p, c⟩ falls outside [v, u], up to the same data-scaled
// slack the LP solver itself uses for the two halfspaces of p.
func (d *Domain) Violates(b Basis, p Point) bool {
	if b.IsEmpty() {
		return true
	}
	lift, u, v, slack := liftEval(b.X, p)
	return lift-u > slack+numeric.Eps*math.Abs(u) || v-lift > slack+numeric.Eps*math.Abs(v)
}

// liftEval returns the lifted value of p at basis solution x, the
// bounds u and v, and the shared |p|²+|2p·c| part of the slack scale
// (mirroring lp.Halfspace.Satisfied's data-scaled tolerance).
func liftEval(x []float64, p Point) (lift, u, v, slack float64) {
	d := len(x) - 2
	q2 := numeric.Dot(p, p)
	dot := 0.0
	scale := math.Abs(q2) + 1
	for i, xi := range p {
		t := 2 * xi * x[i]
		dot += t
		scale += math.Abs(t)
	}
	return q2 - dot, x[d], x[d+1], numeric.Eps * scale
}

// ViolatesRow is the columnar violation test: a wire row *is* a point,
// so the cast is free and the test bit-identical to Violates.
func (d *Domain) ViolatesRow(b Basis, row []float64) bool { return d.Violates(b, Point(row)) }

// CombinatorialDim returns ν = d+3: a basis of the lifted LP in
// R^{d+2} has at most d+3 tight halfspaces, each from a distinct
// point in the worst case.
func (d *Domain) CombinatorialDim() int { return d.Dim + 3 }

// VCDim returns λ = d+2 for the annulus range space — the value that
// sizes the ε-nets (Lemma 2.2 samples O~(λ/ε) constraints).
//
// Derivation. A violation range is parametrized by a basis (c, u, v)
// and reads {p : g_c(p) > u or g_c(p) < v} with g_c(p) = |p|² − 2⟨p,c⟩.
// Lift p to q(p) = (p, |p|²) on the paraboloid in R^{d+1}: the range
// becomes the complement of the slab v ≤ ⟨(−2c, 1), q⟩ ≤ u, whose
// normal has its last coordinate pinned to 1. The family therefore has
// exactly d+2 real parameters (c ∈ R^d plus the two thresholds), and
// the distinct intersections it induces on n lifted points are counted
// by the cells of an arrangement of 2n hyperplanes in that (d+2)-
// dimensional parameter space: the shatter function is O(n^{d+2}), so
// the ε-net theorem applies with shatter exponent d+2. This is one
// less than the generic lifted-halfspace bound d+3 (halfspaces in
// R^{d+2}), which forgets that a basis's two halfspaces per point
// share their normal. A matching lower bound holds already for d = 1
// (width-0 annuli shatter {0, 1, 2} ∪ {any symmetric pair}); either
// way the solvers are Las Vegas, so λ only shrinks resources, never
// correctness.
func (d *Domain) VCDim() int { return d.Dim + 2 }

// supportOf returns the points whose inner or outer constraint is
// tight at b (capped at max points).
func supportOf(pts []Point, b Basis, max int) []Point {
	var out []Point
	for _, p := range pts {
		lift, u, v, slack := liftEval(b.X, p)
		tight := math.Abs(lift-u) <= 64*(slack+numeric.Eps*math.Abs(u)) ||
			math.Abs(lift-v) <= 64*(slack+numeric.Eps*math.Abs(v))
		if tight {
			out = append(out, p)
			if len(out) == max {
				break
			}
		}
	}
	return out
}

// interface conformance
var _ lptype.Domain[Point, Basis] = (*Domain)(nil)
