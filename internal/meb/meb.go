// Package meb implements the minimum enclosing ball problem (§4.3 of
// Assadi–Karpov–Zhang, PODS 2019 — the LP-type problem underlying core
// vector machines) and the lptype.Domain adapter exposing the Tb/Tv
// primitives of Proposition 4.3. The package supplies only the exact
// small solve — the ball of at most d+2 points, chosen among the
// circumballs of their subsets — and lptype.SolvePivot pivots over it
// for inputs of any size (DESIGN.md §15, "The quadratic kinds").
package meb

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"lowdimlp/internal/lptype"
	"lowdimlp/internal/numeric"
)

// ErrDegenerate reports a support set whose circumball system is
// singular beyond recovery (e.g. duplicated support points fed directly
// to Circumball).
var ErrDegenerate = errors.New("meb: degenerate support set")

// Point is a point in R^d. In the LP-type view each point is a
// constraint "the ball contains me".
type Point []float64

// Ball is a d-dimensional ball; R2 is the squared radius. The zero
// value (nil center, R2 = 0) is not meaningful; the ball of an empty
// point set is EmptyBall, which contains nothing.
type Ball struct {
	Center []float64
	R2     float64
}

// EmptyBall is f(∅): the null ball violated by every point.
var EmptyBall = Ball{Center: nil, R2: -1}

// IsEmpty reports whether b is the null ball.
func (b Ball) IsEmpty() bool { return b.Center == nil }

// Radius returns the radius (0 for the null ball).
func (b Ball) Radius() float64 {
	if b.R2 <= 0 {
		return 0
	}
	return math.Sqrt(b.R2)
}

// Dist2 returns the squared distance from the center to p, or +Inf for
// the null ball.
func (b Ball) Dist2(p Point) float64 {
	if b.IsEmpty() {
		return math.Inf(1)
	}
	var s float64
	for i, c := range b.Center {
		d := p[i] - c
		s += d * d
	}
	return s
}

// Contains reports whether p lies in b up to the package tolerance
// (never for the null ball, whose Dist2 is +Inf).
func (b Ball) Contains(p Point) bool { return b.Dist2(p) <= b.bound() }

const containsTol = 1e-9

// bound is the largest squared distance from the center that Contains
// accepts, R2 + containsTol·(R2+1). Contains, the block kernels and
// the small solve's feasibility test all test against it, so an answer
// Solve returns passes its own violation test.
func (b Ball) bound() float64 { return b.R2 + containsTol*(b.R2+1) }

func (b Ball) String() string {
	return fmt.Sprintf("ball(center=%v, r=%v)", b.Center, b.Radius())
}

// Circumball returns the smallest ball with all the given points on its
// boundary. The points must be affinely independent (|pts| ≤ d+1);
// otherwise ErrDegenerate is returned.
func Circumball(pts []Point) (Ball, error) {
	if len(pts) == 0 {
		return EmptyBall, nil
	}
	g, mask := gram(pts), uint64(1)<<len(pts)-1
	c, ok := g.Candidate(mask)
	if !ok {
		return Ball{}, ErrDegenerate
	}
	return Ball{Center: c, R2: radius2(pts, c, mask)}, nil
}

// Solve computes the minimum enclosing ball of pts: the Tb primitive of
// Proposition 4.3, by the pivot loop over Domain.SolveSmall.
func Solve(pts []Point) (Ball, error) {
	if len(pts) == 0 {
		return EmptyBall, nil
	}
	b, err := NewDomain(len(pts[0])).Solve(pts)
	return b.B, err
}

// gram states the circumballs of pts' subsets as an lptype.Gram: with
// a_j = p_j − p_0, the centre p_0 + Σ μ_j a_j with Σ μ_j = 1 is
// equidistant from the subset's points when ⟨a_i, Σ μ_j a_j⟩ = |a_i|²/2.
func gram(pts []Point) lptype.Gram {
	m, d := len(pts), len(pts[0])
	a := make([]float64, m*d+m) // the a_j, then the |a_j|²/2
	for j, p := range pts {
		for i, x := range p {
			a[j*d+i] = x - pts[0][i]
		}
		a[m*d+j] = 0.5 * numeric.Dot(a[j*d:(j+1)*d], a[j*d:(j+1)*d])
	}
	return lptype.Gram{V: a[:m*d], D: d, O: pts[0], R: a[m*d:], Affine: true}
}

// radius2 is the largest squared distance from c to a point of mask.
func radius2(pts []Point, c []float64, mask uint64) float64 {
	b, r2 := Ball{Center: c}, 0.0
	for i := mask; i != 0; i &= i - 1 {
		r2 = max(r2, b.Dist2(pts[bits.TrailingZeros64(i)]))
	}
	return r2
}

// solveSmall is Domain.SolveSmall. A subset of at most d+1 affinely
// independent points proposes its circumball, certified when its
// centre lies in the subset's hull: the weights μ ≥ 0 (the KKT
// multipliers). The answer is the first certified candidate that
// contains every point, and failing that the least that does
// (lptype.Gram gives the order; its path starts from the points before
// the last one, the previous basis when SolvePivot calls). The ball is
// recomputed from its support alone, so its bits do not depend on
// which other points came with it.
func solveSmall(pts []Point) (Basis, error) {
	m := len(pts)
	if m == 0 {
		return Basis{B: EmptyBall}, nil
	}
	ps := append([]Point(nil), pts...)
	order := func(p, q Point) int { return numeric.CompareBits(p, q) }
	slices.SortFunc(ps, order)
	v, _ := slices.BinarySearchFunc(ps, pts[m-1], order)
	g := gram(ps)
	g.Start = (uint64(1)<<m - 1) &^ (1 << v)
	g.Feasible = func(c []float64, mask uint64) (float64, bool) {
		b := Ball{Center: c, R2: radius2(ps, c, mask)}
		for _, p := range ps {
			if !b.Contains(p) {
				return 0, false
			}
		}
		return b.R2, true
	}
	mask, c, r2 := g.Solve()
	if mask == 0 {
		return Basis{}, ErrDegenerate
	}
	support := make([]Point, 0, bits.OnesCount64(mask))
	for i := mask; i != 0; i &= i - 1 {
		support = append(support, ps[bits.TrailingZeros64(i)])
	}
	if mask&1 != 0 { // c was solved relative to the support's own first point
		return Basis{B: Ball{Center: slices.Clone(c), R2: r2}, Support: support}, nil
	}
	b, err := Circumball(support)
	return Basis{B: b, Support: support}, err
}
