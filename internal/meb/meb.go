// Package meb implements the minimum enclosing ball problem (§4.3 of
// Assadi–Karpov–Zhang, PODS 2019 — the LP-type problem underlying core
// vector machines): Welzl's randomized algorithm for small point sets,
// Gärtner-style pivoting for large ones, and the lptype.Domain adapter
// exposing the Tb/Tv primitives of Proposition 4.3.
package meb

import (
	"errors"
	"fmt"
	"math"

	"lowdimlp/internal/linalg"
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

// Contains reports whether p lies in b up to the package tolerance.
func (b Ball) Contains(p Point) bool {
	if b.IsEmpty() {
		return false
	}
	return b.Dist2(p) <= b.bound()
}

const containsTol = 1e-9

// bound is the largest squared distance from the center that Contains
// accepts, R2 + containsTol·(R2+1). Contains, the block kernels and
// the pivoting loop's stop rule all test against it, so an answer
// Solve returns passes its own violation test.
func (b Ball) bound() float64 { return b.R2 + containsTol*(b.R2+1) }

func (b Ball) String() string {
	return fmt.Sprintf("ball(center=%v, r=%v)", b.Center, b.Radius())
}

// Circumball returns the smallest ball with all the given points on its
// boundary. The points must be affinely independent (|pts| ≤ d+1);
// otherwise ErrDegenerate is returned. Standard construction: write the
// center as p_0 + Σ λ_j (p_j − p_0) and solve the Gram system.
func Circumball(pts []Point) (Ball, error) {
	switch len(pts) {
	case 0:
		return EmptyBall, nil
	case 1:
		return Ball{Center: append([]float64(nil), pts[0]...), R2: 0}, nil
	}
	k := len(pts) - 1
	d := len(pts[0])
	if k > d {
		return Ball{}, ErrDegenerate
	}
	diffs := make([][]float64, k)
	for j := 0; j < k; j++ {
		diffs[j] = make([]float64, d)
		for i := 0; i < d; i++ {
			diffs[j][i] = pts[j+1][i] - pts[0][i]
		}
	}
	g := linalg.NewMatrix(k, k)
	rhs := make([]float64, k)
	for a := 0; a < k; a++ {
		for b := 0; b < k; b++ {
			g.Set(a, b, numeric.Dot(diffs[a], diffs[b]))
		}
		rhs[a] = 0.5 * numeric.Dot(diffs[a], diffs[a])
	}
	lambda, err := linalg.Solve(g, rhs)
	if err != nil {
		return Ball{}, ErrDegenerate
	}
	center := append([]float64(nil), pts[0]...)
	for j := 0; j < k; j++ {
		for i := 0; i < d; i++ {
			center[i] += lambda[j] * diffs[j][i]
		}
	}
	b := Ball{Center: center}
	b.R2 = b.Dist2(pts[0])
	return b, nil
}

// SolveSmall computes the minimum enclosing ball of a small point set
// by Welzl's move-to-front recursion. Intended for |pts| up to a few
// hundred; Solve handles arbitrary sizes via pivoting.
func SolveSmall(pts []Point) (Ball, error) {
	work := append([]Point(nil), pts...)
	return welzl(work, nil)
}

// welzl computes mb(P, R): the smallest ball containing P with R on its
// boundary. It mutates the order of p (move-to-front).
func welzl(p []Point, r []Point) (Ball, error) {
	if len(p) == 0 || len(r) > 0 && len(r) == len(r[0])+1 {
		return circumballSafe(r)
	}
	q := p[len(p)-1]
	b, err := welzl(p[:len(p)-1], r)
	if err != nil {
		return Ball{}, err
	}
	if b.Contains(q) {
		return b, nil
	}
	b, err = welzl(p[:len(p)-1], append(r, q))
	if err != nil {
		return Ball{}, err
	}
	// Move-to-front: q was important, keep it near the end so parent
	// calls test it early.
	return b, nil
}

// circumballSafe tolerates affinely dependent boundary sets (which
// arise transiently in Welzl's recursion on degenerate inputs) by
// dropping points until the system is regular. The resulting ball still
// has the remaining points on its boundary and contains the dropped
// ones.
func circumballSafe(r []Point) (Ball, error) {
	b, err := Circumball(r)
	if err == nil {
		return b, nil
	}
	for drop := 0; drop < len(r); drop++ {
		sub := make([]Point, 0, len(r)-1)
		sub = append(sub, r[:drop]...)
		sub = append(sub, r[drop+1:]...)
		b, err := Circumball(sub)
		if err == nil && b.Contains(r[drop]) {
			return b, nil
		}
	}
	return Ball{}, ErrDegenerate
}

// Solve computes the minimum enclosing ball of pts. The fast path is
// Gärtner-style pivoting: start from the ball of a small prefix and
// repeatedly merge the farthest outside point into the current support
// set — expected near-linear time for fixed d. Degenerate inputs (many
// co-spherical points) can defeat the pivoting heuristic, in which case
// Solve falls back to the full Welzl recursion. This is the Tb
// primitive of Proposition 4.3.
func Solve(pts []Point) (Ball, error) {
	if len(pts) == 0 {
		return EmptyBall, nil
	}
	if b, ok := pivotSolve(pts); ok {
		return b, nil
	}
	// Fallback: full Welzl on a deterministic shuffle (Welzl's expected
	// linear time needs random insertion order).
	work := append([]Point(nil), pts...)
	rng := numeric.NewRand(0x6d6562, uint64(len(pts)))
	rng.Shuffle(len(work), func(i, j int) { work[i], work[j] = work[j], work[i] })
	return welzl(work, nil)
}

// pivotSolve runs the pivoting loop; ok=false means the heuristic gave
// up (degeneracy) and the caller should fall back.
func pivotSolve(pts []Point) (Ball, bool) {
	d := len(pts[0])
	init := min(len(pts), d+2)
	b, err := SolveSmall(pts[:init])
	if err != nil {
		return Ball{}, false
	}
	support := supportOf(pts[:init], b)
	stall := 0
	for pivots := 0; pivots <= 16*(d+2)*bits(len(pts))+64; pivots++ {
		far, far2 := -1, b.bound()
		for i, p := range pts {
			if d2 := b.Dist2(p); d2 > far2 {
				far, far2 = i, d2
			}
		}
		if far < 0 {
			return b, true
		}
		cand := append(append([]Point{}, support...), pts[far])
		nb, err := SolveSmall(cand)
		if err != nil {
			return Ball{}, false
		}
		if nb.R2 <= b.R2*(1+1e-13) {
			// No radius growth: the capped support set failed to
			// determine the ball (co-spherical degeneracy).
			stall++
			if stall > 2 {
				return Ball{}, false
			}
		} else {
			stall = 0
		}
		if nb.R2 > b.R2 {
			b = nb
		}
		support = supportOf(cand, b)
	}
	return Ball{}, false
}

// supportOf returns the points of pts on the boundary of b (capped at
// d+1 points, preferring the farthest).
func supportOf(pts []Point, b Ball) []Point {
	var out []Point
	for _, p := range pts {
		d2 := b.Dist2(p)
		if math.Abs(d2-b.R2) <= 256*containsTol*(b.R2+1) {
			out = append(out, p)
		}
	}
	if len(b.Center) > 0 && len(out) > len(b.Center)+1 {
		out = out[:len(b.Center)+1]
	}
	return out
}

func bits(n int) int {
	b := 0
	for n > 0 {
		b++
		n >>= 1
	}
	return b
}
