package meb

import (
	"errors"
	"fmt"
)

// This file implements the Bădoiu–Clarkson coreset machinery behind
// core vector machines (Tsang–Kwok–Cheung 2005, cited as [42] in the
// paper): a (1+ε)-approximate minimum enclosing ball supported on a
// coreset of O(1/ε) points, independent of n and d. The exact LP-type
// pipeline (Solve + Algorithm 1) and the coreset pipeline are the two
// ends of the accuracy/work trade-off; the benchmark harness compares
// them as an ablation.

// CoresetResult is the outcome of the Bădoiu–Clarkson iteration.
type CoresetResult struct {
	Ball    Ball
	Coreset []Point
	// Iterations of the farthest-point loop (≤ ⌈2/ε⌉ + 2 by the
	// Bădoiu–Clarkson bound).
	Iterations int
}

// ErrBadEpsilon reports an out-of-range approximation parameter.
var ErrBadEpsilon = errors.New("meb: ε must be in (0, 1]")

// Coreset computes a (1+ε)-approximate minimum enclosing ball by the
// Bădoiu–Clarkson farthest-point iteration: start from any point,
// repeatedly add the point farthest from the current ball's center and
// re-solve exactly on the (small) working set, until no point lies
// beyond (1+ε) times the current radius. The working set at
// termination is an ε-coreset: the MEB of the coreset, blown up by
// (1+ε), covers the whole input. Its size is O(1/ε) — independent of
// both n and d.
func Coreset(pts []Point, eps float64) (CoresetResult, error) {
	if eps <= 0 || eps > 1 {
		return CoresetResult{}, ErrBadEpsilon
	}
	if len(pts) == 0 {
		return CoresetResult{Ball: EmptyBall}, nil
	}
	if len(pts) == 1 {
		b, err := Circumball(pts[:1])
		if err != nil {
			return CoresetResult{}, err
		}
		return CoresetResult{Ball: b, Coreset: pts[:1], Iterations: 0}, nil
	}
	// Seed: p0 and the point farthest from it (a 2-approximation seed).
	p0 := pts[0]
	far := farthestFrom(pts, p0)
	coreset := []Point{p0, pts[far]}

	// The BC bound is ⌈2/ε⌉ iterations (each grows the squared radius
	// by a constant factor of ε²); leave generous slack for float noise.
	maxIters := int(2/eps) + 16
	var ball Ball
	for iter := 0; iter <= maxIters; iter++ {
		b, err := Solve(coreset)
		if err != nil {
			return CoresetResult{}, fmt.Errorf("meb: coreset solve: %w", err)
		}
		ball = b
		// Farthest input point from the current center.
		fi := farthestFrom(pts, Point(ball.Center))
		limit := ball.R2 * (1 + eps) * (1 + eps)
		if ball.Dist2(pts[fi]) <= limit {
			return CoresetResult{Ball: ball, Coreset: coreset, Iterations: iter}, nil
		}
		coreset = append(coreset, pts[fi])
	}
	return CoresetResult{}, fmt.Errorf("meb: coreset iteration exceeded its 2/ε bound (ε=%v)", eps)
}

// farthestFrom returns the index of the point farthest from q.
func farthestFrom(pts []Point, q Point) int {
	best, bestD := 0, -1.0
	for i, p := range pts {
		var d float64
		for j := range q {
			diff := p[j] - q[j]
			d += diff * diff
		}
		if d > bestD {
			best, bestD = i, d
		}
	}
	return best
}
