package meb

import (
	"lowdimlp/internal/linalg"
	"lowdimlp/internal/numeric"
)

// welzlRef is the recursive Welzl solver the package ran before the
// pivot loop over SolveSmall replaced it, kept as a differential oracle
// with its own circumball (linalg.Solve on a fresh Gram system) and its
// own degeneracy fallback, so it shares no code with solveSmall.
func welzlRef(pts []Point) (Ball, error) {
	work := append([]Point(nil), pts...)
	rng := numeric.NewRand(0x6d6562, uint64(len(pts)))
	rng.Shuffle(len(work), func(i, j int) { work[i], work[j] = work[j], work[i] })
	return welzlRec(work, nil)
}

// welzlRec computes mb(P, R): the smallest ball containing P with R on
// its boundary.
func welzlRec(p, r []Point) (Ball, error) {
	if len(p) == 0 || len(r) > 0 && len(r) == len(r[0])+1 {
		return circumballRefSafe(r)
	}
	q := p[len(p)-1]
	b, err := welzlRec(p[:len(p)-1], r)
	if err != nil || b.Contains(q) {
		return b, err
	}
	return welzlRec(p[:len(p)-1], append(r, q))
}

// circumballRefSafe drops boundary points until the circumball system
// is regular, keeping a ball that contains the dropped point.
func circumballRefSafe(r []Point) (Ball, error) {
	b, err := circumballRef(r)
	if err == nil {
		return b, nil
	}
	for drop := range r {
		sub := append(append([]Point(nil), r[:drop]...), r[drop+1:]...)
		if b, err := circumballRef(sub); err == nil && b.Contains(r[drop]) {
			return b, nil
		}
	}
	return Ball{}, ErrDegenerate
}

func circumballRef(pts []Point) (Ball, error) {
	switch len(pts) {
	case 0:
		return EmptyBall, nil
	case 1:
		return Ball{Center: append([]float64(nil), pts[0]...)}, nil
	}
	k, d := len(pts)-1, len(pts[0])
	if k > d {
		return Ball{}, ErrDegenerate
	}
	g := linalg.NewMatrix(k, k)
	rhs := make([]float64, k)
	diff := func(j, i int) float64 { return pts[j+1][i] - pts[0][i] }
	for a := range k {
		for b := range k {
			var s float64
			for i := range d {
				s += diff(a, i) * diff(b, i)
			}
			g.Set(a, b, s)
		}
		for i := range d {
			rhs[a] += 0.5 * diff(a, i) * diff(a, i)
		}
	}
	lambda, err := linalg.Solve(g, rhs)
	if err != nil {
		return Ball{}, ErrDegenerate
	}
	center := append([]float64(nil), pts[0]...)
	for j, l := range lambda {
		for i := range center {
			center[i] += l * diff(j, i)
		}
	}
	b := Ball{Center: center}
	b.R2 = b.Dist2(pts[0])
	return b, nil
}
