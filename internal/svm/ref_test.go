package svm

import (
	"errors"
	"math"

	"lowdimlp/internal/linalg"
	"lowdimlp/internal/numeric"
)

// wolfeRef is the solver the package ran before the pivot loop over
// SolveSmall replaced it, kept as a differential oracle: Wolfe's
// minimum-norm point p* of conv{y_j·x_j} (Wolfe 1976), and u* = p*/‖p*‖².
// It shares no code with solveSmall. Its float loop can stall on some
// inputs (a vertex re-enters with weight 0 and is dropped again), which
// the step budget caps; tests use it only where it converges.
func wolfeRef(dim int, examples []Example) (Solution, error) {
	zs := make([][]float64, len(examples))
	for i, e := range examples {
		zs[i] = make([]float64, dim)
		for j := range zs[i] {
			zs[i][j] = e.Y * e.X[j]
		}
	}
	p, err := wolfeMinNorm(zs)
	if err != nil {
		return Solution{}, err
	}
	n2 := numeric.Dot(p, p)
	if n2 == 0 {
		return Solution{}, ErrNotSeparable
	}
	u := make([]float64, dim)
	for i := range u {
		u[i] = p[i] / n2
	}
	return Solution{U: u, Norm2: numeric.Dot(u, u)}, nil
}

func wolfeMinNorm(zs [][]float64) ([]float64, error) {
	start, scale := 0, 1.0
	for i, z := range zs {
		if numeric.Dot(z, z) < numeric.Dot(zs[start], zs[start]) {
			start = i
		}
		scale = max(scale, numeric.Dot(z, z))
	}
	corral, weights := []int{start}, []float64{1}
	x := append([]float64(nil), zs[start]...)
	for iter := 0; iter < 64*len(zs)+1024; iter++ {
		// Major step: the most violating vertex.
		jBest, vBest := -1, numeric.Dot(x, x)-1e-12*scale
		for j, z := range zs {
			if v := numeric.Dot(x, z); v < vBest {
				jBest, vBest = j, v
			}
		}
		if jBest < 0 {
			return x, nil
		}
		in := false
		for _, c := range corral {
			in = in || c == jBest
		}
		if !in {
			corral, weights = append(corral, jBest), append(weights, 0)
		}
		// Minor loop: back to the relative interior of the corral's
		// affine min-norm point.
		for {
			if len(corral) == 0 {
				return nil, errors.New("svm: wolfe corral collapsed")
			}
			a, err := wolfeAffine(zs, corral)
			if err != nil {
				drop := 0
				for i, w := range weights {
					if w < weights[drop] {
						drop = i
					}
				}
				corral = append(corral[:drop:drop], corral[drop+1:]...)
				weights = append(weights[:drop:drop], weights[drop+1:]...)
				continue
			}
			theta := 1.0
			for i := range a {
				if a[i] < -1e-11 {
					theta = min(theta, weights[i]/(weights[i]-a[i]))
				}
			}
			kept, keptW, sum := corral[:0], weights[:0], 0.0
			for i := range a {
				if w := (1-theta)*weights[i] + theta*a[i]; theta == 1 || w > 1e-12 {
					kept, keptW, sum = append(kept, corral[i]), append(keptW, w), sum+w
				}
			}
			corral, weights = kept, keptW
			if theta == 1 {
				break
			}
			for i := range weights {
				weights[i] /= sum
			}
		}
		x = make([]float64, len(x))
		for i, c := range corral {
			for j := range x {
				x[j] += weights[i] * zs[c][j]
			}
		}
	}
	return x, nil
}

// wolfeAffine returns the affine weights (Σa = 1) minimizing
// ‖Σ a_i z_{c_i}‖², from the bordered Gram system.
func wolfeAffine(zs [][]float64, corral []int) ([]float64, error) {
	k := len(corral)
	m := linalg.NewMatrix(k+1, k+1)
	rhs := make([]float64, k+1)
	rhs[0] = 1
	for i := range k {
		m.Set(0, i+1, 1)
		m.Set(i+1, 0, 1)
		for j := range k {
			m.Set(i+1, j+1, numeric.Dot(zs[corral[i]], zs[corral[j]]))
		}
	}
	sol, err := linalg.Solve(m, rhs)
	if err != nil {
		return nil, err
	}
	if math.IsNaN(sol[0]) {
		return nil, linalg.ErrSingular
	}
	return sol[1:], nil
}
