// Package svm implements the hard-margin linear support vector machine
// (§4.2 of Assadi–Karpov–Zhang, PODS 2019):
//
//	minimize ‖u‖²  subject to  y_j·⟨u, x_j⟩ ≥ 1 for all j,        (6)
//
// plus the lptype.Domain adapter exposing the Tb/Tv primitives of
// Proposition 4.2. The optimum of (6) is unique on every subset, so —
// as the paper notes — no lexicographic tie-breaking is needed.
//
// # Algorithm
//
// Writing z_j := y_j·x_j, problem (6) is dual to the polytope-distance
// problem: if p* is the minimum-norm point of conv{z_j} then
// u* = p*/‖p*‖² (and (6) is infeasible iff p* = 0, i.e. the origin lies
// in the hull). We compute p* with Wolfe's minimum-norm-point algorithm
// (Wolfe 1976), which terminates finitely and is the standard robust
// method for this problem.
package svm

import (
	"errors"
	"fmt"
	"math"

	"lowdimlp/internal/linalg"
	"lowdimlp/internal/numeric"
)

// ErrNotSeparable reports that the training set admits no separating
// hyperplane with positive margin: the hard-margin QP is infeasible. By
// monotonicity this certifies the full problem infeasible whenever it
// occurs on a subset.
var ErrNotSeparable = errors.New("svm: training set is not linearly separable")

// Example is one labeled training point; Y must be +1 or -1. As an
// LP-type constraint it reads y·⟨u, x⟩ ≥ 1. Note that model (6) has no
// bias term: separators pass through the origin (append a constant
// coordinate to X to emulate a bias).
type Example struct {
	X []float64
	Y float64
}

// Margin returns y·⟨u, x⟩ - 1; the constraint is satisfied iff ≥ 0.
func (e Example) Margin(u []float64) float64 {
	return e.Y*numeric.Dot(u, e.X) - 1
}

// Satisfied reports whether u classifies e with the required unit
// functional margin, up to tolerance.
func (e Example) Satisfied(u []float64) bool {
	return e.Margin(u) >= -marginTol(e, u)
}

func marginTol(e Example, u []float64) float64 {
	scale := 1.0
	for i, x := range e.X {
		scale += math.Abs(x * u[i])
	}
	return 64 * numeric.Eps * scale
}

func (e Example) String() string {
	return fmt.Sprintf("(%v, y=%+.0f)", e.X, e.Y)
}

// Solution is the optimal hyperplane for a subset of examples.
type Solution struct {
	U     []float64 // normal vector; the geometric margin is 1/‖U‖
	Norm2 float64   // ‖U‖² — the LP-type objective value f
}

// separableFloor: if the min-norm point of conv{y_i x_i} is closer to
// the origin than this (relative to the data scale), we declare the
// input non-separable (margin below ~1e-7 of scale).
const separableFloor = 1e-7

// Solve computes the hard-margin SVM for the given examples in R^dim.
// Solve(dim, nil) returns u = 0 (f(∅) = 0, which every example
// violates). Returns ErrNotSeparable on non-separable input.
func Solve(dim int, examples []Example) (Solution, error) {
	if len(examples) == 0 {
		return Solution{U: make([]float64, dim)}, nil
	}
	zs := make([][]float64, len(examples))
	scale := 0.0
	for i, e := range examples {
		z := make([]float64, dim)
		for j := range z {
			z[j] = e.Y * e.X[j]
		}
		zs[i] = z
		if n := numeric.Norm2(z); n > scale {
			scale = n
		}
	}
	p, err := minNormPoint(zs)
	if err != nil {
		return Solution{}, err
	}
	n2 := numeric.Dot(p, p)
	if n2 <= (separableFloor*scale)*(separableFloor*scale) || n2 == 0 {
		return Solution{}, ErrNotSeparable
	}
	u := make([]float64, dim)
	for i := range u {
		u[i] = p[i] / n2
	}
	return Solution{U: u, Norm2: numeric.Dot(u, u)}, nil
}

// minNormPoint runs Wolfe's algorithm for the minimum-norm point of
// conv(zs). It returns a point x ∈ conv(zs) with
// ⟨x, z⟩ ≥ ‖x‖² − ε for all z ∈ zs (the optimality certificate).
func minNormPoint(zs [][]float64) ([]float64, error) {
	// Corral S (indices into zs) and its convex weights.
	start := 0
	best := math.Inf(1)
	for i, z := range zs {
		if n := numeric.Dot(z, z); n < best {
			start, best = i, n
		}
	}
	corral := []int{start}
	weights := []float64{1}
	x := append([]float64(nil), zs[start]...)

	dataScale := 1.0
	for _, z := range zs {
		if n := numeric.Dot(z, z); n > dataScale {
			dataScale = n
		}
	}
	tol := 1e-12 * dataScale

	// Wolfe's major/minor loops terminate finitely in exact
	// arithmetic. In floats they can stall in a deterministic
	// no-progress loop, which the budget caps: the entering vertex is
	// appended with weight 0, affineMinNorm declares the bordered Gram
	// system singular, smallestWeight drops that same vertex, x does
	// not move, and the next major step picks the vertex again.
	budget := 64*len(zs) + 1024
	for iter := 0; iter < budget; iter++ {
		// Major step: most violating vertex.
		xx := numeric.Dot(x, x)
		jBest, vBest := -1, xx-tol
		for j, z := range zs {
			if v := numeric.Dot(x, z); v < vBest {
				jBest, vBest = j, v
			}
		}
		if jBest < 0 {
			return x, nil // optimality certificate holds
		}
		if !contains(corral, jBest) {
			corral = append(corral, jBest)
			weights = append(weights, 0)
		}
		// Minor loop: restore x to the relative interior of the
		// affine min-norm point of the corral.
		for {
			a, err := affineMinNorm(zs, corral)
			if err != nil {
				// Affinely dependent corral: drop the member with the
				// smallest weight and retry.
				drop := smallestWeight(weights)
				corral = removeAt(corral, drop)
				weights = removeAt(weights, drop)
				if len(corral) == 0 {
					return nil, errors.New("svm: wolfe corral collapsed")
				}
				continue
			}
			if allNonneg(a, 1e-11) {
				weights = a
				x = combine(zs, corral, weights)
				break
			}
			// Move from weights toward a until the first coefficient
			// hits zero; drop all zeroed members.
			theta := 1.0
			for i := range a {
				if a[i] < 0 {
					t := weights[i] / (weights[i] - a[i])
					if t < theta {
						theta = t
					}
				}
			}
			kept := corral[:0]
			keptW := weights[:0]
			for i := range a {
				w := (1-theta)*weights[i] + theta*a[i]
				if w > 1e-12 {
					kept = append(kept, corral[i])
					keptW = append(keptW, w)
				}
			}
			corral = kept
			weights = normalize(keptW)
			if len(corral) == 0 {
				return nil, errors.New("svm: wolfe corral collapsed")
			}
		}
	}
	// Budget exhausted: x is still a valid convex-hull point with a
	// slightly weaker certificate; return it rather than failing, the
	// callers re-verify feasibility.
	return x, nil
}

// affineMinNorm returns the affine coefficients a (Σa = 1) minimizing
// ‖Σ a_i z_{c_i}‖², by solving the bordered Gram KKT system.
func affineMinNorm(zs [][]float64, corral []int) ([]float64, error) {
	k := len(corral)
	m := linalg.NewMatrix(k+1, k+1)
	rhs := make([]float64, k+1)
	rhs[0] = 1
	for i := 0; i < k; i++ {
		m.Set(0, i+1, 1)
		m.Set(i+1, 0, 1)
		for j := 0; j < k; j++ {
			m.Set(i+1, j+1, numeric.Dot(zs[corral[i]], zs[corral[j]]))
		}
	}
	sol, err := linalg.Solve(m, rhs)
	if err != nil {
		return nil, err
	}
	return sol[1:], nil
}

func combine(zs [][]float64, corral []int, w []float64) []float64 {
	x := make([]float64, len(zs[corral[0]]))
	for i, c := range corral {
		for j := range x {
			x[j] += w[i] * zs[c][j]
		}
	}
	return x
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func allNonneg(a []float64, tol float64) bool {
	for _, v := range a {
		if v < -tol {
			return false
		}
	}
	return true
}

func smallestWeight(w []float64) int {
	best, bi := math.Inf(1), 0
	for i, v := range w {
		if v < best {
			best, bi = v, i
		}
	}
	return bi
}

func removeAt[T any](s []T, i int) []T {
	return append(s[:i:i], s[i+1:]...)
}

func normalize(w []float64) []float64 {
	var sum float64
	for _, v := range w {
		sum += v
	}
	if sum <= 0 {
		return w
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}
