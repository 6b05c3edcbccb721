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
// Problem (6) is LP-type, so the package supplies only the exact small
// solve — the optimum of at most d+2 examples, chosen among the
// equality solutions of their subsets by the KKT conditions — and
// lptype.SolvePivot pivots over it for inputs of any size (DESIGN.md
// §15, "The quadratic kinds"). (6) is infeasible exactly when no
// candidate of some small solve satisfies its examples.
package svm

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"lowdimlp/internal/lptype"
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

// Solve computes the hard-margin SVM for the given examples in R^dim.
// Solve(dim, nil) returns u = 0 (f(∅) = 0, which every example
// violates). Returns ErrNotSeparable on non-separable input.
func Solve(dim int, examples []Example) (Solution, error) {
	b, err := NewDomain(dim).Solve(examples)
	return b.Sol, err
}

// solveSmall is Domain.SolveSmall. With z_j = y_j·x_j, a subset S of at
// most d examples with linearly independent z_j proposes the u of least
// norm with ⟨u, z_j⟩ = 1 on S: u = Σ α_j z_j for the Gram system
// G·α = 1, certified when α ≥ 0 (the KKT multipliers). The answer is
// the first certified candidate every example satisfies, and failing
// that the feasible candidate of least norm (lptype.Gram gives the
// order; its path starts from the examples before the last one, the
// previous basis when SolvePivot calls). No feasible candidate means
// the examples are not separable. u depends only on its support.
func solveSmall(d int, examples []Example) (Basis, error) {
	m := len(examples)
	if m == 0 {
		return Basis{Sol: Solution{U: make([]float64, d)}}, nil
	}
	es := append([]Example(nil), examples...)
	order := func(e, f Example) int {
		if c := numeric.CompareBits(e.X, f.X); c != 0 {
			return c
		}
		return cmp.Compare(math.Float64bits(e.Y), math.Float64bits(f.Y))
	}
	slices.SortFunc(es, order)
	v, _ := slices.BinarySearchFunc(es, examples[m-1], order)
	z := make([]float64, m*d+m) // the z_j, then the right-hand sides 1
	for j, e := range es {
		for i, x := range e.X {
			z[j*d+i] = e.Y * x
		}
		z[m*d+j] = 1
	}
	mask, u, n2 := lptype.Gram{V: z[:m*d], D: d, R: z[m*d:], Start: (uint64(1)<<m - 1) &^ (1 << v),
		Feasible: func(u []float64, _ uint64) (float64, bool) {
			for _, e := range es {
				if !e.Satisfied(u) {
					return 0, false
				}
			}
			return numeric.Dot(u, u), true
		}}.Solve()
	if mask == 0 {
		return Basis{}, ErrNotSeparable
	}
	support := make([]Example, 0, bits.OnesCount64(mask))
	for a := mask; a != 0; a &= a - 1 {
		support = append(support, es[bits.TrailingZeros64(a)])
	}
	return Basis{Sol: Solution{U: slices.Clone(u), Norm2: n2}, Support: support}, nil
}
