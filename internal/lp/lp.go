// Package lp implements low-dimensional linear programming (§4.1 of
// Assadi–Karpov–Zhang, PODS 2019): the constraint representation,
// Seidel's randomized incremental algorithm with lexicographic
// tie-breaking (the paper's requirement that f map every subset to the
// lexicographically smallest optimum), and the lptype.Domain adapter
// that exposes the basis-computation (Tb) and violation-test (Tv)
// primitives of Proposition 4.1 to the meta-algorithm. Tb is
// lptype.SolvePivot with Seidel as its small solve. The dense two-phase
// simplex that Seidel is tested against lives in the tests.
//
// # Bounding box
//
// LP-type theory requires f(A) to be defined for every subset A,
// including the empty set. Following standard practice the solvers
// start from an axis-aligned box [-Box, +Box]^d; f(∅) is the
// lexicographically smallest box corner optimal for the objective. The
// box is a regularization at a scale (default 1e9) far above any
// workload in this repository; solutions touching it indicate an
// unbounded input and can be detected with Basis.AtBox.
//
// The box holds at every level of the recursion. Each level puts its
// remaining coordinates on the box, and a coordinate that a violation
// eliminates keeps its box as two rows in front of the next level's
// rows, so every answer is the optimum over the box. The box is never
// a row of the input or of a basis: a basis's tight set determines its
// optimum together with the implicit box.
package lp

import (
	"fmt"
	"math"

	"lowdimlp/internal/numeric"
)

// DefaultBox is the default half-width of the implicit bounding box.
const DefaultBox = 1e9

// Halfspace is a single linear constraint A·x ≤ B in d dimensions.
type Halfspace struct {
	A []float64
	B float64
}

// Eval returns A·x - B; the constraint is satisfied iff Eval ≤ 0.
func (h Halfspace) Eval(x []float64) float64 {
	return numeric.Dot(h.A, x) - h.B
}

// Satisfied reports whether x satisfies the constraint up to the
// package tolerance.
func (h Halfspace) Satisfied(x []float64) bool {
	return h.Eval(x) <= violationSlack(h, x)
}

// violationSlack returns the absolute slack below which a constraint
// evaluation is considered satisfied, scaled to the data.
func violationSlack(h Halfspace, x []float64) float64 {
	scale := math.Abs(h.B) + 1
	for i, a := range h.A {
		scale += math.Abs(a * x[i])
	}
	return numeric.Eps * scale
}

// Clone returns a deep copy of the halfspace.
func (h Halfspace) Clone() Halfspace {
	return Halfspace{A: append([]float64(nil), h.A...), B: h.B}
}

func (h Halfspace) String() string {
	return fmt.Sprintf("%v·x ≤ %v", h.A, h.B)
}

// Problem is a d-dimensional linear program: minimize Objective·x
// subject to a set of halfspaces and the implicit box |x_i| ≤ Box.
type Problem struct {
	Dim       int
	Objective []float64
	Box       float64 // 0 means DefaultBox
}

// NewProblem returns a Problem for the given objective vector.
func NewProblem(objective []float64) Problem {
	return Problem{Dim: len(objective), Objective: append([]float64(nil), objective...)}
}

func (p Problem) box() float64 {
	if p.Box > 0 {
		return p.Box
	}
	return DefaultBox
}

// Solution is the result of solving an LP subset.
type Solution struct {
	X     []float64 // the lexicographically smallest optimal point
	Value float64   // Objective·X
}

// AtBox reports whether the solution touches the bounding box, which
// for well-posed inputs means the original (un-boxed) LP is unbounded
// in the objective direction or feasible only outside the box.
func (s Solution) AtBox(box float64) bool {
	for _, v := range s.X {
		if math.Abs(v) >= box*(1-1e-6) {
			return true
		}
	}
	return false
}
