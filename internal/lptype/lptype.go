// Package lptype defines the LP-type (generalized linear programming)
// abstraction from §2.1 of Assadi–Karpov–Zhang (PODS 2019), and generic
// solvers over it.
//
// An LP-type problem is a pair (S, f) where S is a finite constraint
// set and f maps subsets of S to a totally ordered range, satisfying
// monotonicity and locality. A basis B ⊆ S is an inclusion-minimal
// subset with f(B) = f(S). The paper's meta-algorithm (Algorithm 1,
// implemented in internal/core) needs only two geometric primitives,
// which this package captures in the Domain interface:
//
//   - Solve: compute a basis (and its solution) for a subset of
//     constraints — the paper's Tb primitive;
//   - Violates: decide whether a constraint violates a basis, i.e.
//     f(B ∪ {c}) > f(B) — the paper's Tv primitive.
//
// Concrete problems (internal/lp, internal/svm, internal/meb,
// internal/sea) implement Domain for their own constraint and basis
// types; the meta-algorithm and the three big-data model
// implementations are generic over it. lp and sea compute Tb with
// Seidel's algorithm. svm and meb, the quadratic kinds, implement Small
// instead: an exact small solve on at most ν+1 constraints
// (SmallSolve), which SolvePivot, their only large solve, pivots over.
package lptype

import (
	"errors"
	"fmt"
	"math"

	"lowdimlp/internal/kernel"
)

// ErrInfeasible reports that the constraint subset given to Solve has
// an empty feasible region. By monotonicity of f this certifies that
// the full problem is infeasible as well.
var ErrInfeasible = errors.New("lptype: infeasible constraint set")

// ErrUnbounded reports that the objective is unbounded below on the
// feasible region of the subset. Domains that install an implicit
// bounding box (internal/lp does) never return it.
var ErrUnbounded = errors.New("lptype: unbounded objective")

// ErrCycling reports that an iterative solver stopped making progress:
// a SolvePivot pivot that did not increase f, or a Seidel answer that
// fails its own constraints. Either indicates numerical trouble on
// degenerate input.
var ErrCycling = errors.New("lptype: solver failed to converge (degenerate input?)")

// Domain provides the geometric primitives of a concrete LP-type
// problem with constraint type C and basis type B.
//
// Implementations must guarantee, up to their numeric tolerance:
//
//   - Solve(T) returns a basis B of T: Violates(B, c) is false for all
//     c ∈ T, and the constraints returned by Basis(B) are a subset of T
//     of size at most CombinatorialDim() with f(Basis(B)) = f(T).
//   - Solve(nil) succeeds and returns the basis of the empty set
//     (f(∅), e.g. the bounding-box optimum for LP).
//   - Violates(B, c) is exactly "f(B ∪ {c}) > f(B)" (property (P2) of
//     the paper: the solution point of B fails to satisfy c).
type Domain[C, B any] interface {
	// Solve computes a basis of the given constraints.
	Solve(constraints []C) (B, error)
	// Basis returns the constraints forming b, |result| ≤ CombinatorialDim().
	Basis(b B) []C
	// Violates reports whether c violates b: f(B ∪ {c}) > f(B).
	Violates(b B, c C) bool
	// CombinatorialDim returns ν, the maximum basis cardinality.
	CombinatorialDim() int
	// VCDim returns λ, the VC dimension of the induced set system (§2.2).
	VCDim() int
}

// RowViolator is the dataset-aware extension of Domain: a violation
// test that reads a constraint directly from its flat wire-row
// encoding (internal/dataset row layout) instead of a decoded C.
//
// Implementations must compute exactly the arithmetic of
// Violates(b, Item(row)) — the scans are required to be bit-identical
// to the typed per-item reference — but without materializing the
// constraint, so a batched scan performs zero allocations per row.
// All four concrete domains (lp, svm, meb, sea) implement it.
type RowViolator[B any] interface {
	// ViolatesRow reports whether the constraint encoded by row
	// violates b: f(B ∪ {row}) > f(B).
	ViolatesRow(b B, row []float64) bool
}

// BlockViolator is the block-kernel extension of RowViolator: one
// call evaluates a whole cursor block of rows against a basis,
// writing violator positions into a reusable index buffer. This is
// what turns the per-row interface dispatch that every scan bottoms
// out in into one dispatch per block, and lets the inner loop be
// specialized (unrolled) by dimension.
//
// The contract is exactness, not approximation: the violation
// decision for rows[i] must be bit-for-bit ViolatesRow(b, rows[i]) —
// implementations unroll and hoist, but never reorder a row's
// floating-point operations relative to the per-row reference (see
// DESIGN.md §12 for why that preserves every conformance pin). All
// four concrete domains implement it for d = 2, 3, 4 plus a generic
// width loop.
type BlockViolator[B any] interface {
	RowViolator[B]
	// ViolatesBlock appends to idx the positions i (ascending, one
	// per violating row) with ViolatesRow(b, rows[i]) true, and
	// returns the extended buffer. Callers pass idx with len 0 and
	// reuse the returned capacity across blocks.
	ViolatesBlock(b B, rows [][]float64, idx []int32) []int32
	// BlockKernel reports the kernel class ViolatesBlock dispatches
	// to (kernel.ClassFor of the inner-loop dimension) — the label the
	// runtime counters (internal/kernel) record block evaluations
	// under.
	BlockKernel() kernel.Class
}

// RowAccess couples a Domain with its flat-row encoding — the access
// abstraction the columnar backends scan through. It prefers the
// domain's native RowViolator (zero-decode, zero-alloc) and falls back
// to decode-then-Violates, which is always available and always
// agrees; when the domain also provides block kernels (BlockViolator),
// block scans run through them.
type RowAccess[C, B any] struct {
	dom    Domain[C, B]
	decode func(row []float64) C
	vrow   func(b B, row []float64) bool
	vblock func(b B, rows [][]float64, idx []int32) []int32
	kclass func() kernel.Class
}

// NewRowAccess builds the access layer for dom, with decode mapping a
// flat wire row to a constraint (the engine Spec's Item). Block scans
// run through dom's kernels whenever dom implements BlockViolator, and
// through the counted per-row loop (kernel.ClassRowLoop) otherwise.
func NewRowAccess[C, B any](dom Domain[C, B], decode func(row []float64) C) RowAccess[C, B] {
	ra := RowAccess[C, B]{dom: dom, decode: decode}
	if rv, ok := dom.(RowViolator[B]); ok {
		ra.vrow = rv.ViolatesRow
	} else {
		ra.vrow = func(b B, row []float64) bool { return dom.Violates(b, decode(row)) }
	}
	if bv, ok := dom.(BlockViolator[B]); ok {
		ra.vblock = bv.ViolatesBlock
		ra.kclass = bv.BlockKernel
	}
	return ra
}

// Domain returns the underlying domain.
func (ra RowAccess[C, B]) Domain() Domain[C, B] { return ra.dom }

// Item decodes one flat row into a constraint. The constraint may
// alias the row's memory; callers retaining it across buffer reuse
// must copy the row first.
func (ra RowAccess[C, B]) Item(row []float64) C { return ra.decode(row) }

// ViolatesRow is the flat-row violation test (Tv over the arena).
func (ra RowAccess[C, B]) ViolatesRow(b B, row []float64) bool { return ra.vrow(b, row) }

// ViolatesBlock evaluates a whole block: it resets idx to length 0,
// appends the ascending positions of the rows violating b, and
// returns the (possibly grown) buffer for reuse. Decisions are
// bit-identical to calling ViolatesRow on each row — through the
// domain's block kernels when available, otherwise through the
// per-row reference loop — and every call is recorded in the
// internal/kernel counters under the class that ran.
func (ra RowAccess[C, B]) ViolatesBlock(b B, rows [][]float64, idx []int32) []int32 {
	idx = idx[:0]
	if ra.vblock != nil {
		idx = ra.vblock(b, rows, idx)
		kernel.Count(ra.kclass(), len(rows))
		return idx
	}
	for i, row := range rows {
		if ra.vrow(b, row) {
			idx = append(idx, int32(i))
		}
	}
	kernel.Count(kernel.ClassRowLoop, len(rows))
	return idx
}

// WeightExpBlock fills exps[i] (i < len(rows), len(exps) must cover
// the block) with the on-the-fly weight exponent of §3.2, a(rows[i]) =
// #{stored bases the row's constraint violates} — one ViolatesBlock
// call per stored basis instead of len(rows)·len(bases) per-row
// dispatches. idx is the reusable violation index buffer, returned
// (possibly grown) for the next block. Each basis contributes +1 to
// precisely the rows it is violated by.
func (ra RowAccess[C, B]) WeightExpBlock(bases []B, rows [][]float64, exps, idx []int32) []int32 {
	for i := range rows {
		exps[i] = 0
	}
	for k := range bases {
		idx = ra.ViolatesBlock(bases[k], rows, idx)
		for _, p := range idx {
			exps[p]++
		}
	}
	return idx
}

// PowWeight returns mult^e through the documented-exact fast paths
// math.Pow(x, 0) = 1 and math.Pow(x, 1) = x. Most rows violate zero
// or one stored bases, and skipping Pow for those exponents is
// bit-identical by the function's documentation — the fused stream
// pass and the sites' weight state both rely on exactly this.
func PowWeight(mult float64, e int) float64 {
	switch e {
	case 0:
		return 1
	case 1:
		return mult
	}
	return math.Pow(mult, float64(e))
}

// Verify checks that b is consistent with being a basis of S: no
// constraint of S violates b. (Together with locality this certifies
// f(b) = f(S); see Lemma 3.1 of the paper.) It returns the index of the
// first violating constraint, or -1.
func Verify[C, B any](dom Domain[C, B], s []C, b B) int {
	for i, c := range s {
		if dom.Violates(b, c) {
			return i
		}
	}
	return -1
}

// BruteForce solves (S, f) by enumerating constraint subsets of size at
// most ν in increasing cardinality and returning the basis of the first
// subset that no constraint of S violates. By monotonicity+locality
// such a subset determines f(S). Exponential; for cross-checking the
// real solvers on tiny instances only.
func BruteForce[C, B any](dom Domain[C, B], s []C) (B, error) {
	var zero B
	nu := dom.CombinatorialDim()
	n := len(s)
	subset := make([]C, 0, nu)
	var rec func(start, need int) (B, bool, error)
	rec = func(start, need int) (B, bool, error) {
		if need == 0 {
			b, err := dom.Solve(subset)
			if err != nil {
				// An infeasible subset certifies global infeasibility;
				// other errors (unbounded on a small subset) just mean
				// this subset is not a basis.
				if errors.Is(err, ErrInfeasible) {
					return zero, false, err
				}
				return zero, false, nil
			}
			if Verify(dom, s, b) < 0 {
				return b, true, nil
			}
			return zero, false, nil
		}
		for i := start; i <= n-need; i++ {
			subset = append(subset, s[i])
			b, ok, err := rec(i+1, need-1)
			subset = subset[:len(subset)-1]
			if err != nil || ok {
				return b, ok, err
			}
		}
		return zero, false, nil
	}
	for size := 0; size <= min(nu, n); size++ {
		b, ok, err := rec(0, size)
		if err != nil {
			return zero, err
		}
		if ok {
			return b, nil
		}
	}
	return zero, fmt.Errorf("lptype: brute force found no basis of size ≤ %d (ν too small or inconsistent domain?)", nu)
}
