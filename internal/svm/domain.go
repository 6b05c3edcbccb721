package svm

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"

	"lowdimlp/internal/lptype"
	"lowdimlp/internal/numeric"
)

// Basis is the LP-type basis for hard-margin SVM: the optimal normal
// vector of the solved subset plus the support vectors (tight
// constraints — the determining set).
type Basis struct {
	Sol     Solution
	Support []Example
}

// Own returns b with its support vectors copied into one allocation of
// their own. An example decoded from a wire row aliases that row, so a
// basis kept past its solve (a warm-start cache entry) would otherwise
// keep the whole input it was solved from alive. The copy is exact.
func (b Basis) Own() Basis {
	b.Support = numeric.CloneRows(b.Support, func(e *Example) *[]float64 { return &e.X })
	return b
}

// Domain adapts the hard-margin SVM to the lptype.Domain interface
// (Proposition 4.2). Examples are constraints; f(A) = ‖u*(A)‖².
type Domain struct {
	Dim int
}

// NewDomain returns an SVM domain for examples in R^dim.
func NewDomain(dim int) *Domain { return &Domain{Dim: dim} }

// Solve computes the basis of the example subset (Tb).
func (d *Domain) Solve(examples []Example) (Basis, error) {
	return lptype.SolvePivot[Example, Basis](d, examples)
}

// SolveSmall is the small solve lptype.SolvePivot pivots over: the
// optimum of at most d+2 examples, with the support vectors that
// certify it. The examples are sorted into canonical bit order first,
// so the result depends only on the set.
func (d *Domain) SolveSmall(examples []Example) (Basis, error) { return solveSmall(d.Dim, examples) }

// Value returns f(b) = ‖u‖².
func (d *Domain) Value(b Basis) float64 { return b.Sol.Norm2 }

// Basis returns the support vectors of b.
func (d *Domain) Basis(b Basis) []Example { return b.Support }

// Violates reports whether e violates b: adding e would grow ‖u‖²,
// which happens exactly when b's hyperplane misses the unit functional
// margin on e (Tv).
func (d *Domain) Violates(b Basis, e Example) bool { return !e.Satisfied(b.Sol.U) }

// FirstViolator returns the index of the first example of exs that
// violates b, or -1: Violates example by example.
func (d *Domain) FirstViolator(b Basis, exs []Example) int {
	return slices.IndexFunc(exs, func(e Example) bool { return !e.Satisfied(b.Sol.U) })
}

// ViolatesRow is the columnar violation test over the wire row
// x_1…x_d y — allocation-free and bit-identical to Violates over the
// decoded example.
func (d *Domain) ViolatesRow(b Basis, row []float64) bool {
	return !(Example{X: row[:d.Dim], Y: row[d.Dim]}).Satisfied(b.Sol.U)
}

// CombinatorialDim returns ν = d+1 (§4.2).
func (d *Domain) CombinatorialDim() int { return d.Dim + 1 }

// VCDim returns λ = d, sharpening the generic halfspace bound d+1
// that §4.2 quotes — the value that sizes the ε-nets (Lemma 2.2
// samples O~(λ/ε) examples per iteration).
//
// Derivation. A violation range is parametrized by a weight vector u
// and reads {(x,y) : y·⟨u,x⟩ < 1}. Folding the label into the point —
// z = y·x, a fixed map independent of u — turns the family into the
// fixed-offset halfspace complements {z : ⟨u,z⟩ < 1}: u supplies all
// d real parameters and the threshold is pinned at 1 by the margin
// normalization, unlike general halfspaces whose free offset is the
// extra +1. The violation pattern u induces on n folded points is a
// cell of the arrangement of the n hyperplanes {u : ⟨u,z_i⟩ = 1} in
// R^d, and n > d hyperplanes in R^d cut at most Σ_{i≤d} C(n,i) ≤
// 2^n − 1 cells, so no d+1 examples are shattered. The scaled basis
// points z_i = e_i ARE shattered (set u_i = 0 on the target subset,
// u_i = 2 off it), so λ = d exactly. The solvers are Las Vegas — the
// smaller λ shrinks every net and never touches correctness.
func (d *Domain) VCDim() int { return d.Dim }

// ErrShortBuffer reports a truncated encoding.
var ErrShortBuffer = errors.New("svm: short buffer")

// BasisCodec serializes a basis as the normal vector u plus ‖u‖².
type BasisCodec struct{ Dim int }

// Append serializes b onto dst.
func (c BasisCodec) Append(dst []byte, b Basis) []byte {
	for _, v := range b.Sol.U {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.Sol.Norm2))
}

// Decode parses one basis from src (support vectors not transmitted).
func (c BasisCodec) Decode(src []byte) (Basis, int, error) {
	need := 8 * (c.Dim + 1)
	if len(src) < need {
		return Basis{}, 0, ErrShortBuffer
	}
	u := make([]float64, c.Dim)
	for i := range u {
		u[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	n2 := math.Float64frombits(binary.LittleEndian.Uint64(src[8*c.Dim:]))
	return Basis{Sol: Solution{U: u, Norm2: n2}}, need, nil
}

// Bits returns the encoded size of a basis in bits.
func (c BasisCodec) Bits(Basis) int { return 64 * (c.Dim + 1) }
