package meb

import (
	"encoding/binary"
	"errors"
	"math"

	"lowdimlp/internal/lptype"
	"lowdimlp/internal/numeric"
)

// Basis is the LP-type basis for MEB: the minimum enclosing ball of the
// solved subset plus its support points (the determining set, ≤ d+1
// points on the boundary).
type Basis struct {
	B       Ball
	Support []Point
}

// Own returns b with its support points copied into one allocation of
// their own. A point decoded from a wire row is that row, so a basis
// kept past its solve (a warm-start cache entry) would otherwise keep
// the whole input it was solved from alive. The copy is exact.
func (b Basis) Own() Basis {
	b.Support = numeric.CloneRows(b.Support, func(p *Point) *[]float64 { return (*[]float64)(p) })
	return b
}

// Domain adapts minimum enclosing ball to the lptype.Domain interface
// (Proposition 4.3). Points are constraints; f(A) is the radius of the
// smallest ball enclosing A (unique, so no tie-breaking is needed —
// the paper makes the same observation for SVM and MEB).
type Domain struct {
	Dim int
}

// NewDomain returns a MEB domain for points in R^dim.
func NewDomain(dim int) *Domain { return &Domain{Dim: dim} }

// Solve computes the basis of the point subset (Tb). Solve(∅) is the
// null ball, which every point violates.
func (d *Domain) Solve(pts []Point) (Basis, error) {
	return lptype.SolvePivot[Point, Basis](d, pts)
}

// SolveSmall is the small solve lptype.SolvePivot pivots over: the
// minimum enclosing ball of at most d+2 points, with the support that
// certifies it. The points are sorted into canonical bit order first,
// so the result depends only on the set.
func (d *Domain) SolveSmall(pts []Point) (Basis, error) { return solveSmall(pts) }

// Value returns f(b), the squared radius (−1 for the null ball).
func (d *Domain) Value(b Basis) float64 { return b.B.R2 }

// Basis returns the support points of b.
func (d *Domain) Basis(b Basis) []Point { return b.Support }

// Violates reports whether p violates b: adding p would grow the ball,
// which happens exactly when p is outside it (Tv).
func (d *Domain) Violates(b Basis, p Point) bool { return !b.B.Contains(p) }

// FirstViolator returns the index of the first point of pts outside b,
// or -1: Violates point by point, with bound() hoisted as the block
// kernels hoist it.
func (d *Domain) FirstViolator(b Basis, pts []Point) int {
	thr := b.B.bound()
	for i, p := range pts {
		if !(b.B.Dist2(p) <= thr) {
			return i
		}
	}
	return -1
}

// ViolatesRow is the columnar violation test: a wire row *is* a point,
// so the cast is free and the test bit-identical to Violates.
func (d *Domain) ViolatesRow(b Basis, row []float64) bool { return !b.B.Contains(Point(row)) }

// CombinatorialDim returns ν = d+1 (§4.3).
func (d *Domain) CombinatorialDim() int { return d.Dim + 1 }

// VCDim returns λ = d+1 (complements of balls in R^d, Wenocur–Dudley,
// quoted in §4.3) — tight, so unlike SVM there is nothing to sharpen.
//
// Derivation. A violation range is a ball complement {p : |p−c| > r}.
// Lift p ↦ (p, |p|²) onto the paraboloid in R^{d+1}: the containment
// test |p|² − 2⟨c,p⟩ ≤ r² − |c|² becomes a halfspace test on the
// lifted points with normal (−2c, 1) and a FREE offset r² − |c|² —
// d+1 real parameters (c and the offset), so the shatter function is
// O(n^{d+1}) and λ ≤ d+1 (complementing every range preserves which
// sets are shattered). It is exactly d+1: the vertices of a regular
// simplex plus its center are shattered by balls, the classical
// lower bound. Contrast svm.Domain.VCDim, where the margin
// normalization pins the offset and drops the bound to d, and
// sea.Domain.VCDim, where a shared slab normal saves one parameter
// against the generic lifted bound.
func (d *Domain) VCDim() int { return d.Dim + 1 }

// ErrShortBuffer reports a truncated encoding.
var ErrShortBuffer = errors.New("meb: short buffer")

// BasisCodec serializes a basis as center + squared radius, the only
// state a remote party needs for violation tests.
type BasisCodec struct{ Dim int }

// Append serializes b onto dst.
func (c BasisCodec) Append(dst []byte, b Basis) []byte {
	if b.B.IsEmpty() {
		// Null ball: encode NaN center.
		for i := 0; i <= c.Dim; i++ {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(math.NaN()))
		}
		return dst
	}
	for _, v := range b.B.Center {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.B.R2))
}

// Decode parses one basis from src (support points are not transmitted).
func (c BasisCodec) Decode(src []byte) (Basis, int, error) {
	need := 8 * (c.Dim + 1)
	if len(src) < need {
		return Basis{}, 0, ErrShortBuffer
	}
	ctr := make([]float64, c.Dim)
	for i := range ctr {
		ctr[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	r2 := math.Float64frombits(binary.LittleEndian.Uint64(src[8*c.Dim:]))
	if math.IsNaN(r2) {
		return Basis{B: EmptyBall}, need, nil
	}
	return Basis{B: Ball{Center: ctr, R2: r2}}, need, nil
}

// Bits returns the encoded size of a basis in bits.
func (c BasisCodec) Bits(Basis) int { return 64 * (c.Dim + 1) }
