package lp

import (
	"math"

	"lowdimlp/internal/kernel"
	"lowdimlp/internal/numeric"
)

// Block violation kernels (lptype.BlockViolator; DESIGN.md §5). Each
// kernel evaluates one cursor block of wire rows a_1…a_d b against a
// basis point in a single call: the per-row reference is
// ViolatesRow — !Satisfied, i.e. !(Dot(A, x) − B ≤ Eps·scale) with
// scale = |B| + 1 + Σ|a_i·x_i| — and the unrolled loops below perform
// exactly that operation sequence per row (dot accumulated in index
// order first, then the scale in index order), so the decisions are
// bit-identical to the per-row path on every input. The speedup comes
// solely from eliminating the per-row closure dispatch and letting
// the compiler keep x's coordinates in registers with no bounds
// checks in the inner loop.

// BlockKernel reports the kernel class ViolatesBlock dispatches to.
func (d *Domain) BlockKernel() kernel.Class { return kernel.ClassFor(d.Prob.Dim) }

// ViolatesBlock appends the ascending positions of the rows violating
// b and returns the extended buffer.
func (d *Domain) ViolatesBlock(b Basis, rows [][]float64, idx []int32) []int32 {
	x := b.Sol.X
	switch d.BlockKernel() {
	case kernel.ClassD2:
		x0, x1 := x[0], x[1]
		for i, row := range rows {
			dot := 0.0
			dot += row[0] * x0
			dot += row[1] * x1
			scale := math.Abs(row[2]) + 1
			scale += math.Abs(row[0] * x0)
			scale += math.Abs(row[1] * x1)
			if !(dot-row[2] <= numeric.Eps*scale) {
				idx = append(idx, int32(i))
			}
		}
	case kernel.ClassD3:
		x0, x1, x2 := x[0], x[1], x[2]
		for i, row := range rows {
			dot := 0.0
			dot += row[0] * x0
			dot += row[1] * x1
			dot += row[2] * x2
			scale := math.Abs(row[3]) + 1
			scale += math.Abs(row[0] * x0)
			scale += math.Abs(row[1] * x1)
			scale += math.Abs(row[2] * x2)
			if !(dot-row[3] <= numeric.Eps*scale) {
				idx = append(idx, int32(i))
			}
		}
	case kernel.ClassD4:
		x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
		for i, row := range rows {
			dot := 0.0
			dot += row[0] * x0
			dot += row[1] * x1
			dot += row[2] * x2
			dot += row[3] * x3
			scale := math.Abs(row[4]) + 1
			scale += math.Abs(row[0] * x0)
			scale += math.Abs(row[1] * x1)
			scale += math.Abs(row[2] * x2)
			scale += math.Abs(row[3] * x3)
			if !(dot-row[4] <= numeric.Eps*scale) {
				idx = append(idx, int32(i))
			}
		}
	default:
		// Generic width loop: the reference arithmetic verbatim, still
		// one dispatch per block.
		dim := d.Prob.Dim
		for i, row := range rows {
			if !(Halfspace{A: row[:dim], B: row[dim]}).Satisfied(x) {
				idx = append(idx, int32(i))
			}
		}
	}
	return idx
}
