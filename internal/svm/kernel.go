package svm

import (
	"math"

	"lowdimlp/internal/kernel"
	"lowdimlp/internal/numeric"
)

// Block violation kernels (lptype.BlockViolator; DESIGN.md §5). The
// per-row reference over the wire row x_1…x_d y is
// ViolatesRow — !Satisfied, i.e. !(y·Dot(u, x) − 1 ≥ −64·Eps·scale)
// with scale = 1 + Σ|x_i·u_i|. The unrolled loops repeat that exact
// operation sequence per row: Dot(u, x) accumulates u_i·x_i in index
// order (operand order matters only for NaN payloads, which never
// change a comparison's outcome, but we keep it anyway), then the
// margin, then the tolerance scale with the reference's x_i·u_i
// operand order.

// BlockKernel reports the kernel class ViolatesBlock dispatches to.
func (d *Domain) BlockKernel() kernel.Class { return kernel.ClassFor(d.Dim) }

// ViolatesBlock appends the ascending positions of the rows violating
// b and returns the extended buffer.
func (d *Domain) ViolatesBlock(b Basis, rows [][]float64, idx []int32) []int32 {
	u := b.Sol.U
	switch d.BlockKernel() {
	case kernel.ClassD2:
		u0, u1 := u[0], u[1]
		for i, row := range rows {
			var s float64
			s += u0 * row[0]
			s += u1 * row[1]
			m := row[2]*s - 1
			scale := 1.0
			scale += math.Abs(row[0] * u0)
			scale += math.Abs(row[1] * u1)
			if !(m >= -(64 * numeric.Eps * scale)) {
				idx = append(idx, int32(i))
			}
		}
	case kernel.ClassD3:
		u0, u1, u2 := u[0], u[1], u[2]
		for i, row := range rows {
			var s float64
			s += u0 * row[0]
			s += u1 * row[1]
			s += u2 * row[2]
			m := row[3]*s - 1
			scale := 1.0
			scale += math.Abs(row[0] * u0)
			scale += math.Abs(row[1] * u1)
			scale += math.Abs(row[2] * u2)
			if !(m >= -(64 * numeric.Eps * scale)) {
				idx = append(idx, int32(i))
			}
		}
	case kernel.ClassD4:
		u0, u1, u2, u3 := u[0], u[1], u[2], u[3]
		for i, row := range rows {
			var s float64
			s += u0 * row[0]
			s += u1 * row[1]
			s += u2 * row[2]
			s += u3 * row[3]
			m := row[4]*s - 1
			scale := 1.0
			scale += math.Abs(row[0] * u0)
			scale += math.Abs(row[1] * u1)
			scale += math.Abs(row[2] * u2)
			scale += math.Abs(row[3] * u3)
			if !(m >= -(64 * numeric.Eps * scale)) {
				idx = append(idx, int32(i))
			}
		}
	default:
		dim := d.Dim
		for i, row := range rows {
			if !(Example{X: row[:dim], Y: row[dim]}).Satisfied(u) {
				idx = append(idx, int32(i))
			}
		}
	}
	return idx
}
