package meb

import (
	"lowdimlp/internal/kernel"
)

// Block violation kernels (lptype.BlockViolator; DESIGN.md §5). A
// wire row is a point, and the per-row reference is
// ViolatesRow — !Contains, i.e. !(Dist2(p) ≤ bound()) with the squared
// distance accumulated coordinate by coordinate in index order. The
// unrolled loops below repeat that exact operation sequence per row;
// the threshold is row-independent, so hoisting it out of the loop
// computes the same float the reference computes per row. The null
// ball contains nothing, so it marks every row a violator, exactly as
// the per-row path does.

// BlockKernel reports the kernel class ViolatesBlock dispatches to.
func (d *Domain) BlockKernel() kernel.Class { return kernel.ClassFor(d.Dim) }

// ViolatesBlock appends the ascending positions of the rows violating
// b and returns the extended buffer.
func (d *Domain) ViolatesBlock(b Basis, rows [][]float64, idx []int32) []int32 {
	if b.B.IsEmpty() {
		for i := range rows {
			idx = append(idx, int32(i))
		}
		return idx
	}
	c := b.B.Center
	thr := b.B.bound()
	switch d.BlockKernel() {
	case kernel.ClassD2:
		c0, c1 := c[0], c[1]
		for i, row := range rows {
			var s float64
			d0 := row[0] - c0
			s += d0 * d0
			d1 := row[1] - c1
			s += d1 * d1
			if !(s <= thr) {
				idx = append(idx, int32(i))
			}
		}
	case kernel.ClassD3:
		c0, c1, c2 := c[0], c[1], c[2]
		for i, row := range rows {
			var s float64
			d0 := row[0] - c0
			s += d0 * d0
			d1 := row[1] - c1
			s += d1 * d1
			d2 := row[2] - c2
			s += d2 * d2
			if !(s <= thr) {
				idx = append(idx, int32(i))
			}
		}
	case kernel.ClassD4:
		c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
		for i, row := range rows {
			var s float64
			d0 := row[0] - c0
			s += d0 * d0
			d1 := row[1] - c1
			s += d1 * d1
			d2 := row[2] - c2
			s += d2 * d2
			d3 := row[3] - c3
			s += d3 * d3
			if !(s <= thr) {
				idx = append(idx, int32(i))
			}
		}
	default:
		for i, row := range rows {
			if !b.B.Contains(Point(row)) {
				idx = append(idx, int32(i))
			}
		}
	}
	return idx
}
