package sea

import (
	"math"

	"lowdimlp/internal/kernel"
	"lowdimlp/internal/numeric"
)

// Block violation kernels (lptype.BlockViolator; DESIGN.md §5). The
// per-row reference is ViolatesRow — liftEval followed by the
// two-sided slab test: with q² = Dot(p, p) and dot = Σ 2·p_i·x_i
// (both accumulated in index order), lift = q² − dot must lie within
// [v, u] up to slack = Eps·(|q²| + 1 + Σ|2·p_i·x_i|). The unrolled
// loops repeat that exact operation sequence per row; the Eps·|u| and
// Eps·|v| comparison terms are row-independent and hoisted (same
// float per row as computing them inline). The empty basis violates
// every point, exactly as the per-row path does.

// BlockKernel reports the kernel class ViolatesBlock dispatches to.
func (d *Domain) BlockKernel() kernel.Class { return kernel.ClassFor(d.Dim) }

// ViolatesBlock appends the ascending positions of the rows violating
// b and returns the extended buffer.
func (d *Domain) ViolatesBlock(b Basis, rows [][]float64, idx []int32) []int32 {
	if b.IsEmpty() {
		for i := range rows {
			idx = append(idx, int32(i))
		}
		return idx
	}
	x := b.X
	dim := d.Dim
	u, v := x[dim], x[dim+1]
	eu := numeric.Eps * math.Abs(u)
	ev := numeric.Eps * math.Abs(v)
	switch d.BlockKernel() {
	case kernel.ClassD2:
		x0, x1 := x[0], x[1]
		for i, row := range rows {
			var q2 float64
			q2 += row[0] * row[0]
			q2 += row[1] * row[1]
			dot := 0.0
			scale := math.Abs(q2) + 1
			t0 := 2 * row[0] * x0
			dot += t0
			scale += math.Abs(t0)
			t1 := 2 * row[1] * x1
			dot += t1
			scale += math.Abs(t1)
			lift := q2 - dot
			slack := numeric.Eps * scale
			if lift-u > slack+eu || v-lift > slack+ev {
				idx = append(idx, int32(i))
			}
		}
	case kernel.ClassD3:
		x0, x1, x2 := x[0], x[1], x[2]
		for i, row := range rows {
			var q2 float64
			q2 += row[0] * row[0]
			q2 += row[1] * row[1]
			q2 += row[2] * row[2]
			dot := 0.0
			scale := math.Abs(q2) + 1
			t0 := 2 * row[0] * x0
			dot += t0
			scale += math.Abs(t0)
			t1 := 2 * row[1] * x1
			dot += t1
			scale += math.Abs(t1)
			t2 := 2 * row[2] * x2
			dot += t2
			scale += math.Abs(t2)
			lift := q2 - dot
			slack := numeric.Eps * scale
			if lift-u > slack+eu || v-lift > slack+ev {
				idx = append(idx, int32(i))
			}
		}
	case kernel.ClassD4:
		x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
		for i, row := range rows {
			var q2 float64
			q2 += row[0] * row[0]
			q2 += row[1] * row[1]
			q2 += row[2] * row[2]
			q2 += row[3] * row[3]
			dot := 0.0
			scale := math.Abs(q2) + 1
			t0 := 2 * row[0] * x0
			dot += t0
			scale += math.Abs(t0)
			t1 := 2 * row[1] * x1
			dot += t1
			scale += math.Abs(t1)
			t2 := 2 * row[2] * x2
			dot += t2
			scale += math.Abs(t2)
			t3 := 2 * row[3] * x3
			dot += t3
			scale += math.Abs(t3)
			lift := q2 - dot
			slack := numeric.Eps * scale
			if lift-u > slack+eu || v-lift > slack+ev {
				idx = append(idx, int32(i))
			}
		}
	default:
		for i, row := range rows {
			lift, ru, rv, slack := liftEval(x, Point(row))
			if lift-ru > slack+numeric.Eps*math.Abs(ru) || rv-lift > slack+numeric.Eps*math.Abs(rv) {
				idx = append(idx, int32(i))
			}
		}
	}
	return idx
}
