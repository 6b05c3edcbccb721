package lptype_test

import (
	"testing"

	"lowdimlp/internal/lp"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/meb"
	"lowdimlp/internal/numeric"
	"lowdimlp/internal/sea"
	"lowdimlp/internal/svm"
)

// The differential harness behind TestBlockViolatorMatchesRowViolator
// and FuzzBlockViolatorMatchesRowViolator: for each registered kind it
// builds a basis from a prefix of random rows and exposes the per-row
// reference (ViolatesRow, the oracle) next to the block kernel
// (ViolatesBlock, the device under test). The contract being pinned is
// DESIGN.md §12's: the block decision for rows[i] is bit-for-bit the
// per-row decision, for every dimension. d = 1…6 covers both the
// unrolled loops (d = 2–4) and the width-generic one (d = 1, 5, 6).

type blockFns struct {
	rowv   func(row []float64) bool
	blockv func(rows [][]float64, idx []int32) []int32
}

type blockHarness struct {
	name  string
	width func(d int) int
	// build solves the first k rows into a basis; ok=false means the
	// subset was unsolvable (e.g. inseparable SVM examples) and the
	// case is skipped.
	build func(d int, rows [][]float64, k int) (blockFns, bool)
}

// rowLoopDomain hides a domain's block kernels: the embedded interface
// promotes Domain's methods only and ViolatesRow is forwarded, so
// lptype.NewRowAccess over it scans through the counted per-row loop
// (kernel.ClassRowLoop). The wrapped domain must be a RowViolator.
type rowLoopDomain[C, B any] struct{ lptype.Domain[C, B] }

func (d rowLoopDomain[C, B]) ViolatesRow(b B, row []float64) bool {
	return d.Domain.(lptype.RowViolator[B]).ViolatesRow(b, row)
}

func copyRow(row []float64) []float64 { return append([]float64(nil), row...) }

var blockHarnesses = []blockHarness{
	{
		name:  "lp",
		width: func(d int) int { return d + 1 },
		build: func(d int, rows [][]float64, k int) (blockFns, bool) {
			obj := make([]float64, d)
			for i := range obj {
				obj[i] = 1
			}
			dom := lp.NewDomain(lp.NewProblem(obj), 7)
			cons := make([]lp.Halfspace, 0, k)
			for _, row := range rows[:k] {
				r := copyRow(row)
				cons = append(cons, lp.Halfspace{A: r[:d], B: r[d]})
			}
			b, err := dom.Solve(cons)
			if err != nil {
				return blockFns{}, false
			}
			return blockFns{
				rowv:   func(row []float64) bool { return dom.ViolatesRow(b, row) },
				blockv: func(rs [][]float64, idx []int32) []int32 { return dom.ViolatesBlock(b, rs, idx) },
			}, true
		},
	},
	{
		name:  "meb",
		width: func(d int) int { return d },
		build: func(d int, rows [][]float64, k int) (blockFns, bool) {
			dom := meb.NewDomain(d)
			pts := make([]meb.Point, 0, k)
			for _, row := range rows[:k] {
				pts = append(pts, meb.Point(copyRow(row)))
			}
			// k=0 is deliberate: the null ball violates every point,
			// exercising the kernels' empty-basis fast path.
			b, err := dom.Solve(pts)
			if err != nil {
				return blockFns{}, false
			}
			return blockFns{
				rowv:   func(row []float64) bool { return dom.ViolatesRow(b, row) },
				blockv: func(rs [][]float64, idx []int32) []int32 { return dom.ViolatesBlock(b, rs, idx) },
			}, true
		},
	},
	{
		name:  "svm",
		width: func(d int) int { return d + 1 },
		build: func(d int, rows [][]float64, k int) (blockFns, bool) {
			dom := svm.NewDomain(d)
			exs := make([]svm.Example, 0, k)
			for _, row := range rows[:k] {
				r := copyRow(row)
				y := 1.0
				if r[d] < 0 {
					y = -1
				}
				exs = append(exs, svm.Example{X: r[:d], Y: y})
			}
			b, err := dom.Solve(exs)
			if err != nil {
				return blockFns{}, false // inseparable subset: no basis to test
			}
			return blockFns{
				rowv:   func(row []float64) bool { return dom.ViolatesRow(b, row) },
				blockv: func(rs [][]float64, idx []int32) []int32 { return dom.ViolatesBlock(b, rs, idx) },
			}, true
		},
	},
	{
		name:  "sea",
		width: func(d int) int { return d },
		build: func(d int, rows [][]float64, k int) (blockFns, bool) {
			dom := sea.NewDomain(d, 3)
			pts := make([]sea.Point, 0, k)
			for _, row := range rows[:k] {
				pts = append(pts, sea.Point(copyRow(row)))
			}
			b, err := dom.Solve(pts)
			if err != nil {
				return blockFns{}, false
			}
			return blockFns{
				rowv:   func(row []float64) bool { return dom.ViolatesRow(b, row) },
				blockv: func(rs [][]float64, idx []int32) []int32 { return dom.ViolatesBlock(b, rs, idx) },
			}, true
		},
	},
}

func genRows(n, w int, seed uint64) [][]float64 {
	rng := numeric.NewRand(seed, 99)
	rows := make([][]float64, n)
	for i := range rows {
		r := make([]float64, w)
		for j := range r {
			r[j] = rng.NormFloat64()
		}
		rows[i] = r
	}
	return rows
}

// checkBlock compares ViolatesBlock's index list against the per-row
// oracle, byte for byte.
func checkBlock(t *testing.T, name string, fns blockFns, rows [][]float64) {
	t.Helper()
	want := make([]int32, 0, len(rows))
	for i, row := range rows {
		if fns.rowv(row) {
			want = append(want, int32(i))
		}
	}
	got := fns.blockv(rows, make([]int32, 0, len(rows)))
	if len(got) != len(want) {
		t.Fatalf("%s: block found %d violators, per-row oracle found %d",
			name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: violator list diverges at %d: block %d vs oracle %d", name, i, got[i], want[i])
		}
	}
}

// TestBlockViolatorMatchesRowViolator sweeps kinds × dimensions ×
// basis sizes and requires the block violator sets to match the
// per-row oracle exactly. Odd row count — the kernels must not assume
// any block shape.
func TestBlockViolatorMatchesRowViolator(t *testing.T) {
	for _, h := range blockHarnesses {
		for d := 1; d <= 6; d++ {
			for _, k := range []int{0, 2, 8} {
				rows := genRows(257, h.width(d), uint64(1000*d+k))
				fns, ok := h.build(d, rows, k)
				if !ok {
					continue
				}
				checkBlock(t, h.name, fns, rows)
			}
		}
	}
}

// FuzzBlockViolatorMatchesRowViolator is the differential fuzz target
// of the kernel layer: random kind, dimension, basis prefix, block
// length and RNG seed — the block kernel must agree with the per-row
// reference on every generated instance. Wired into the CI fuzz smoke
// alongside the codec targets.
func FuzzBlockViolatorMatchesRowViolator(f *testing.F) {
	f.Add(uint8(0), uint8(2), uint8(6), uint16(300), uint64(1))
	f.Add(uint8(1), uint8(3), uint8(0), uint16(513), uint64(2))
	f.Add(uint8(2), uint8(4), uint8(9), uint16(64), uint64(3))
	f.Add(uint8(3), uint8(1), uint8(4), uint16(7), uint64(4))
	f.Add(uint8(1), uint8(5), uint8(3), uint16(1), uint64(5))
	f.Fuzz(func(t *testing.T, kind, dim, k uint8, n uint16, seed uint64) {
		h := blockHarnesses[int(kind)%len(blockHarnesses)]
		d := 1 + int(dim)%6
		nn := 1 + int(n)%1024
		kk := int(k) % 16
		if kk > nn {
			kk = nn
		}
		rows := genRows(nn, h.width(d), seed)
		fns, ok := h.build(d, rows, kk)
		if !ok {
			t.Skip("basis prefix unsolvable")
		}
		checkBlock(t, h.name, fns, rows)
	})
}
