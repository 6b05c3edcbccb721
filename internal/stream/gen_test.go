package stream

import (
	"runtime"
	"testing"

	"lowdimlp/internal/core"
	"lowdimlp/internal/dataset"
	"lowdimlp/internal/meb"
)

// genSource is a dataset.Source of n rows, each generated on demand by
// fill into the cursor's batch arena: the rows are never materialized,
// and a pass allocates nothing once the arena exists. onReset, when
// set, runs at every rewind, i.e. before every pass.
type genSource struct {
	n, width int
	fill     func(row []float64, i int)
	onReset  func()
}

func (s *genSource) Width() int                { return s.width }
func (s *genSource) Rows() int                 { return s.n }
func (s *genSource) NewCursor() dataset.Cursor { return &genCursor{src: s} }

type genCursor struct {
	src   *genSource
	pos   int
	arena []float64
}

func (c *genCursor) Reset() error {
	if c.src.onReset != nil {
		c.src.onReset()
	}
	c.pos = 0
	return nil
}

func (c *genCursor) Next(batch []dataset.Row) (int, error) {
	w := c.src.width
	if len(c.arena) < len(batch)*w {
		c.arena = make([]float64, len(batch)*w)
	}
	k := 0
	for ; k < len(batch) && c.pos < c.src.n; k++ {
		row := c.arena[k*w : (k+1)*w : (k+1)*w]
		c.src.fill(row, c.pos)
		batch[k] = row
		c.pos++
	}
	return k, nil
}

// hashPoint fills p with point i of a fixed cloud in [-1, 1)^d without
// allocating (splitmix64 per coordinate).
func hashPoint(p meb.Point, i int) meb.Point {
	x := uint64(i)*0x9e3779b97f4a7c15 + 0x1234567
	for j := range p {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		p[j] = float64(z>>11)/(1<<52) - 1
	}
	return p
}

// TestFuncStreamHeapDoesNotScaleWithN: a generated source is never
// materialized, so the bytes a solve allocates follow the net size
// (∝ n^{1/r}) and the number of passes, not n — ten times the items
// must stay within twice the allocation. The comparison is per pass
// because the pass count is the seed's luck (4 to 24 at these sizes),
// and r = 6 keeps the net's own growth (10^{1/6} ≈ 1.5×) inside the
// bound; materializing the source once would cost 16 MB against the
// ≈ 60 kB a pass allocates.
func TestFuncStreamHeapDoesNotScaleWithN(t *testing.T) {
	if testing.Short() {
		t.Skip("million-item stream")
	}
	const d = 2
	allocPerPass := func(n int) uint64 {
		src := &genSource{n: n, width: d, fill: func(row []float64, i int) { hashPoint(row, i) }}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, stats, err := SolveDataset(mebAccess(d), src, Options{Core: core.Options{R: 6, Seed: 1, NetConst: 0.5}})
		runtime.ReadMemStats(&after)
		if err != nil || stats.DirectSolve {
			t.Fatalf("n=%d: %v %+v", n, err, stats)
		}
		total := after.TotalAlloc - before.TotalAlloc
		t.Logf("n=%d: %d bytes allocated over %d passes (net %d)", n, total, stats.Passes, stats.NetSize)
		return total / uint64(stats.Passes)
	}
	small, large := allocPerPass(100_000), allocPerPass(1_000_000)
	if large > 2*small {
		t.Fatalf("10× the items allocated %d bytes per pass against %d: the heap scales with n", large, small)
	}
}
