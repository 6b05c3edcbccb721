package baseline

import (
	"errors"
	"math"
	"path/filepath"
	"testing"

	"lowdimlp/internal/dataset"
	"lowdimlp/internal/lp"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/numeric"
	"lowdimlp/internal/workload"
)

func TestChanChen1D(t *testing.T) {
	p := lp.NewProblem([]float64{1})
	cons := []lp.Halfspace{
		{A: []float64{-1}, B: -3}, // x ≥ 3
		{A: []float64{1}, B: 10},
	}
	x, val, stats, err := ChanChen(p, lpRows(1, cons), 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.ApproxEqual(x[0], 3) || !numeric.ApproxEqual(val, 3) {
		t.Fatalf("x = %v val = %v, want 3", x, val)
	}
	if stats.Passes != 1 {
		t.Errorf("1-D must take one pass, took %d", stats.Passes)
	}
}

func TestChanChen2DMatchesSeidel(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		p, cons := workload.SphereLP(2, 2000, uint64(trial))
		want, err := lp.Seidel(p, cons, numeric.NewRand(uint64(trial), 1))
		if err != nil {
			t.Fatal(err)
		}
		_, val, stats, err := ChanChen(p, lpRows(2, cons), 3, 4)
		if err != nil {
			t.Fatalf("trial %d: %v (%v)", trial, err, stats)
		}
		// Geometric convergence: s = n^{1/3} ≈ 13, 3 rounds ⇒ cell
		// ratio 13³ ≈ 2200 on a width-8 box; the objective gap is tiny.
		if math.Abs(val-want.Value) > 2e-2*(math.Abs(want.Value)+1) {
			t.Fatalf("trial %d: chan-chen %v vs seidel %v", trial, val, want.Value)
		}
	}
}

func TestChanChenPassCounts(t *testing.T) {
	// The headline shape: passes ≈ r^{d-1} (times r grid rounds at the
	// top... our scheme: level d contributes a factor r, the base
	// level contributes 1 pass per evaluation round).
	n := 4096
	for _, d := range []int{2, 3} {
		p, cons := workload.SphereLP(d, n, uint64(d))
		for _, r := range []int{2, 3} {
			_, _, stats, err := ChanChen(p, lpRows(d, cons), r, 4)
			if err != nil {
				t.Fatal(err)
			}
			want := 1
			for l := 0; l < d-1; l++ {
				want *= r
			}
			if stats.Passes != want {
				t.Errorf("d=%d r=%d: passes = %d, want r^{d-1} = %d", d, r, stats.Passes, want)
			}
		}
	}
}

func TestChanChenInfeasible(t *testing.T) {
	p := lp.NewProblem([]float64{1})
	cons := []lp.Halfspace{
		{A: []float64{-1}, B: -5}, // x ≥ 5
		{A: []float64{1}, B: 3},   // x ≤ 3
	}
	if _, _, _, err := ChanChen(p, lpRows(1, cons), 2, 100); !errors.Is(err, ErrChanChenInfeasible) {
		t.Fatalf("err = %v, want ErrChanChenInfeasible", err)
	}
}

// TestChanChenReadsAnySource: the baseline reads rows through a cursor,
// so an in-memory store and the same rows read back from a dataset
// file (n > DefaultBatchRows: every pass spans several file batches)
// give the same point, value and resources, bit for bit.
func TestChanChenReadsAnySource(t *testing.T) {
	const d, n, r = 3, 1000, 2
	p, cons := workload.SphereLP(d, n, 5)
	st := lpRows(d, cons)
	path := filepath.Join(t.TempDir(), "rows.lds")
	info := dataset.Info{Kind: "lp", Dim: d, Width: d + 1, Objective: p.Objective, Rows: n}
	if err := dataset.WriteFile(path, info, st); err != nil {
		t.Fatal(err)
	}
	f, err := dataset.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	wantX, wantVal, wantStats, err := ChanChen(p, st, r, 4)
	if err != nil {
		t.Fatal(err)
	}
	gotX, gotVal, gotStats, err := ChanChen(p, f, r, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantX {
		if math.Float64bits(gotX[i]) != math.Float64bits(wantX[i]) {
			t.Fatalf("x[%d] = %v from the file, %v from the store", i, gotX[i], wantX[i])
		}
	}
	if gotVal != wantVal || gotStats.Passes != wantStats.Passes || gotStats.PeakTasks != wantStats.PeakTasks {
		t.Fatalf("file: value %v %+v, store: value %v %+v", gotVal, gotStats, wantVal, wantStats)
	}
	if wantStats.N != n || wantStats.Passes != r*r {
		t.Fatalf("stats %+v, want n = %d and r^{d-1} = %d passes", wantStats, n, r*r)
	}
}

// TestChanChenPinnedBits pins x and the value to the bit on three d = 3
// instances, as recorded with the typed-stream rendition that
// restricted each row by one wrapper per fixed variable: the 1-D pass
// must subtract a_v·x_v for v = d-1 down to 1, in that order (the
// other order moves the last bit of x_0 on all three).
func TestChanChenPinnedBits(t *testing.T) {
	for _, c := range []struct {
		seed uint64
		val  uint64
		x    [3]uint64
	}{
		{33, 0xbff2eff535e7878a, [3]uint64{0x3fde4bb977bd3c86, 0xbfd6000000000000, 0x3fea000000000000}},
		{34, 0xc004005d43a0cc14, [3]uint64{0x3fe19c7bcdf4e4ec, 0x3fe6800000000000, 0x3fdd000000000000}},
		{35, 0xbffa689660bf9154, [3]uint64{0xbfb9b14ac19dbac6, 0x3fe4800000000000, 0x3fe8800000000000}},
	} {
		p, cons := workload.SphereLP(3, 1024, c.seed)
		x, val, _, err := ChanChen(p, lpRows(3, cons), 2, 4)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(val) != c.val {
			t.Errorf("seed %d: value bits %x, want %x", c.seed, math.Float64bits(val), c.val)
		}
		for i := range x {
			if math.Float64bits(x[i]) != c.x[i] {
				t.Errorf("seed %d: x[%d] bits %x, want %x", c.seed, i, math.Float64bits(x[i]), c.x[i])
			}
		}
	}
}

// TestChanChenReturnsCursorError: a failing read ends the solve with
// the cursor's error; it is not mistaken for an infeasible grid task.
func TestChanChenReturnsCursorError(t *testing.T) {
	p, cons := workload.SphereLP(2, 600, 3)
	boom := errors.New("read failed")
	_, _, _, err := ChanChen(p, failingSource{lpRows(2, cons), boom}, 2, 4)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the cursor's error", err)
	}
	if _, _, _, err := ChanChen(p, lpRows(1, nil), 2, 4); !errors.Is(err, dataset.ErrWidth) {
		t.Fatalf("err = %v for 2-wide rows of a 2-variable lp, want ErrWidth", err)
	}
}

// failingSource is src whose cursors fail after their first batch.
type failingSource struct {
	*dataset.Store
	err error
}

func (s failingSource) NewCursor() dataset.Cursor {
	return &failingCursor{Cursor: s.Store.NewCursor(), err: s.err}
}

type failingCursor struct {
	dataset.Cursor
	err    error
	served bool
}

func (c *failingCursor) Reset() error { c.served = false; return c.Cursor.Reset() }

func (c *failingCursor) Next(batch []dataset.Row) (int, error) {
	if c.served {
		return 0, c.err
	}
	c.served = true
	return c.Cursor.Next(batch)
}

// lpRows encodes lp constraints as the wire rows (a_1…a_d, b).
func lpRows(d int, cons []lp.Halfspace) *dataset.Store {
	st := dataset.NewStore(d + 1)
	for _, h := range cons {
		st.AppendRow(append(append(make([]float64, 0, d+1), h.A...), h.B))
	}
	return st
}

// lpAccess is the row-access layer of an lp domain of dimension d.
func lpAccess(d int, dom lptype.Domain[lp.Halfspace, lp.Basis]) lptype.RowAccess[lp.Halfspace, lp.Basis] {
	return lptype.NewRowAccess(dom, func(row []float64) lp.Halfspace { return lp.Halfspace{A: row[:d], B: row[d]} })
}

func TestOneShotLeavesViolators(t *testing.T) {
	// A single small unweighted sample almost surely misses basis
	// constraints of a 2-D LP with 20000 tangent constraints.
	p, cons := workload.SphereLP(2, 20000, 11)
	dom := lp.NewDomain(p, 3)
	ra, rows := lpAccess(2, dom), lpRows(2, cons)
	_, res, err := OneShot(ra, rows, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violators == 0 {
		t.Error("one-shot sampling should leave violators on this family (the ablation point)")
	}
	// And with m = n it is exact.
	_, res, err = OneShot(ra, rows, len(cons)+10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violators != 0 {
		t.Error("full sample must be exact")
	}
}
