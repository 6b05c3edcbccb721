package stream

import (
	"errors"
	"testing"

	"lowdimlp/internal/core"
	"lowdimlp/internal/dataset"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/meb"
	"lowdimlp/internal/numeric"
)

func coreOpt(r int, seed uint64) core.Options {
	return core.Options{R: r, Seed: seed, NetConst: 0.5}
}

// mebAccess builds the columnar access layer for a MEB domain.
func mebAccess(d int) lptype.RowAccess[meb.Point, meb.Basis] {
	return lptype.NewRowAccess[meb.Point, meb.Basis](meb.NewDomain(d),
		func(row []float64) meb.Point { return meb.Point(row) })
}

// cloud fills a columnar store with a deterministic point cloud.
func cloud(n, d int, seed uint64) *dataset.Store {
	st := dataset.NewStore(d)
	st.Grow(n)
	rng := numeric.NewRand(seed, 1)
	row := make([]float64, d)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		st.AppendRow(row)
	}
	return st
}

// TestSolveDatasetMatchesSlice pins the equivalence at the stream
// level: the columnar scan must reproduce the typed reference loop
// (solveRef) bit for bit — same passes, same nets, same basis.
func TestSolveDatasetMatchesSlice(t *testing.T) {
	const n, d = 3000, 3
	st := cloud(n, d, 42)
	pts := make([]meb.Point, n)
	for i := range pts {
		pts[i] = meb.Point(st.Row(i))
	}
	opt := Options{Core: coreOpt(2, 7)}
	dom := meb.NewDomain(d)
	want, wantStats, err := solveRef[meb.Point, meb.Basis](dom, pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats, err := SolveDataset(mebAccess(d), st, opt)
	if err != nil {
		t.Fatal(err)
	}
	if want.B.R2 != got.B.R2 {
		t.Fatalf("radius² %v (slice) vs %v (dataset)", want.B.R2, got.B.R2)
	}
	for i := range want.B.Center {
		if want.B.Center[i] != got.B.Center[i] {
			t.Fatalf("center[%d] %v vs %v", i, want.B.Center[i], got.B.Center[i])
		}
	}
	if want.B.IsEmpty() != got.B.IsEmpty() {
		t.Fatal("emptiness mismatch")
	}
	if wantStats.Passes != gotStats.Passes || wantStats.Iterations != gotStats.Iterations ||
		wantStats.NetSize != gotStats.NetSize || wantStats.ItemsScanned != gotStats.ItemsScanned {
		t.Fatalf("stats drift: %+v vs %+v", wantStats, gotStats)
	}
	// Batch size must not change anything (it only affects cursor
	// mechanics, never arithmetic or RNG order): SolveDataset's run
	// again, over a 7-row buffer.
	p := core.NewParams(n, dom.CombinatorialDim(), dom.VCDim(), opt.Core)
	s := newScanner(mebAccess(d), st, p, opt)
	s.batch = s.batch[:7]
	got2, _, err := core.Run(p, s, dom.Solve)
	if err != nil {
		t.Fatal(err)
	}
	if got2.B.R2 != want.B.R2 {
		t.Fatalf("batch=7 radius² %v, want %v", got2.B.R2, want.B.R2)
	}
}

// hollowSource reports rows it never yields: its cursor ends every pass
// at once.
type hollowSource struct{ rows, width int }

func (s hollowSource) Width() int                { return s.width }
func (s hollowSource) Rows() int                 { return s.rows }
func (s hollowSource) NewCursor() dataset.Cursor { return hollowCursor{} }

type hollowCursor struct{}

func (hollowCursor) Reset() error                    { return nil }
func (hollowCursor) Next([]dataset.Row) (int, error) { return 0, nil }

// TestEmptyPassIsErrEmptyStream: a source that reports n > 0 rows but
// whose pass yields none leaves the sampled path no row to draw the
// first net from — ErrEmptyStream after that one pass.
func TestEmptyPassIsErrEmptyStream(t *testing.T) {
	const d = 2
	_, stats, err := SolveDataset(mebAccess(d), hollowSource{rows: 50000, width: d},
		Options{Core: core.Options{R: 3, NetConst: 0.5}})
	if !errors.Is(err, ErrEmptyStream) || stats.Passes != 1 || stats.DirectSolve {
		t.Fatalf("error %v, %+v; want ErrEmptyStream after one sampled pass", err, stats)
	}
}

// TestFusedPassAllocations is the allocation-regression guard for the
// streaming hot path: one fused pass over n constraints, a Test the way
// core.Run calls it (the scanner's own cursor and batch buffer), must
// allocate nothing.
func TestFusedPassAllocations(t *testing.T) {
	const n, d, batchSize = 4096, 3, 256
	st := cloud(n, d, 17)
	seedPts := make([]meb.Point, 8)
	for i := range seedPts {
		seedPts[i] = meb.Point(st.Row(i))
	}
	pending, err := meb.NewDomain(d).Solve(seedPts)
	if err != nil {
		t.Fatal(err)
	}
	s := mkFusedSolver(st, pending, 5)
	s.batch = make([]dataset.Row, batchSize)

	allocs := testing.AllocsPerRun(10, func() {
		if _, _, _, err := s.Test(&pending); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("fused pass: %.1f allocs for %d rows (want 0)", allocs, n)
	}
	t.Logf("fused pass over %d rows: %.1f allocs", n, allocs)
}
