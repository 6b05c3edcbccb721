package stream

import (
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
	want, wantStats, err := solveRef[meb.Point, meb.Basis](dom, NewSliceStream(pts), n, opt)
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
	// mechanics, never arithmetic or RNG order): SolveDataset's loop
	// again, over a 7-row buffer.
	s := NewDatasetSolver(mebAccess(d), st.Rows(), st.Width(), opt)
	cur := st.NewCursor()
	defer dataset.CloseCursor(cur)
	batch := make([]dataset.Row, 7)
	for !s.Done() {
		s.BeginPass()
		if err := s.scan(cur, batch); err != nil {
			t.Fatal(err)
		}
		s.EndPass() // terminal errors surface via Result
	}
	got2, _, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if got2.B.R2 != want.B.R2 {
		t.Fatalf("batch=7 radius² %v, want %v", got2.B.R2, want.B.R2)
	}
}

// TestFusedPassAllocations is the allocation-regression guard for the
// streaming hot path: one fused pass over n constraints, read the way
// SolveDataset reads it (scan: caller-owned cursor and batch buffer),
// must allocate nothing.
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
	cur := st.NewCursor()
	batch := make([]dataset.Row, batchSize)

	allocs := testing.AllocsPerRun(10, func() {
		if err := s.scan(cur, batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("fused pass: %.1f allocs for %d rows (want 0)", allocs, n)
	}
	t.Logf("fused pass over %d rows: %.1f allocs", n, allocs)
}

// TestSharedScanMatchesSolo pins that a solver's outcome depends only
// on the rows it is fed, in order — not on who else reads them: k
// solvers with distinct seeds fed from one cursor (fanPass) return
// bit-identical bases and identical stats to k solo SolveDataset runs.
func TestSharedScanMatchesSolo(t *testing.T) {
	const n, d, k = 3000, 3, 6
	st := cloud(n, d, 42)
	opts := make([]Options, k)
	for i := range opts {
		opts[i] = Options{Core: coreOpt(4, uint64(100+i))} // r=4 → genuinely fused, multi-pass
	}

	type solo struct {
		b  meb.Basis
		st Stats
	}
	want := make([]solo, k)
	for i, opt := range opts {
		b, stats, err := SolveDataset(mebAccess(d), st, opt)
		if err != nil {
			t.Fatal(err)
		}
		if stats.DirectSolve {
			t.Fatalf("solo %d direct-solved (n ≤ 2m+1) — workload too small to exercise the fused path", i)
		}
		want[i] = solo{b, stats}
	}

	solvers := make([]*DatasetSolver[meb.Point, meb.Basis], k)
	for i, opt := range opts {
		solvers[i] = NewDatasetSolver(mebAccess(d), st.Rows(), st.Width(), opt)
	}
	cur := st.NewCursor()
	defer dataset.CloseCursor(cur)
	batch := make([]dataset.Row, dataset.DefaultBatchRows)
	var sharedPasses int
	for {
		var sinks []blockSink
		for _, s := range solvers {
			if !s.Done() {
				s.BeginPass()
				sinks = append(sinks, s)
			}
		}
		if len(sinks) == 0 {
			break
		}
		if err := fanPass(cur, batch, sinks...); err != nil {
			t.Fatal(err)
		}
		sharedPasses++
		for _, s := range sinks {
			s.(*DatasetSolver[meb.Point, meb.Basis]).EndPass()
		}
	}

	maxPasses := 0
	for i, s := range solvers {
		b, stats, err := s.Result()
		if err != nil {
			t.Fatalf("solver %d: %v", i, err)
		}
		if b.B.R2 != want[i].b.B.R2 {
			t.Fatalf("solver %d radius² %v (shared) vs %v (solo)", i, b.B.R2, want[i].b.B.R2)
		}
		for j := range want[i].b.B.Center {
			if b.B.Center[j] != want[i].b.B.Center[j] {
				t.Fatalf("solver %d center[%d] %v vs %v", i, j, b.B.Center[j], want[i].b.B.Center[j])
			}
		}
		if stats != want[i].st {
			t.Fatalf("solver %d stats drift: %+v vs %+v", i, stats, want[i].st)
		}
		if stats.Passes > maxPasses {
			maxPasses = stats.Passes
		}
	}
	// Every solver finished within its own solo pass count.
	if sharedPasses != maxPasses {
		t.Fatalf("shared scan used %d passes, want max(per-solver)=%d", sharedPasses, maxPasses)
	}
}
