package coordinator_test

import (
	"testing"

	"lowdimlp/internal/coordinator"
	"lowdimlp/internal/core"
	"lowdimlp/internal/dataset"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/meb"
	"lowdimlp/internal/numeric"
)

func pointCloud(n, d int, seed uint64) *dataset.Store {
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

func mebAccess(d int) lptype.RowAccess[meb.Point, meb.Basis] {
	return lptype.NewRowAccess[meb.Point, meb.Basis](meb.NewDomain(d),
		func(row []float64) meb.Point { return meb.Point(row) })
}

// TestSolveDatasetMatchesSlice pins the protocol's layout
// independence: strided round-robin shards of one store must
// reproduce an explicit [][]C partition — one contiguous store per
// part, as the engine's typed entry point encodes it — bit for bit:
// same answer, same rounds, same metered communication.
func TestSolveDatasetMatchesSlice(t *testing.T) {
	const n, d, k = 12000, 3, 5 // past the m ≥ n ship-all threshold at r = 2
	st := pointCloud(n, d, 11)
	parts := make([][]meb.Point, k)
	for i := 0; i < n; i++ {
		parts[i%k] = append(parts[i%k], meb.Point(st.Row(i)))
	}
	ra := mebAccess(d)
	perPart := make([]*lptype.SiteWeights[meb.Point, meb.Basis], k)
	for i, part := range parts {
		ps := dataset.NewStore(d)
		for _, p := range part {
			ps.AppendRow(p)
		}
		perPart[i] = lptype.NewSiteWeights(ra, ps)
	}
	opt := coordinator.Options{Core: core.Options{R: 2, Seed: 13, NetConst: 0.5}}
	want, wantStats, err := coordinator.Solve(
		ra.Domain(), perPart, meb.PointCodec{Dim: d}, meb.BasisCodec{Dim: d}, opt)
	if err != nil {
		t.Fatal(err)
	}
	strided, err := lptype.ShardSiteWeights(ra, st, k)
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats, err := coordinator.Solve(
		ra.Domain(), strided, meb.PointCodec{Dim: d}, meb.BasisCodec{Dim: d}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if want.B.R2 != got.B.R2 {
		t.Fatalf("radius² %v (per-part stores) vs %v (strided shards)", want.B.R2, got.B.R2)
	}
	if wantStats != gotStats {
		t.Fatalf("stats drift:\n per-part %+v\n strided  %+v", wantStats, gotStats)
	}
	if wantStats.DirectSolve {
		t.Fatalf("ship-all path: the workload is too small to exercise the protocol: %+v", wantStats)
	}
}

// TestShardScanAllocations is the allocation-regression guard for the
// coordinator shard path: sharding an instance across k sites is O(k)
// allocations (no row copies), and a site-local weight/violation scan
// over a columnar shard allocates nothing at all.
func TestShardScanAllocations(t *testing.T) {
	const n, d, k = 8192, 3, 8
	st := pointCloud(n, d, 23)
	view := st.View()

	shardAllocs := testing.AllocsPerRun(20, func() {
		if got := view.Shard(k); len(got) != k {
			t.Fatalf("%d shards", len(got))
		}
	})
	if shardAllocs > 2 { // one slice of k headers (+ rounding slack)
		t.Fatalf("Shard(%d) allocates %.1f times — it must not copy rows", k, shardAllocs)
	}

	ra := mebAccess(d)
	dom := meb.NewDomain(d)
	seedPts := make([]meb.Point, 8)
	for i := range seedPts {
		seedPts[i] = meb.Point(st.Row(i))
	}
	pending, err := dom.Solve(seedPts)
	if err != nil {
		t.Fatal(err)
	}
	bases := []meb.Basis{pending}
	store := lptype.ViewStore(ra, view.Shard(k)[3])
	scanAllocs := testing.AllocsPerRun(10, func() {
		store.Scan(bases, &pending, 1.7)
	})
	if scanAllocs > 0 {
		t.Fatalf("columnar site scan allocates %.1f times per pass, want 0", scanAllocs)
	}
}
