package lptype_test

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"lowdimlp/internal/dataset"
	"lowdimlp/internal/kernel"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/meb"
	"lowdimlp/internal/numeric"
)

func mebStoreFixture(t *testing.T, n, d int) (lptype.RowAccess[meb.Point, meb.Basis], *dataset.Store, []meb.Basis, meb.Basis) {
	t.Helper()
	dom := meb.NewDomain(d)
	ra := lptype.NewRowAccess[meb.Point, meb.Basis](dom,
		func(row []float64) meb.Point { return meb.Point(row) })
	st := dataset.NewStore(d)
	st.Grow(n)
	rng := numeric.NewRand(77, 1)
	row := make([]float64, d)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		st.AppendRow(row)
	}
	solvePrefix := func(lo, hi int) meb.Basis {
		pts := make([]meb.Point, 0, hi-lo)
		for i := lo; i < hi; i++ {
			pts = append(pts, meb.Point(st.Row(i)))
		}
		b, err := dom.Solve(pts)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	bases := []meb.Basis{solvePrefix(0, 6), solvePrefix(6, 14)}
	pending := solvePrefix(14, 20)
	return ra, st, bases, pending
}

// TestStoreMatchesSliceReference pins the site-scan layer: the one
// Store (a dataset.Source scanned in blocks) must reproduce the typed
// per-item reference (sliceStoreRef, ref_test.go) bit for bit —
// Kahan-accumulated weight sums, violator weight, count, every per-row
// weight and every decoded item — over a full view, a strided shard
// view and a buffered file whose blocks misalign with the scan
// batches, through the block kernels and through the counted per-row
// loop of a domain without them.
func TestStoreMatchesSliceReference(t *testing.T) {
	const n, d = 1337, 3 // odd size: final partial block
	_, st, bases, pending := mebStoreFixture(t, n, d)
	path := filepath.Join(t.TempDir(), "pts.lds")
	if err := dataset.WriteFile(path, dataset.Info{Kind: "meb", Dim: d, Width: d, Rows: n}, st); err != nil {
		t.Fatal(err)
	}
	file, err := dataset.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	file.BlockBytes = 8 * d * 13 // 13-row blocks against 256-row batches

	shard := st.View().Shard(3)[1]
	sources := []struct {
		name string
		src  dataset.Source
		view dataset.View // the same rows, for the reference
	}{
		{"view", st.View(), st.View()},
		{"strided-shard", shard, shard},
		{"buffered-file", file, st.View()},
	}
	mult := math.Pow(float64(n), 0.5)
	for _, kernels := range []bool{true, false} {
		dom := lptype.Domain[meb.Point, meb.Basis](meb.NewDomain(d))
		if !kernels {
			dom = rowLoopDomain[meb.Point, meb.Basis]{dom}
		}
		ra := lptype.NewRowAccess(dom, func(row []float64) meb.Point { return meb.Point(row) })
		for _, s := range sources {
			rows := s.view.Rows()
			pts := make([]meb.Point, rows)
			for i := range pts {
				pts[i] = meb.Point(s.view.Row(i))
			}
			ref := lptype.SliceStoreRef[meb.Point, meb.Basis](dom, pts)
			got := lptype.SourceStore(ra, s.src)
			what := fmt.Sprintf("%s kernels=%v", s.name, kernels)
			if got.Size() != rows {
				t.Fatalf("%s: size %d, want %d", what, got.Size(), rows)
			}
			rowloop := kernel.Blocks(kernel.ClassRowLoop)
			for _, pend := range []*meb.Basis{&pending, nil} {
				wantTot, wantViol, wantCount := ref.Scan(bases, pend, mult)
				gotTot, gotViol, gotCount := got.Scan(bases, pend, mult)
				if math.Float64bits(wantTot) != math.Float64bits(gotTot) ||
					math.Float64bits(wantViol) != math.Float64bits(gotViol) || wantCount != gotCount {
					t.Fatalf("%s: scan drift: reference (%v, %v, %d) vs store (%v, %v, %d)",
						what, wantTot, wantViol, wantCount, gotTot, gotViol, gotCount)
				}
				if pend != nil && (wantCount == 0 || wantCount == rows) {
					t.Fatalf("%s: degenerate fixture: %d/%d violators", what, wantCount, rows)
				}
			}
			if fellBack := kernel.Blocks(kernel.ClassRowLoop) > rowloop; fellBack == kernels {
				t.Fatalf("%s: per-row fallback ran = %v", what, fellBack)
			}
			wantW := make([]float64, rows)
			gotW := make([]float64, rows)
			ref.Weights(bases, mult, wantW)
			got.Weights(bases, mult, gotW)
			for i := range wantW {
				if math.Float64bits(wantW[i]) != math.Float64bits(gotW[i]) {
					t.Fatalf("%s: weight[%d] %v (reference) vs %v (store)", what, i, wantW[i], gotW[i])
				}
			}
			for _, i := range []int{0, rows / 2, rows - 1} {
				want, have := ref.Item(i), got.Item(i)
				for j := range want {
					if math.Float64bits(want[j]) != math.Float64bits(have[j]) {
						t.Fatalf("%s: item %d = %v, want %v", what, i, have, want)
					}
				}
			}
			lptype.CloseStore(got)
		}
	}
}

// TestViewStoreScanAllocations is the 0-allocs/block pin at the store
// layer: once the reusable cursor, batch and scratch buffers exist
// (one warm-up scan), site scans allocate nothing.
func TestViewStoreScanAllocations(t *testing.T) {
	const n, d = 4096, 3
	ra, st, bases, pending := mebStoreFixture(t, n, d)
	vs := lptype.ViewStore(ra, st.View())
	mult := math.Pow(float64(n), 0.5)
	w := make([]float64, n)
	allocs := testing.AllocsPerRun(10, func() {
		vs.Scan(bases, &pending, mult)
		vs.Weights(bases, mult, w)
	})
	if allocs > 0 {
		t.Fatalf("view store scan: %.1f allocs over %d rows (want 0)", allocs, n)
	}
}
