package lptype_test

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"lowdimlp/internal/dataset"
	"lowdimlp/internal/kernel"
	"lowdimlp/internal/lp"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/meb"
	"lowdimlp/internal/numeric"
	"lowdimlp/internal/sampling"
	"lowdimlp/internal/sea"
	"lowdimlp/internal/svm"
)

// The differential harness of lptype.SiteWeights. The oracle is the
// code the sites ran before they kept their weights, and which stays:
// a list of committed bases, Store.Scan(bases, &pending, mult) for the
// round-A report, Store.Weights + sampling.NewAlias + Draw for every
// batch of draws. A schedule is a seeded random walk over
// Test(basis) / Test(nil) / Commit / Draw×k; after every step the two
// sides must agree on Float64bits of both weights, the count, every
// drawn index, and — at the end — the RNG stream position.

// siteLayouts are the storage shapes a site scans: a contiguous view,
// one strided shard of three, a buffered file whose 13-row blocks
// misalign with the scan batches, and a site with no rows.
var siteLayouts = []string{"view", "strided-shard", "buffered-file", "empty"}

func siteSource(t testing.TB, layout string, st *dataset.Store, kind string, dim int) dataset.Source {
	t.Helper()
	switch layout {
	case "view":
		return st.View()
	case "strided-shard":
		return st.View().Shard(3)[1]
	case "empty":
		return dataset.NewStore(st.Width()).View()
	case "buffered-file":
		path := filepath.Join(t.TempDir(), "site.lds")
		info := dataset.Info{Kind: kind, Dim: dim, Width: st.Width(), Rows: st.Rows()}
		if err := dataset.WriteFile(path, info, st); err != nil {
			t.Fatal(err)
		}
		file, err := dataset.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { file.Close() })
		file.BlockBytes = 8 * st.Width() * 13
		return file
	}
	panic("unknown layout " + layout)
}

// siteSchedule drives one SiteWeights against the recompute oracle.
// solve turns a few row indices of st into a basis (ok=false: the
// subset has none, nothing is tested); commitAll commits every tested
// basis (the widening test).
func siteSchedule[C, B any](
	t testing.TB, what string,
	ra lptype.RowAccess[C, B], src dataset.Source, st *dataset.Store,
	solve func(idx []int) (B, bool),
	mult float64, steps int, seed uint64, commitAll bool,
) *lptype.SiteWeights[C, B] {
	t.Helper()
	got := lptype.NewSiteWeights(ra, src)
	ref := lptype.SourceStore(ra, src)
	defer lptype.CloseStore(ref)
	got.Reset(mult)
	if got.Size() != ref.Size() {
		t.Fatalf("%s: size %d, oracle %d", what, got.Size(), ref.Size())
	}
	n := ref.Size()
	sched := numeric.NewRand(seed, 41)
	gotRng, refRng := numeric.NewRand(seed, 42), numeric.NewRand(seed, 42)
	var bases []B
	var pending *B
	w := make([]float64, n)

	commit := func() {
		if pending != nil {
			got.Commit()
			bases = append(bases, *pending)
			pending = nil
		}
	}
	for step := 0; step < steps; step++ {
		op := sched.IntN(10)
		if commitAll {
			op = 1 // Test and Commit...
			if step%16 == 15 {
				op = 9 // ...and now and then draw
			}
		}
		switch {
		case op < 5: // Test a fresh basis (sometimes none)
			pending = nil
			if op > 0 {
				idx := make([]int, sched.IntN(7))
				for i := range idx {
					idx[i] = sched.IntN(st.Rows())
				}
				if b, ok := solve(idx); ok {
					pending = &b
				}
			}
			wantTot, wantViol, wantCount := ref.Scan(bases, pending, mult)
			gotTot, gotViol, gotCount := got.Test(pending)
			if math.Float64bits(wantTot) != math.Float64bits(gotTot) ||
				math.Float64bits(wantViol) != math.Float64bits(gotViol) || wantCount != gotCount {
				t.Fatalf("%s step %d (%d bases): Test = (%v, %v, %d), oracle Scan = (%v, %v, %d)",
					what, step, len(bases), gotTot, gotViol, gotCount, wantTot, wantViol, wantCount)
			}
			if commitAll {
				commit()
			}
		case op < 7: // Commit the tested basis, once
			commit()
		default: // a batch of draws
			if n == 0 {
				break
			}
			ref.Weights(bases, mult, w)
			al := sampling.NewAlias(w)
			for d, k := 0, 1+sched.IntN(40); d < k; d++ {
				want, have := al.Draw(refRng), got.Draw(gotRng)
				if want != have {
					t.Fatalf("%s step %d (%d bases): draw %d = row %d, oracle row %d", what, step, len(bases), d, have, want)
				}
			}
		}
	}
	if gotRng.Uint64() != refRng.Uint64() {
		t.Fatalf("%s: RNG stream positions diverged", what)
	}
	for _, i := range []int{0, n / 2, n - 1} {
		if i >= 0 && i < n && fmt.Sprint(got.Item(i)) != fmt.Sprint(ref.Item(i)) {
			t.Fatalf("%s: item %d = %v, oracle %v", what, i, got.Item(i), ref.Item(i))
		}
	}
	return got
}

// runKind runs one schedule for a kind: bases are solved from a few
// decoded rows of st, the site scans one layout of it, through dom's
// block kernels or (kernels=false) the per-row loop.
func runKind[C, B any](
	t testing.TB, name string, dom lptype.Domain[C, B], decode func(row []float64) C,
	st *dataset.Store, d int, layout string, steps int, seed uint64, kernels bool,
) {
	t.Helper()
	solve := func(idx []int) (B, bool) {
		items := make([]C, len(idx))
		for i, j := range idx {
			items[i] = decode(st.Row(j))
		}
		b, err := dom.Solve(items)
		return b, err == nil
	}
	access := dom
	if !kernels {
		access = rowLoopDomain[C, B]{dom}
	}
	siteSchedule(t, name+"/"+layout, lptype.NewRowAccess(access, decode),
		siteSource(t, layout, st, name, d), st, solve, math.Sqrt(float64(st.Rows())), steps, seed, false)
}

// siteKinds builds, per registered kind, a random instance and runs a
// schedule over one layout of it.
var siteKinds = []struct {
	name string
	run  func(t testing.TB, d, n int, layout string, steps int, seed uint64, kernels bool)
}{
	{"lp", func(t testing.TB, d, n int, layout string, steps int, seed uint64, kernels bool) {
		obj := make([]float64, d)
		for i := range obj {
			obj[i] = 1
		}
		runKind[lp.Halfspace, lp.Basis](t, "lp", lp.NewDomain(lp.NewProblem(obj), 7),
			func(row []float64) lp.Halfspace { return lp.Halfspace{A: row[:d], B: row[d]} },
			randomRows(n, d+1, seed, nil), d, layout, steps, seed, kernels)
	}},
	{"svm", func(t testing.TB, d, n int, layout string, steps int, seed uint64, kernels bool) {
		// Separable by construction: the label is the sign of the first
		// coordinate, pushed half a unit off the boundary.
		st := randomRows(n, d+1, seed, func(row []float64) {
			row[d] = 1
			if row[0] < 0 {
				row[d] = -1
			}
			row[0] += 0.5 * row[d]
		})
		runKind[svm.Example, svm.Basis](t, "svm", svm.NewDomain(d),
			func(row []float64) svm.Example { return svm.Example{X: row[:d], Y: row[d]} },
			st, d, layout, steps, seed, kernels)
	}},
	{"meb", func(t testing.TB, d, n int, layout string, steps int, seed uint64, kernels bool) {
		runKind[meb.Point, meb.Basis](t, "meb", meb.NewDomain(d),
			func(row []float64) meb.Point { return meb.Point(row) },
			randomRows(n, d, seed, nil), d, layout, steps, seed, kernels)
	}},
	{"sea", func(t testing.TB, d, n int, layout string, steps int, seed uint64, kernels bool) {
		runKind[sea.Point, sea.Basis](t, "sea", sea.NewDomain(d, 3),
			func(row []float64) sea.Point { return sea.Point(row) },
			randomRows(n, d, seed, nil), d, layout, steps, seed, kernels)
	}},
}

func randomRows(n, width int, seed uint64, fix func(row []float64)) *dataset.Store {
	st := dataset.NewStore(width)
	st.Grow(n)
	rng := numeric.NewRand(seed, 77)
	row := make([]float64, width)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		if fix != nil {
			fix(row)
		}
		st.AppendRow(row)
	}
	return st
}

// TestSiteWeightsMatchesRecompute runs the schedule for lp/svm/meb/sea
// × the four layouts × through the block kernels and through the
// per-row loop.
func TestSiteWeightsMatchesRecompute(t *testing.T) {
	const n, d, steps = 1337, 3, 60 // odd size: final partial block
	for _, kernels := range []bool{true, false} {
		rowloop := kernel.Blocks(kernel.ClassRowLoop)
		for _, k := range siteKinds {
			for _, layout := range siteLayouts {
				for seed := uint64(1); seed <= 3; seed++ {
					k.run(t, d, n, layout, steps, seed, kernels)
				}
			}
		}
		if fellBack := kernel.Blocks(kernel.ClassRowLoop) > rowloop; fellBack == kernels {
			t.Fatalf("kernels=%v: per-row fallback ran = %v", kernels, fellBack)
		}
	}
}

// FuzzSiteWeightsMatchesRecompute is the same differential check over
// fuzzed kind, dimension, size, layout, schedule seed and kernels vs
// the per-row loop.
func FuzzSiteWeightsMatchesRecompute(f *testing.F) {
	f.Add(uint8(0), uint8(2), uint16(300), uint8(0), uint64(1), true)
	f.Add(uint8(1), uint8(3), uint16(513), uint8(1), uint64(2), true)
	f.Add(uint8(2), uint8(4), uint16(64), uint8(2), uint64(3), false)
	f.Add(uint8(3), uint8(1), uint16(7), uint8(3), uint64(4), true)
	f.Add(uint8(2), uint8(5), uint16(1), uint8(0), uint64(5), false)
	f.Fuzz(func(t *testing.T, kind, dim uint8, n uint16, layout uint8, seed uint64, kernels bool) {
		k := siteKinds[int(kind)%len(siteKinds)]
		k.run(t, 1+int(dim)%5, 1+int(n)%1024, siteLayouts[int(layout)%len(siteLayouts)], 40, seed, kernels)
	})
}

// thresholdDomain is a stub domain over one-column rows: a basis is a
// threshold, violated by every larger value. Nested violator sets let
// a schedule of many commits drive single rows' exponents as high as
// the number of commits.
type thresholdDomain struct{}

func (thresholdDomain) Solve(cs []float64) (float64, error) {
	b := math.Inf(-1)
	for _, c := range cs {
		b = max(b, c)
	}
	return b, nil
}
func (thresholdDomain) Basis(b float64) []float64                 { return []float64{b} }
func (thresholdDomain) Violates(b, c float64) bool                { return c > b }
func (thresholdDomain) CombinatorialDim() int                     { return 1 }
func (thresholdDomain) VCDim() int                                { return 1 }
func (thresholdDomain) ViolatesRow(b float64, row []float64) bool { return row[0] > b }

// TestSiteWeightsWidensExponents commits 300 effective bases, so the
// rows above every threshold pass exponent 255 and the one-byte array
// must have widened — values still equal to the oracle's recount, and
// the state one byte per row larger than before the 256th commit.
func TestSiteWeightsWidensExponents(t *testing.T) {
	const n = 200
	st := randomRows(n, 1, 5, nil)
	ra := lptype.NewRowAccess[float64, float64](thresholdDomain{}, func(row []float64) float64 { return row[0] })
	// Every threshold is negative, so the positive rows — about half —
	// violate each of them: every commit is effective and their
	// exponent is the number of commits.
	solve := func(idx []int) (float64, bool) { return -math.Abs(st.Row(len(idx))[0]) - 0.01, true }
	var before int
	for _, steps := range []int{250, 330} { // 15 of 16 steps commit: 235 and 310 commits
		got := siteSchedule(t, fmt.Sprintf("threshold/%d steps", steps), ra, st.View(), st, solve, 1.01, steps, 9, true)
		if steps == 250 {
			before = got.StateBytes()
		} else if grew := got.StateBytes() - before; grew < n {
			t.Fatalf("state grew %d bytes past 255 commits, want ≥ %d (two-byte exponents)", grew, n)
		}
	}
}

// TestSiteWeightsState pins the memory contract: before the first Draw
// only the violator list, after a success and a draw 21 B/row
// (exponent 1, prob 8, alias 4, weight buffer 8) plus that list, and
// nothing after Close.
func TestSiteWeightsState(t *testing.T) {
	const n, d = 4096, 3
	ra, st, _, pending := mebStoreFixture(t, n, d)
	s := lptype.NewSiteWeights(ra, st.View())
	s.Reset(math.Sqrt(n))
	_, _, count := s.Test(&pending)
	if count == 0 || count == n {
		t.Fatalf("degenerate fixture: %d/%d violators", count, n)
	}
	if got := s.StateBytes(); got > 8*count+64 { // the list, at append's slack
		t.Fatalf("before any draw: %d state bytes for %d violators", got, count)
	}
	s.Commit()
	s.Draw(numeric.NewRand(1, 1))
	s.Test(&pending)
	if got := s.StateBytes(); got < 21*n || got > 21*n+8*count+64 {
		t.Fatalf("after a success and a draw: %d state bytes over %d rows and %d violators, want 21 B/row + the list",
			got, n, count)
	}
	s.Close()
	if got := s.StateBytes(); got != 0 {
		t.Fatalf("after Close: %d state bytes", got)
	}
}

// TestSiteWeightsAllocations: a failed iteration — Test, no Commit,
// draws — allocates nothing once the buffers exist; neither does a
// Test alone.
func TestSiteWeightsAllocations(t *testing.T) {
	const n, d = 4096, 3
	ra, st, _, pending := mebStoreFixture(t, n, d)
	s := lptype.NewSiteWeights(ra, st.View())
	s.Reset(math.Sqrt(n))
	rng := numeric.NewRand(1, 1)
	s.Test(&pending)
	s.Commit()
	s.Draw(rng)
	allocs := testing.AllocsPerRun(10, func() {
		s.Test(&pending)
		for i := 0; i < 100; i++ {
			s.Draw(rng)
		}
	})
	if allocs > 0 {
		t.Fatalf("failed iteration: %.1f allocs over %d rows (want 0)", allocs, n)
	}
}
