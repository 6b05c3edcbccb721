package stream

import (
	"errors"
	"runtime"
	"testing"

	"lowdimlp/internal/core"
	"lowdimlp/internal/dataset"
	"lowdimlp/internal/lp"
	"lowdimlp/internal/meb"
)

// shrinkingStream yields all its items on the first pass and one
// fewer on every later pass.
type shrinkingStream[C any] struct {
	SliceStream[C]
	passes int
}

func (s *shrinkingStream[C]) Reset() {
	s.SliceStream.Reset()
	s.passes++
}

func (s *shrinkingStream[C]) Next() (C, bool) {
	if s.passes > 1 && s.pos >= len(s.Items)-1 {
		var zero C
		return zero, false
	}
	return s.SliceStream.Next()
}

// TestStreamLengthMismatch: ε, the net size and the space accounting
// derive from n, so a caller-supplied n that disagrees with the stream
// — or a stream whose length changes between passes — is a typed
// error, never a silently mis-sized solve.
func TestStreamLengthMismatch(t *testing.T) {
	p, cons := sphereLP(2, 3000, 13)
	opt := Options{Core: core.Options{R: 2, Seed: 8, NetConst: 0.1}}
	for _, n := range []int{len(cons) - 5, len(cons) + 5, 40 /* direct path */, 2 * len(cons)} {
		_, _, err := solveLP(2, lp.NewDomain(p, 5), NewSliceStream(cons), n, opt)
		if !errors.Is(err, ErrStreamLength) {
			t.Errorf("n=%d over a stream of %d: error %v, want ErrStreamLength", n, len(cons), err)
		}
	}
	for _, n := range []int{len(cons), 0} { // supplied and counted
		st := &shrinkingStream[lp.Halfspace]{SliceStream: SliceStream[lp.Halfspace]{Items: cons}}
		_, stats, err := solveLP(2, lp.NewDomain(p, 5), st, n, opt)
		if !errors.Is(err, ErrStreamLength) {
			t.Errorf("shrinking stream, n=%d: error %v (%+v), want ErrStreamLength", n, err, stats)
		}
	}
	if _, stats, err := solveLP(2, lp.NewDomain(p, 5), NewSliceStream(cons), len(cons), opt); err != nil || stats.DirectSolve {
		t.Fatalf("the matching n must solve iteratively: %v %+v", err, stats)
	}
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

// TestStreamAdapterAllocations pins the typed-stream adapter's hot
// path: once the cursor's batch arena exists, a whole pass — Reset,
// then Next until the end — allocates nothing, for a slice-backed and
// for a generated stream.
func TestStreamAdapterAllocations(t *testing.T) {
	const n, d = 5000, 3
	pts := make([]meb.Point, n)
	for i := range pts {
		pts[i] = hashPoint(make(meb.Point, d), i)
	}
	buf := make(meb.Point, d)
	streams := map[string]Stream[meb.Point]{
		"SliceStream": NewSliceStream(pts),
		"FuncStream":  NewFuncStream(n, func(i int) meb.Point { return hashPoint(buf, i) }),
	}
	for name, st := range streams {
		src := &rowSource[meb.Point]{st: st, n: n, width: d, encode: mebRow}
		cur := src.NewCursor()
		batch := make([]dataset.Row, dataset.DefaultBatchRows)
		pass := func() {
			if err := cur.Reset(); err != nil {
				t.Fatal(err)
			}
			rows := 0
			for {
				k, err := cur.Next(batch)
				if err != nil {
					t.Fatal(err)
				}
				if k == 0 {
					break
				}
				rows += k
			}
			if rows != n {
				t.Fatalf("%s: pass yielded %d rows, want %d", name, rows, n)
			}
		}
		if allocs := testing.AllocsPerRun(10, pass); allocs > 0 {
			t.Errorf("%s: %.1f allocs per pass over %d items (want 0)", name, allocs, n)
		}
	}
}

// TestFuncStreamHeapDoesNotScaleWithN: a generated stream is never
// materialized, so the bytes a solve allocates follow the net size
// (∝ n^{1/r}) and the number of passes, not n — ten times the items
// must stay within twice the allocation. The comparison is per pass
// because the pass count is the seed's luck (4 to 24 at these sizes),
// and r = 6 keeps the net's own growth (10^{1/6} ≈ 1.5×) inside the
// bound; materializing the stream once would cost 16 MB against the
// ≈ 60 kB a pass allocates.
func TestFuncStreamHeapDoesNotScaleWithN(t *testing.T) {
	if testing.Short() {
		t.Skip("million-item stream")
	}
	const d = 2
	allocPerPass := func(n int) uint64 {
		buf := make(meb.Point, d)
		st := NewFuncStream(n, func(i int) meb.Point { return hashPoint(buf, i) })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, stats, err := solveMEB(d, st, n, Options{Core: core.Options{R: 6, Seed: 1, NetConst: 0.5}})
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
