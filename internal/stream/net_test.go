package stream

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"lowdimlp/internal/core"
	"lowdimlp/internal/dataset"
	"lowdimlp/internal/lp"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/meb"
	"lowdimlp/internal/numeric"
)

// TestSuccessNetDistribution checks the mixture on a hand-built pass:
// with one stored basis (so the scanned weights w are not all 1) and a
// pending basis that some rows violate, the net a successful EndPass
// solves from must be drawn ∝ w·mult^[violates pending] — χ² over all
// rows, many solver seeds.
func TestSuccessNetDistribution(t *testing.T) {
	const n, d, trials = 200, 2, 2000
	st := cloud(n, d, 5)
	dom := meb.NewDomain(d)
	pts := make([]meb.Point, n)
	rows := make([]dataset.Row, n)
	rowOf := map[float64]int{}
	for i := range pts {
		rows[i] = st.Row(i)
		pts[i] = meb.Point(rows[i])
		rowOf[rows[i][0]] = i
	}
	stored, err := dom.Solve(pts[:40])
	if err != nil {
		t.Fatal(err)
	}
	pending, err := dom.Solve(pts[:120])
	if err != nil {
		t.Fatal(err)
	}

	ra := mebAccess(d)
	mult := math.Pow(float64(n), 0.5)
	want := make([]float64, n) // the weights after a success
	var scanned, wantTotal numeric.Kahan
	violators := 0
	for i, row := range rows {
		e := 0
		if ra.ViolatesRow(stored, row) {
			e++
		}
		scanned.Add(lptype.PowWeight(mult, e))
		if ra.ViolatesRow(pending, row) {
			e++
			violators++
		}
		want[i] = lptype.PowWeight(mult, e)
		wantTotal.Add(want[i])
	}
	if violators == 0 || violators == n {
		t.Fatalf("%d of %d rows violate the pending basis: nothing to mix", violators, n)
	}

	counts := make([]float64, n)
	var m int
	for trial := 0; trial < trials; trial++ {
		s := mkFusedSolver(st, pending, uint64(trial))
		s.bases = []meb.Basis{stored}
		s.p.Eps = 1 // every iteration succeeds
		s.nextTotal = scanned.Sum()
		s.BeginPass()
		s.RowBlock(rows)
		if err := s.EndPass(); err != nil {
			t.Fatal(err)
		}
		if s.stats.Successes != 1 || s.nextTotal != wantTotal.Sum() {
			t.Fatalf("successes %d, next total %v (want 1, %v)", s.stats.Successes, s.nextTotal, wantTotal.Sum())
		}
		m = s.p.M
		for k := 0; k < m; k++ {
			i, ok := rowOf[s.netArena[k*d]]
			if !ok {
				t.Fatalf("net row %d is not an input row", k)
			}
			counts[i]++
		}
	}
	chi2 := 0.0
	for i, w := range want {
		exp := w / wantTotal.Sum() * float64(trials*m)
		chi2 += (counts[i] - exp) * (counts[i] - exp) / exp
	}
	if limit := float64(n-1) + 5*math.Sqrt(2*float64(n-1)); chi2 > limit {
		t.Errorf("χ² = %.1f over %d degrees of freedom (limit %.1f): the success net is not ∝ w·mult^[viol]", chi2, n-1, limit)
	}
}

// TestNetArenaReuse: the net arena is recycled between iterations, and
// lp bases alias the rows they were solved from — so every basis the
// solver keeps (stored on success, returned at the end) must still hold
// genuine input constraints when the solve is over.
func TestNetArenaReuse(t *testing.T) {
	const n, d = 20000, 3
	p, cons := sphereLP(d, n, 77)
	input := map[[d + 1]float64]bool{}
	store := dataset.NewStore(d + 1)
	for _, h := range cons {
		row := [d + 1]float64{h.A[0], h.A[1], h.A[2], h.B}
		input[row] = true
		store.AppendRow(row[:])
	}
	ra := lptype.NewRowAccess[lp.Halfspace, lp.Basis](lp.NewDomain(p, 3),
		func(row []float64) lp.Halfspace { return lp.Halfspace{A: row[:d], B: row[d]} })
	genuine := func(what string, b lp.Basis) {
		t.Helper()
		if len(b.Tight) == 0 {
			t.Fatalf("%s: no tight constraints", what)
		}
		for _, h := range b.Tight {
			if !input[[d + 1]float64{h.A[0], h.A[1], h.A[2], h.B}] {
				t.Fatalf("%s: tight constraint %v·x ≤ %v is not an input row", what, h.A, h.B)
			}
			if slack := h.B - numeric.Dot(h.A, b.Sol.X); math.Abs(slack) > 1e-9 {
				t.Fatalf("%s: constraint %v·x ≤ %v has slack %g at the basis's optimum: its arena row was overwritten", what, h.A, h.B, slack)
			}
		}
	}
	reused, kept := false, 0
	for seed := uint64(1); seed <= 8; seed++ {
		s := NewDatasetSolver(ra, n, d+1, Options{Core: core.Options{R: 3, Seed: seed, NetConst: 0.5}})
		cur := store.NewCursor()
		batch := make([]dataset.Row, dataset.DefaultBatchRows)
		for !s.Done() {
			s.BeginPass()
			if err := s.scan(cur, batch); err != nil {
				t.Fatal(err)
			}
			arena := s.netArena
			if err := s.EndPass(); err != nil {
				t.Fatal(err)
			}
			if !s.Done() && arena != nil && s.netArena != nil && &arena[0] == &s.netArena[0] {
				reused = true
			}
			genuine("pending", s.pending)
			for i, b := range s.bases {
				genuine(fmt.Sprintf("stored basis %d", i), b)
			}
		}
		b, stats, err := s.Result()
		if err != nil {
			t.Fatal(err)
		}
		genuine("result", b)
		kept += stats.Successes
	}
	if !reused || kept == 0 {
		t.Fatalf("arena reused: %v, bases stored: %d — the workload exercises nothing", reused, kept)
	}
}

// solveMeter is an lp domain that counts the bytes allocated inside
// Solve, so a test can tell the streaming driver's allocations from
// the basis solver's (whose pooled workspace the race detector makes
// sync.Pool drop at random).
type solveMeter struct {
	*lp.Domain
	bytes uint64
}

func (d *solveMeter) Solve(cons []lp.Halfspace) (lp.Basis, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b, err := d.Domain.Solve(cons)
	runtime.ReadMemStats(&after)
	d.bytes += after.TotalAlloc - before.TotalAlloc
	return b, err
}

// TestSampledSolveAllocation pins the bytes the streaming driver
// allocates for a sampled lp solve (n = 30 000, r = 2, m = 13 857 — a
// 0.96 MB instance; at n = 20 000 the net covers the input and the
// solve ships it), Domain.Solve's own excluded: the sampler and the
// violator reservoir are allocated once per solve, the net arena once
// per kept basis. 5.2 MB over 5 passes (5.5 MB with Solve): 1.6 MB the
// two m-row buffers, 0.9 MB per arena (this seed keeps four). At
// n = 20 000, m = 11 314 it was 3.5 MB over 6 passes, and 8.8 MB over 5
// with per-pass reservoirs and per-iteration arenas.
func TestSampledSolveAllocation(t *testing.T) {
	const n, d, runs = 30000, 3, 5
	p, cons := sphereLP(d, n, 77)
	opt := Options{Core: core.Options{R: 2, Seed: 1, NetConst: 0.5}}
	var inSolve uint64
	solve := func() Stats {
		dom := &solveMeter{Domain: lp.NewDomain(p, 3)}
		ra := lptype.NewRowAccess[lp.Halfspace, lp.Basis](dom,
			func(row []float64) lp.Halfspace { return lp.Halfspace{A: row[:d], B: row[d]} })
		_, stats, err := Solve(ra, NewSliceStream(cons), n, d+1, func(dst []float64, _ int, h lp.Halfspace) ([]float64, error) {
			return append(append(dst, h.A...), h.B), nil
		}, opt)
		if err != nil || stats.DirectSolve {
			t.Fatalf("%v %+v", err, stats)
		}
		inSolve += dom.bytes
		return stats
	}
	stats := solve() // warm-up: one-time runtime allocations
	inSolve = 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		solve()
	}
	runtime.ReadMemStats(&after)
	total := (after.TotalAlloc - before.TotalAlloc) / runs
	driver := total - inSolve/runs
	t.Logf("%d bytes per solve, %d outside Domain.Solve (%d passes, net %d)", total, driver, stats.Passes, stats.NetSize)
	const pinned = 5_194_800 // measured, go1.24 linux/amd64
	if driver > pinned+pinned/10 {
		t.Fatalf("%d bytes per solve outside Domain.Solve, pinned at %d + 10 %%", driver, pinned)
	}
}

// TestPassCountUnchanged: which rows a net holds changed with the
// sampler, how good a net is must not have. Mean passes over 50 solver
// seeds (n = 20 000, r = 3) stay within 15 % of the means recorded with
// the dual reservoirs this sampler replaced. NetConst 1 (m = 4 344):
// at 0.5 more than half of the iterations fail and a 50-seed mean has
// a standard error near 8 % on either side (400 seeds there: lp 5.68 →
// 5.74, meb 7.40 → 7.56).
func TestPassCountUnchanged(t *testing.T) {
	const n, d, seeds = 20000, 3, 50
	const lpBefore, mebBefore = 4.12, 4.46
	p, cons := sphereLP(d, n, 77)
	st := cloud(n, d, 42)
	pts := make([]meb.Point, n)
	for i := range pts {
		pts[i] = meb.Point(st.Row(i))
	}
	lpPasses, mebPasses := 0, 0
	for seed := uint64(1); seed <= seeds; seed++ {
		opt := Options{Core: core.Options{R: 3, Seed: seed, NetConst: 1}}
		_, s1, err := solveLP(d, lp.NewDomain(p, 3), NewSliceStream(cons), n, opt)
		if err != nil || s1.DirectSolve {
			t.Fatalf("lp seed %d: %v %+v", seed, err, s1)
		}
		_, s2, err := solveMEB(d, NewSliceStream(pts), n, opt)
		if err != nil || s2.DirectSolve {
			t.Fatalf("meb seed %d: %v %+v", seed, err, s2)
		}
		lpPasses += s1.Passes
		mebPasses += s2.Passes
	}
	for _, c := range []struct {
		kind        string
		got, before float64
	}{{"lp", float64(lpPasses) / seeds, lpBefore}, {"meb", float64(mebPasses) / seeds, mebBefore}} {
		t.Logf("%s: mean passes %.2f (dual reservoirs: %.2f)", c.kind, c.got, c.before)
		if math.Abs(c.got-c.before) > 0.15*c.before {
			t.Errorf("%s: mean passes %.2f, more than 15 %% from %.2f", c.kind, c.got, c.before)
		}
	}
}

// TestDriftingStreamIsAnOutcome: the pass totals are predicted from
// the previous pass, which is exact only if every pass yields the same
// rows. A stream whose content changes between passes (same length, so
// ErrStreamLength cannot see it) must still end in a basis or a typed
// error within the iteration budget — never a panic, a hang or a net
// with unfilled slots.
func TestDriftingStreamIsAnOutcome(t *testing.T) {
	const n, d = 6000, 2
	for _, drift := range []float64{0.999, 0.5, 1.7} {
		pass := 0
		buf := make(meb.Point, d)
		st := &resetCounter[meb.Point]{Stream: NewFuncStream(n, func(i int) meb.Point {
			// The cloud scales by drift every pass: the violators of
			// any stored basis, hence every weight, change under the
			// solver.
			hashPoint(buf, i)
			for j := range buf {
				buf[j] *= math.Pow(drift, float64(pass))
			}
			return buf
		}), onReset: func() { pass++ }}
		opt := Options{Core: core.Options{R: 3, Seed: 4, NetConst: 0.5, MaxIters: 40}}
		_, stats, err := solveMEB(d, st, n, opt)
		if err != nil && !errors.Is(err, core.ErrIterationBudget) {
			t.Errorf("drift %v: error %v, want a basis or ErrIterationBudget", drift, err)
		}
		if stats.Passes > 41 || stats.Passes != stats.Iterations+1 && err == nil {
			t.Errorf("drift %v: %d passes for %d iterations", drift, stats.Passes, stats.Iterations)
		}
		t.Logf("drift %v: %v after %d passes", drift, err, stats.Passes)
	}
}

// resetCounter reports every rewind of the stream it wraps.
type resetCounter[C any] struct {
	Stream[C]
	onReset func()
}

func (s *resetCounter[C]) Reset() {
	s.onReset()
	s.Stream.Reset()
}
