package engine_test

import (
	"encoding/json"
	"runtime"
	"testing"

	"lowdimlp/internal/engine"
	"lowdimlp/internal/obs"
)

// TestTraceConformance pins the tracing layer's core guarantee: a
// coordinator solve with a Trace attached produces a bit-identical
// solution and identical metered totals to the same solve without
// one, and the trace's per-site byte accounting reconciles exactly
// with the comm.Meter (spans record payload bytes; the meter charges
// bits — 8× apart, nothing more or less).
func TestTraceConformance(t *testing.T) {
	for _, m := range engine.Models() {
		m := m
		t.Run(m.Kind(), func(t *testing.T) {
			t.Parallel()
			inst := conformanceInstance(t, m, 3000, 11)
			opt := engine.Options{Seed: 23, K: 3}

			plain, pstats, err := m.SolveInstance(engine.BackendCoordinator, inst, opt)
			if err != nil {
				t.Fatalf("untraced solve: %v", err)
			}

			tr := obs.New(m.Kind())
			topt := opt
			topt.Trace = tr
			traced, tstats, err := m.SolveInstance(engine.BackendCoordinator, inst, topt)
			if err != nil {
				t.Fatalf("traced solve: %v", err)
			}

			pj, _ := json.Marshal(plain)
			tj, _ := json.Marshal(traced)
			if string(pj) != string(tj) {
				t.Errorf("tracing changed the solution:\nplain:  %s\ntraced: %s", pj, tj)
			}
			if pstats.Coordinator.TotalBits != tstats.Coordinator.TotalBits ||
				pstats.Coordinator.Rounds != tstats.Coordinator.Rounds ||
				pstats.Coordinator.Messages != tstats.Coordinator.Messages {
				t.Errorf("tracing changed the metered stats:\nplain:  %+v\ntraced: %+v",
					*pstats.Coordinator, *tstats.Coordinator)
			}

			d := tr.Data()
			if len(d.Spans) == 0 {
				t.Fatal("trace recorded no spans")
			}
			var spanBytes int64
			for _, sp := range d.Spans {
				spanBytes += sp.Bytes
			}
			if got, want := 8*spanBytes, tstats.Coordinator.TotalBits; got != want {
				t.Errorf("trace accounts %d bits, meter charged %d", got, want)
			}
			var perSite int64
			for _, s := range d.PerSite {
				perSite += s.Bytes
			}
			if perSite != spanBytes {
				t.Errorf("per-site totals %d != span totals %d", perSite, spanBytes)
			}
		})
	}
}

// TestTraceConformanceParallel repeats the byte reconciliation with
// the per-site fan-out on: concurrent span recording must not lose or
// double-count exchanges.
func TestTraceConformanceParallel(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs >1 CPU for Parallel to engage")
	}
	m, _ := engine.Lookup("lp")
	inst := conformanceInstance(t, m, 3000, 5)
	opt := engine.Options{Seed: 7, K: 4, Parallel: true}
	tr := obs.New("lp-parallel")
	opt.Trace = tr
	_, stats, err := m.SolveInstance(engine.BackendCoordinator, inst, opt)
	if err != nil {
		t.Fatal(err)
	}
	var spanBytes int64
	for _, sp := range tr.Data().Spans {
		spanBytes += sp.Bytes
	}
	if got, want := 8*spanBytes, stats.Coordinator.TotalBits; got != want {
		t.Errorf("trace accounts %d bits, meter charged %d", got, want)
	}
}

// TestParallelAutoDisableSingleCPU pins the ROADMAP-carryover
// fallback: with GOMAXPROCS=1 the parallel fan-out is pure overhead
// (lpmark's dataset.cursor_ns_per_row.sharded_par loses to .sharded
// even on two CPUs), so Parallel is silently ineffective there and
// engages only with ≥ 2 CPUs.
func TestParallelAutoDisableSingleCPU(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)

	runtime.GOMAXPROCS(1)
	if (engine.Options{Parallel: true}).EffectiveParallel() {
		t.Error("Parallel effective at GOMAXPROCS=1; want auto-disabled")
	}
	runtime.GOMAXPROCS(2)
	if !(engine.Options{Parallel: true}).EffectiveParallel() {
		t.Error("Parallel not effective at GOMAXPROCS=2")
	}
	if (engine.Options{}).EffectiveParallel() {
		t.Error("Parallel effective without being requested")
	}
}
