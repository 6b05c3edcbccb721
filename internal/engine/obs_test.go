package engine_test

import (
	"encoding/json"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"testing"

	"lowdimlp/internal/dataset"
	"lowdimlp/internal/engine"
	"lowdimlp/internal/obs"
	"lowdimlp/internal/server"
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

// TestTraceConformanceParallel repeats the byte reconciliation with a
// round's exchanges running in parallel, in process (K = 4) and over a
// 3-worker fleet: concurrent span recording must not lose or
// double-count an exchange, in the span list or in the per-site totals.
func TestTraceConformanceParallel(t *testing.T) {
	m, _ := engine.Lookup("lp")
	reconcile := func(what string, tr *obs.Trace, stats engine.Stats) {
		t.Helper()
		d := tr.Data()
		var spanBytes, perSite int64
		for _, sp := range d.Spans {
			spanBytes += sp.Bytes
		}
		for _, s := range d.PerSite {
			perSite += s.Bytes
		}
		if got, want := 8*spanBytes, stats.Coordinator.TotalBits; got != want {
			t.Errorf("%s: trace accounts %d bits, meter charged %d", what, got, want)
		}
		if perSite != spanBytes {
			t.Errorf("%s: per-site totals %d != span totals %d", what, perSite, spanBytes)
		}
	}

	inst := conformanceInstance(t, m, 3000, 5)
	tr := obs.New("lp-k4")
	_, stats, err := m.SolveInstance(engine.BackendCoordinator, inst, engine.Options{Seed: 7, K: 4, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	reconcile("in-process K=4", tr, stats)

	const k = 3
	manifest := filepath.Join(t.TempDir(), "ds.ldm")
	if err := engine.WriteShardedDatasetFile(manifest, "lp", conformanceInstance(t, m, 8000, 5), k); err != nil {
		t.Fatal(err)
	}
	urls := make([]string, k)
	for i := range urls {
		w, err := server.NewWorker(server.WorkerConfig{DataPath: filepath.Join(filepath.Dir(manifest), dataset.ShardName(manifest, i))})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		ts := httptest.NewServer(w.Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	tr = obs.New("lp-fleet")
	_, _, stats, err = engine.SolveFleet(urls, engine.Options{Seed: 7, K: k, NetConst: 0.2, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Coordinator.DirectSolve {
		t.Fatal("the fleet solve shipped its input: no round A or B to reconcile")
	}
	reconcile("3-worker fleet", tr, stats)
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
