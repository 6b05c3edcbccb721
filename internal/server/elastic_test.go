package server

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lowdimlp/internal/comm"
	"lowdimlp/internal/comm/httptransport"
	"lowdimlp/internal/comm/registry"
	"lowdimlp/internal/dataset"
	"lowdimlp/internal/engine"
)

// startKillableFleet starts k workers where worker `victim` starts
// refusing (connection-killed) every request once its own request
// counter passes `afterSteps`. For the victim, request 1 is the dial's
// info probe and request 2 the Begin, so afterSteps selects how deep
// into the protocol the "crash" lands:
//
//	2 → dies on its first round-A (or ship-all) exchange
//	3 → dies one exchange later (round B of the first iteration)
func startKillableFleet(t *testing.T, manifest string, k, victim int, afterSteps int64) []string {
	t.Helper()
	urls := make([]string, k)
	var victimTS *httptest.Server
	for i := 0; i < k; i++ {
		w, err := NewWorker(WorkerConfig{DataPath: filepath.Join(filepath.Dir(manifest), dataset.ShardName(manifest, i))})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		h := http.Handler(w.Handler())
		if i == victim {
			var steps atomic.Int64
			inner := h
			h = http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				if steps.Add(1) > afterSteps {
					go victimTS.CloseClientConnections()
					if conn, _, err := http.NewResponseController(rw).Hijack(); err == nil {
						conn.Close()
					}
					return
				}
				inner.ServeHTTP(rw, r)
			})
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		if i == victim {
			victimTS = ts
		}
		urls[i] = ts.URL
	}
	return urls
}

// TestElasticRetryMatrix is the fault-injection matrix for
// retry-from-round-start: a worker dying during round A, during round
// B, and during the degenerate ship-all path must each cost exactly
// one retry, mark the victim down with a recorded reason, and produce
// a solution bit-identical to a clean run on the surviving membership
// — with the burned attempt's traffic folded into the final stats.
func TestElasticRetryMatrix(t *testing.T) {
	cases := []struct {
		name       string
		kind       string
		rows       int
		afterSteps int64
	}{
		// 8000 rows runs the iterative two-round protocol at NetConst
		// 0.2 (n > 2m+1; the default net would ship them); the step
		// count selects which exchange the crash lands on.
		{"dies-during-round-A", "svm", 8000, 2},
		{"dies-during-round-B", "svm", 8000, 3},
		// 50 rows takes the direct ship-all path (n ≤ 2m+1).
		{"dies-during-ship-all", "meb", 50, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, _ := engine.Lookup(tc.kind)
			const k, victim = 3, 1
			manifest := writeShardedInstance(t, m, tc.rows, k, 8)
			urls := startKillableFleet(t, manifest, k, victim, tc.afterSteps)
			reg := registry.New(0)
			reg.SeedStatic(urls)
			opt := engine.Options{Seed: 1, K: k, R: 2, NetConst: 0.2}
			topt := httptransport.Options{Timeout: 5 * time.Second}

			kind, got, stats, err := engine.SolveFleetElastic(reg, opt, topt, "")
			if err != nil {
				t.Fatalf("elastic solve failed: %v", err)
			}
			if kind != tc.kind {
				t.Fatalf("resolved kind %q, want %q", kind, tc.kind)
			}
			if stats.Coordinator == nil || stats.Coordinator.Retries != 1 {
				t.Fatalf("stats %+v, want exactly 1 retry", stats.Coordinator)
			}

			// The survivors' membership is what the result must match.
			survivors := []string{urls[0], urls[2]}
			if got := reg.LiveWorkers(); !reflect.DeepEqual(got, survivors) {
				t.Fatalf("live membership after retry = %v, want %v", got, survivors)
			}
			down := reg.DownMembers()
			if down[urls[victim]] == "" {
				t.Fatalf("victim %s not down with a reason: %v", urls[victim], down)
			}

			_, want, wantStats, err := engine.SolveFleet(survivors, opt)
			if err != nil {
				t.Fatalf("clean run on survivors: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("retried solution is not the clean survivors' solution:\n got %+v\nwant %+v", got, want)
			}
			// Honest metering: the final totals include the burned
			// attempt on top of the clean run's traffic.
			if stats.Coordinator.TotalBits <= wantStats.Coordinator.TotalBits {
				t.Fatalf("folded TotalBits %d not above clean run's %d — burned attempt dropped",
					stats.Coordinator.TotalBits, wantStats.Coordinator.TotalBits)
			}
			if stats.Coordinator.Messages <= wantStats.Coordinator.Messages {
				t.Fatalf("folded Messages %d not above clean run's %d", stats.Coordinator.Messages, wantStats.Coordinator.Messages)
			}
		})
	}
}

// TestElasticRetryOnCorruptFrames: a worker that starts answering with
// garbage mid-solve is just as dead as a crashed one — the corrupt
// frame yields a site-attributed transport error, the registry marks
// it down, and the retry succeeds on the survivors.
func TestElasticRetryOnCorruptFrames(t *testing.T) {
	m, _ := engine.Lookup("meb")
	const k, victim = 3, 2
	manifest := writeShardedInstance(t, m, 8000, k, 2)
	var steps atomic.Int64
	urls := startWorkerFleet(t, manifest, k, func(i int, h http.Handler) http.Handler {
		if i != victim {
			return h
		}
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if steps.Add(1) > 2 {
				rw.Write([]byte("these bytes are not a protocol frame"))
				return
			}
			h.ServeHTTP(rw, r)
		})
	})
	reg := registry.New(0)
	reg.SeedStatic(urls)
	opt := engine.Options{Seed: 3, K: k, R: 2, NetConst: 0.2} // iterative: n > 2m+1
	_, got, stats, err := engine.SolveFleetElastic(reg, opt, httptransport.Options{Timeout: 5 * time.Second}, "")
	if err != nil {
		t.Fatalf("elastic solve failed: %v", err)
	}
	if stats.Coordinator.Retries != 1 {
		t.Fatalf("retries = %d, want 1", stats.Coordinator.Retries)
	}
	if reason := reg.DownMembers()[urls[victim]]; reason == "" {
		t.Fatalf("corrupt-frame worker not marked down: %v", reg.DownMembers())
	}
	_, want, _, err := engine.SolveFleet([]string{urls[0], urls[1]}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("solution drift after corrupt-frame retry:\n got %+v\nwant %+v", got, want)
	}
}

// TestElasticHeartbeatLossShrinksBeforeSolve: heartbeat loss is the
// slow-death path — the sweeper marks the silent worker down before
// any solve begins, so the solve runs on the survivors with zero
// retries (contrast the mid-solve crash matrix above).
func TestElasticHeartbeatLossShrinksBeforeSolve(t *testing.T) {
	m, _ := engine.Lookup("lp")
	const k = 3
	manifest := writeShardedInstance(t, m, 5000, k, 4)
	urls := startWorkerFleet(t, manifest, k, nil)

	reg := registry.New(10 * time.Second)
	clock := time.Unix(1_700_000_000, 0)
	reg.SetClock(func() time.Time { return clock })
	// Two survivors are static; the third registered dynamically and
	// then went silent.
	reg.SeedStatic(urls[:2])
	if _, err := reg.Register(urls[2], "", 0, 0); err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(11 * time.Second)
	if n := reg.Sweep(); n != 1 {
		t.Fatalf("sweep demoted %d members, want 1", n)
	}
	if reason := reg.DownMembers()[urls[2]]; !strings.Contains(reason, "heartbeat lapsed") {
		t.Fatalf("down reason %q does not name the lapsed heartbeat", reason)
	}

	opt := engine.Options{Seed: 5, K: k, R: 2}
	_, got, stats, err := engine.SolveFleetElastic(reg, opt, httptransport.Options{}, "")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Coordinator.Retries != 0 {
		t.Fatalf("retries = %d, want 0 — membership shrank before the solve", stats.Coordinator.Retries)
	}
	_, want, wantStats, err := engine.SolveFleet(urls[:2], opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || *stats.Coordinator != *wantStats.Coordinator {
		t.Fatalf("pre-shrunk solve drifted from clean run on survivors")
	}
}

// TestElasticGivesUpWhenFleetDies: when every worker is gone the
// driver must return a clean terminal error, not loop.
func TestElasticGivesUpWhenFleetDies(t *testing.T) {
	m, _ := engine.Lookup("meb")
	manifest := writeShardedInstance(t, m, 8000, 1, 2)
	urls := startKillableFleet(t, manifest, 1, 0, 2)
	reg := registry.New(0)
	reg.SeedStatic(urls)
	_, _, _, err := engine.SolveFleetElastic(reg, engine.Options{Seed: 1}, httptransport.Options{Timeout: 2 * time.Second}, "")
	if err == nil {
		t.Fatal("solve against a dead fleet succeeded")
	}
	if live := reg.LiveWorkers(); len(live) != 0 {
		t.Fatalf("dead worker still live: %v", live)
	}
	var terr *comm.TransportError
	if !strings.Contains(err.Error(), "no live workers") && !errors.As(err, &terr) {
		t.Fatalf("terminal error is neither exhaustion nor transport-typed: %v", err)
	}
}

// TestElasticDrainKeepsInFlightSolves is satellite 4's
// shutdown-during-solve contract at the engine level: draining a
// worker mid-solve must not fail the in-flight solve (its sessions
// keep stepping), while the next solve runs without it.
func TestElasticDrainKeepsInFlightSolves(t *testing.T) {
	m, _ := engine.Lookup("svm")
	const k = 3
	manifest := writeShardedInstance(t, m, 8000, k, 8)

	// Workers whose drain we can trigger mid-solve: hold the real
	// Worker values, not just URLs.
	workers := make([]*Worker, k)
	urls := make([]string, k)
	var steps atomic.Int64
	for i := 0; i < k; i++ {
		w, err := NewWorker(WorkerConfig{DataPath: filepath.Join(filepath.Dir(manifest), dataset.ShardName(manifest, i))})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		workers[i] = w
		h := http.Handler(w.Handler())
		if i == 1 {
			inner := h
			h = http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				// Trigger the drain from inside the solve: after the
				// session is up and stepping, the worker announces
				// departure — in-flight frames must still be served.
				if steps.Add(1) == 3 {
					workers[1].StartDrain()
				}
				inner.ServeHTTP(rw, r)
			})
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}

	reg := registry.New(0)
	reg.SeedStatic(urls)
	opt := engine.Options{Seed: 1, K: k, R: 2, NetConst: 0.2} // iterative: n > 2m+1
	_, got, stats, err := engine.SolveFleetElastic(reg, opt, httptransport.Options{Timeout: 5 * time.Second}, "")
	if err != nil {
		t.Fatalf("solve across a draining worker failed: %v", err)
	}
	if stats.Coordinator.Retries != 0 {
		t.Fatalf("draining mid-solve cost %d retries, want 0 — drain must not kill live sessions", stats.Coordinator.Retries)
	}
	_, want, _, err := engine.SolveFleet(urls, opt)
	// The comparison run begins a fresh session on the draining
	// worker, which now refuses Begins — so compare against the
	// in-process answer instead.
	if err == nil {
		t.Fatalf("fresh solve on a draining worker succeeded: %+v", want)
	}
	var terr *comm.TransportError
	if !errors.As(err, &terr) || terr.Site != 1 {
		t.Fatalf("fresh solve failed with %v, want a transport error naming site 1", err)
	}
	_, info, src, err := engine.OpenDatasetSource(manifest)
	if err != nil {
		t.Fatal(err)
	}
	defer dataset.CloseSource(src)
	want2, _, err := m.SolveSource(engine.BackendCoordinator, info.Dim, info.Objective, src, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want2) {
		t.Fatalf("in-flight solve across drain drifted:\n got %+v\nwant %+v", got, want2)
	}
}
