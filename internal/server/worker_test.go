package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lowdimlp/internal/comm"
	"lowdimlp/internal/comm/httptransport"
	"lowdimlp/internal/core"
	"lowdimlp/internal/dataset"
	"lowdimlp/internal/engine"
	"lowdimlp/internal/epsnet"
	"lowdimlp/internal/meb"
)

// writeShardedInstance generates one instance of the given kind and
// writes it as a k-shard dataset, returning the manifest path.
func writeShardedInstance(t *testing.T, m engine.Model, n, k int, genSeed uint64) string {
	t.Helper()
	inst, err := m.Generate(m.Families()[0], engine.GenParams{N: n, D: 3, Seed: genSeed})
	if err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(t.TempDir(), "ds.ldm")
	if err := engine.WriteShardedDatasetFile(manifest, m.Kind(), inst, k); err != nil {
		t.Fatal(err)
	}
	return manifest
}

// startWorkerFleet launches one Worker per shard of the manifest on
// httptest listeners, optionally wrapping each handler, and returns
// the worker base URLs in shard order.
func startWorkerFleet(t *testing.T, manifest string, k int, wrap func(i int, h http.Handler) http.Handler) []string {
	t.Helper()
	urls := make([]string, k)
	for i := 0; i < k; i++ {
		w, err := NewWorker(WorkerConfig{DataPath: filepath.Join(filepath.Dir(manifest), dataset.ShardName(manifest, i))})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		h := http.Handler(w.Handler())
		if wrap != nil {
			h = wrap(i, h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return urls
}

// TestFleetConformance pins the acceptance criterion of the networked
// coordinator: for every registered kind, a fleet of worker processes
// (here: httptest workers, each owning one shard file) produces a
// bit-identical solution and identical comm.Meter totals to the
// in-process coordinator over the same sharded dataset, for the same
// seed and options.
func TestFleetConformance(t *testing.T) {
	const k = 3
	for _, m := range engine.Models() {
		t.Run(m.Kind(), func(t *testing.T) {
			// 8000 rows at NetConst 0.2 run the iterative two-round
			// protocol for lp/svm/meb and the direct ship-all path for
			// sea (n ≤ 2m+1 for its larger nets) — both paths stay
			// pinned.
			manifest := writeShardedInstance(t, m, 8000, k, 11)
			_, info, src, err := engine.OpenDatasetSource(manifest)
			if err != nil {
				t.Fatal(err)
			}
			defer dataset.CloseSource(src)
			urls := startWorkerFleet(t, manifest, k, nil)

			for _, seed := range []uint64{1, 42} {
				opt := engine.Options{Seed: seed, K: k, R: 2, NetConst: 0.2}
				want, wantStats, err := m.SolveSource(engine.BackendCoordinator, info.Dim, info.Objective, src, opt)
				if err != nil {
					t.Fatalf("seed %d: in-process: %v", seed, err)
				}
				if wantStats.Coordinator.DirectSolve != (m.Kind() == "sea") {
					t.Fatalf("seed %d: DirectSolve %v: the matrix lost one of its two paths", seed, wantStats.Coordinator.DirectSolve)
				}
				kind, got, gotStats, err := engine.SolveFleet(urls, opt)
				if err != nil {
					t.Fatalf("seed %d: fleet: %v", seed, err)
				}
				if kind != m.Kind() {
					t.Fatalf("fleet resolved kind %q, want %q", kind, m.Kind())
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d: solution drift:\n fleet: %+v\n local: %+v", seed, got, want)
				}
				if *gotStats.Coordinator != *wantStats.Coordinator {
					t.Errorf("seed %d: stats drift:\n fleet: %+v\n local: %+v",
						seed, *gotStats.Coordinator, *wantStats.Coordinator)
				}
				if gotStats.Coordinator.TotalBits == 0 || gotStats.Coordinator.Rounds == 0 {
					t.Errorf("seed %d: fleet metered nothing: %+v", seed, *gotStats.Coordinator)
				}
			}
		})
	}
}

// TestFleetDirectSolveConformance covers the degenerate ship-all path
// (n ≤ 2m+1): a tiny instance, and one just past the net (m < n, which
// sampled before the rule was n ≤ 2m+1), must agree bit for bit,
// including the per-constraint message accounting.
func TestFleetDirectSolveConformance(t *testing.T) {
	m, _ := engine.Lookup("meb")
	const k = 3
	for _, tc := range []struct {
		n, r int
	}{{50, 0}, {3000, 3}} {
		manifest := writeShardedInstance(t, m, tc.n, k, 3)
		_, info, src, err := engine.OpenDatasetSource(manifest)
		if err != nil {
			t.Fatal(err)
		}
		defer dataset.CloseSource(src)
		urls := startWorkerFleet(t, manifest, k, nil)
		opt := engine.Options{Seed: 9, K: k, R: tc.r}
		want, wantStats, err := m.SolveSource(engine.BackendCoordinator, info.Dim, info.Objective, src, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !wantStats.Coordinator.DirectSolve || wantStats.Coordinator.Rounds != 1 {
			t.Fatalf("n=%d: expected the one-round direct-solve path: %+v", tc.n, *wantStats.Coordinator)
		}
		if tc.n > 50 {
			co := opt.Core()
			p := core.NewParams(tc.n, meb.NewDomain(3).CombinatorialDim(), meb.NewDomain(3).VCDim(), co)
			if net := epsnet.PracticalSampleSize(p.Eps, meb.NewDomain(3).VCDim(), core.DefaultNetConst); net >= float64(tc.n) {
				t.Fatalf("n=%d is covered by the net m=%v: not in (m, 2m+1]", tc.n, net)
			}
		}
		_, got, gotStats, err := engine.SolveFleet(urls, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || *gotStats.Coordinator != *wantStats.Coordinator {
			t.Fatalf("n=%d: direct-solve drift:\n fleet: %+v %+v\n local: %+v %+v", tc.n, got, *gotStats.Coordinator, want, *wantStats.Coordinator)
		}
	}
}

// TestFleetConcurrentSolves runs ≥16 concurrent fleet solves against
// one 3-worker fleet (distinct sessions on shared workers) and checks
// they all agree — the worker session table and shard access are
// race-clean under -race.
func TestFleetConcurrentSolves(t *testing.T) {
	m, _ := engine.Lookup("svm")
	const k = 3
	manifest := writeShardedInstance(t, m, 2500, k, 5)
	urls := startWorkerFleet(t, manifest, k, nil)
	opt := engine.Options{Seed: 7, K: k}
	_, want, wantStats, err := engine.SolveFleet(urls, opt)
	if err != nil {
		t.Fatal(err)
	}

	const solvers = 16
	var wg sync.WaitGroup
	errs := make([]error, solvers)
	for g := 0; g < solvers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := opt
			o.Parallel = g%2 == 1
			_, got, gotStats, err := engine.SolveFleet(urls, o)
			if err != nil {
				errs[g] = err
				return
			}
			if !reflect.DeepEqual(got, want) || *gotStats.Coordinator != *wantStats.Coordinator {
				errs[g] = fmt.Errorf("solver %d: result drift", g)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// --- fault injection ---------------------------------------------------

// TestFleetWorkerTimeout: a worker that stops answering must fail the
// solve with a typed transport error within the configured timeout —
// never hang it.
func TestFleetWorkerTimeout(t *testing.T) {
	m, _ := engine.Lookup("meb")
	const k = 3
	manifest := writeShardedInstance(t, m, 8000, k, 2)
	var stall atomic.Bool
	urls := startWorkerFleet(t, manifest, k, func(i int, h http.Handler) http.Handler {
		if i != 1 {
			return h
		}
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if stall.Load() {
				// Stall until the client gives up — a worker that
				// accepted the request and went silent. Draining the
				// body first lets the server's background read notice
				// the disconnect and cancel the context (an unread
				// body suppresses that); the timer is a teardown
				// backstop, not the assertion.
				io.Copy(io.Discard, r.Body)
				select {
				case <-r.Context().Done():
				case <-time.After(10 * time.Second):
				}
				return
			}
			h.ServeHTTP(rw, r)
		})
	})
	fleet, err := httptransport.Dial(urls, httptransport.Options{Timeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	model, _ := engine.Lookup(fleet.Info().Kind)
	stall.Store(true)
	tr := fleet.Run()
	defer tr.Close()
	start := time.Now()
	_, _, err = model.SolveTransport(fleet.Info().Dim, fleet.Info().Objective, tr, engine.Options{Seed: 1})
	elapsed := time.Since(start)
	var te *comm.TransportError
	if !errors.As(err, &te) {
		t.Fatalf("want *comm.TransportError, got %v", err)
	}
	if te.Site != 1 {
		t.Fatalf("error blames site %d, want 1", te.Site)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("solve took %v — the timeout did not bound the hang", elapsed)
	}
}

// TestFleetCorruptReply: a worker returning short or garbage frames
// must yield a clean protocol error, not a panic or a wrong answer.
func TestFleetCorruptReply(t *testing.T) {
	m, _ := engine.Lookup("meb")
	const k = 2
	manifest := writeShardedInstance(t, m, 8000, k, 2)
	var mode atomic.Int32 // 0 = honest, 1 = garbage, 2 = truncated frame
	urls := startWorkerFleet(t, manifest, k, func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			switch mode.Load() {
			case 1:
				rw.Write([]byte("this is not a frame"))
			case 2:
				full := comm.EncodeFrame(comm.Frame{Type: comm.FrameReply, Session: 1, Seq: 1, Payload: bytes.Repeat([]byte{7}, 64)})
				rw.Write(full[:len(full)/2])
			default:
				h.ServeHTTP(rw, r)
			}
		})
	})
	for _, corrupt := range []int32{1, 2} {
		mode.Store(0)
		fleet, err := httptransport.Dial(urls, httptransport.Options{Timeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		model, _ := engine.Lookup(fleet.Info().Kind)
		tr := fleet.Run()
		mode.Store(corrupt)
		_, _, err = model.SolveTransport(fleet.Info().Dim, fleet.Info().Objective, tr, engine.Options{Seed: 1})
		tr.Close()
		var te *comm.TransportError
		if !errors.As(err, &te) {
			t.Fatalf("mode %d: want *comm.TransportError, got %v", corrupt, err)
		}
		if te.Site != 0 {
			t.Fatalf("mode %d: error blames site %d, want 0", corrupt, te.Site)
		}
	}
}

// TestFleetWorkerDiesMidRound: a worker whose process dies partway
// through the protocol (the listener starts refusing connections)
// must fail the solve cleanly with the dead site named.
func TestFleetWorkerDiesMidRound(t *testing.T) {
	m, _ := engine.Lookup("svm")
	const k = 3
	manifest := writeShardedInstance(t, m, 8000, k, 8)
	urls := make([]string, k)
	var victim *httptest.Server
	for i := 0; i < k; i++ {
		w, err := NewWorker(WorkerConfig{DataPath: filepath.Join(filepath.Dir(manifest), dataset.ShardName(manifest, i))})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		var steps atomic.Int64
		h := w.Handler()
		wrapped := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if i == 2 && steps.Add(1) > 4 {
				// Kill the whole listener the first time we're past
				// round one — subsequent exchanges get a refused
				// connection, exactly like a crashed process.
				go victim.CloseClientConnections()
				conn, _, err := http.NewResponseController(rw).Hijack()
				if err == nil {
					conn.Close()
				}
				return
			}
			h.ServeHTTP(rw, r)
		})
		ts := httptest.NewServer(wrapped)
		t.Cleanup(ts.Close)
		if i == 2 {
			victim = ts
		}
		urls[i] = ts.URL
	}
	fleet, err := httptransport.Dial(urls, httptransport.Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	model, _ := engine.Lookup(fleet.Info().Kind)
	tr := fleet.Run()
	defer tr.Close()
	// NetConst 0.2 keeps 8000 rows on the iterative protocol (n > 2m+1).
	sol, _, err := model.SolveTransport(fleet.Info().Dim, fleet.Info().Objective, tr, engine.Options{Seed: 1, NetConst: 0.2})
	var te *comm.TransportError
	if !errors.As(err, &te) {
		t.Fatalf("want *comm.TransportError, got %v", err)
	}
	if te.Site != 2 {
		t.Fatalf("error blames site %d, want 2", te.Site)
	}
	if len(sol.Fields) != 0 {
		t.Fatalf("a failed solve returned a partial solution: %+v", sol)
	}
}

// TestWorkerStepHardened: the binary endpoint must answer garbage,
// truncated frames and unknown sessions with clean 4xx responses.
func TestWorkerStepHardened(t *testing.T) {
	m, _ := engine.Lookup("meb")
	manifest := writeShardedInstance(t, m, 60, 1, 1)
	urls := startWorkerFleet(t, manifest, 1, nil)
	post := func(body []byte) int {
		resp, err := http.Post(urls[0]+httptransport.StepPath, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post([]byte("garbage")); code != http.StatusBadRequest {
		t.Errorf("garbage body: HTTP %d, want 400", code)
	}
	valid := comm.EncodeFrame(comm.Frame{Type: comm.FrameRoundA, Session: 12345, Seq: 1, Payload: []byte{0}})
	if code := post(valid); code != http.StatusNotFound {
		t.Errorf("unknown session: HTTP %d, want 404", code)
	}
	if code := post(valid[:len(valid)-1]); code != http.StatusBadRequest {
		t.Errorf("truncated frame: HTTP %d, want 400", code)
	}
	// A begin with a corrupt payload.
	bad := comm.EncodeFrame(comm.Frame{Type: comm.FrameBegin, Seq: 1, Payload: []byte{0xff}})
	if code := post(bad); code != http.StatusBadRequest {
		t.Errorf("bad begin payload: HTTP %d, want 400", code)
	}
}

// TestFleetDialIncoherent: workers holding shards of different
// instances (different kinds) must be refused at dial time, before
// any protocol round flies.
func TestFleetDialIncoherent(t *testing.T) {
	meb, _ := engine.Lookup("meb")
	svm, _ := engine.Lookup("svm")
	mebURLs := startWorkerFleet(t, writeShardedInstance(t, meb, 60, 1, 1), 1, nil)
	svmURLs := startWorkerFleet(t, writeShardedInstance(t, svm, 60, 1, 1), 1, nil)
	if _, err := httptransport.Dial(append(mebURLs, svmURLs...), httptransport.Options{}); err == nil {
		t.Fatal("Dial accepted a meb shard and an svm shard as one fleet")
	}
	if _, err := httptransport.Dial(nil, httptransport.Options{}); err == nil {
		t.Fatal("Dial accepted an empty fleet")
	}
}

// TestWorkerRejectsManifest: a worker owns one shard, not a sharded
// layout.
func TestWorkerRejectsManifest(t *testing.T) {
	m, _ := engine.Lookup("meb")
	manifest := writeShardedInstance(t, m, 60, 2, 1)
	if _, err := NewWorker(WorkerConfig{DataPath: manifest}); err == nil {
		t.Fatal("NewWorker accepted an LDSETM manifest")
	}
}

// TestServerFleetRequests drives "fleet": true solves through a
// front-end lpserved — the full HTTP → job queue → fleet → workers
// path — and checks agreement with the in-process answer plus the
// error cases (kind mismatch, no fleet configured).
func TestServerFleetRequests(t *testing.T) {
	m, _ := engine.Lookup("lp")
	const k = 3
	manifest := writeShardedInstance(t, m, 5000, k, 4)
	_, info, src, err := engine.OpenDatasetSource(manifest)
	if err != nil {
		t.Fatal(err)
	}
	defer dataset.CloseSource(src)
	urls := startWorkerFleet(t, manifest, k, nil)
	_, ts := newTestServer(t, Config{FleetWorkers: urls})

	want, wantStats, err := m.SolveSource(engine.BackendCoordinator, info.Dim, info.Objective, src, engine.Options{Seed: 3, K: k})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/solve", map[string]any{
		"fleet":   true,
		"options": map[string]any{"seed": 3},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet solve: HTTP %d: %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	if st.Kind != "lp" || st.Model != ModelCoordinator {
		t.Fatalf("job reports kind=%q model=%q", st.Kind, st.Model)
	}
	if st.N != info.Rows {
		t.Fatalf("job reports n=%d, want %d", st.N, info.Rows)
	}
	if st.Stats == nil || st.Stats.Coordinator == nil || *st.Stats.Coordinator != *wantStats.Coordinator {
		t.Fatalf("fleet job stats %+v, want %+v", st.Stats, wantStats.Coordinator)
	}
	if !reflect.DeepEqual(solutionFields(t, *st.Result), solutionFields(t, want)) {
		t.Fatalf("fleet solution drift:\n got %+v\nwant %+v", *st.Result, want)
	}

	// Kind expectation mismatch → failed job.
	resp, body = postJSON(t, ts.URL+"/v1/solve", map[string]any{"fleet": true, "kind": "meb"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("kind mismatch: HTTP %d: %s", resp.StatusCode, body)
	}

	// Fleet requests refuse local instance material outright.
	resp, body = postJSON(t, ts.URL+"/v1/solve", map[string]any{
		"fleet": true, "kind": "lp", "dim": 2, "objective": []float64{1, 1},
		"rows": [][]float64{{1, 0, 1}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("fleet+rows: HTTP %d: %s", resp.StatusCode, body)
	}

	// No fleet configured → failed job, clean error.
	_, bare := newTestServer(t, Config{})
	resp, body = postJSON(t, bare.URL+"/v1/solve", map[string]any{"fleet": true})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("no fleet: HTTP %d: %s", resp.StatusCode, body)
	}
}

// solutionFields projects a Solution to comparable key/value pairs:
// the JSON round trip drops labels, so compare what the wire carries.
func solutionFields(t *testing.T, s SolveResult) map[string]any {
	t.Helper()
	out := make(map[string]any)
	for _, f := range s.Fields {
		if f.IsVec {
			out[f.Key] = fmt.Sprintf("%v", f.Vec)
		} else {
			out[f.Key] = fmt.Sprintf("%v", f.Num)
		}
	}
	return out
}
