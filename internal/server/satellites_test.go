package server

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"

	"lowdimlp"
	"lowdimlp/internal/engine"
)

// TestSEAEndToEnd exercises the fourth registered kind through every
// service surface — sync inline rows, async generated job, and the
// ?generate= query path — with zero SEA-specific server code.
func TestSEAEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	// Sync, inline: four unit-circle points → zero-width annulus.
	resp, raw := postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		Kind: "sea", Model: "ram", Dim: 2,
		Rows: [][]float64{{1, 0}, {-1, 0}, {0, 1}, {0, -1}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync status %d: %s", resp.StatusCode, raw)
	}
	st := decodeStatus(t, raw)
	if w, ok := st.Result.Scalar("width"); !ok || math.Abs(w) > 1e-9 {
		t.Fatalf("width %v, want 0 (%s)", w, raw)
	}
	if outer, _ := st.Result.Scalar("outer"); math.Abs(outer-1) > 1e-9 {
		t.Fatalf("outer radius %v, want 1", outer)
	}

	// Async, generated: ring family through /v1/jobs, checked against
	// the library's registry path on the identical instance.
	resp, raw = postJSON(t, ts.URL+"/v1/jobs", SolveRequest{
		Kind: "sea", Model: "stream",
		Generate: &GenerateSpec{Family: "ring", N: 1500, D: 3, Seed: 7},
		Options:  engine.Options{R: 2, Seed: 7},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, raw)
	}
	st = decodeStatus(t, raw)
	deadline := time.Now().Add(30 * time.Second)
	for st.State != StateDone && st.State != StateFailed {
		if time.Now().After(deadline) {
			t.Fatalf("sea job stuck in %s", st.State)
		}
		time.Sleep(10 * time.Millisecond)
		getJSON(t, ts.URL+"/v1/jobs/"+st.ID, &st)
	}
	if st.State != StateDone || st.Stats == nil || st.Stats.Stream == nil {
		t.Fatalf("terminal status: %+v (%s)", st, st.Error)
	}
	m, ok := lowdimlp.LookupKind("sea")
	if !ok {
		t.Fatal("sea not registered")
	}
	inst, err := m.Generate("ring", engine.GenParams{N: 1500, D: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := lowdimlp.SolveInstance("sea", "ram", inst, lowdimlp.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	refW, _ := ref.Scalar("width")
	gotW, _ := st.Result.Scalar("width")
	if math.Abs(refW-gotW) > 1e-6 {
		t.Fatalf("served width %v vs library reference %v", gotW, refW)
	}

	// ?generate= query path.
	resp, raw = postJSON(t, ts.URL+"/v1/solve?generate=ring&kind=sea&model=coordinator&n=800&d=2&seed=9&k=4", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query-generate status %d: %s", resp.StatusCode, raw)
	}
	st = decodeStatus(t, raw)
	if st.Stats == nil || st.Stats.Coordinator == nil {
		t.Fatalf("missing coordinator stats: %+v", st)
	}
	if outer, ok := st.Result.Scalar("outer"); !ok || math.Abs(outer-5) > 0.2 {
		t.Fatalf("planted ring outer radius %v, want ≈5", outer)
	}
}

// TestModelsEndpoint checks the capability-discovery endpoint lists
// every registered kind with its families.
func TestModelsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var body struct {
		Kinds []struct {
			Kind     string   `json:"kind"`
			Families []string `json:"families"`
		} `json:"kinds"`
		Models []string `json:"models"`
	}
	resp := getJSON(t, ts.URL+"/v1/models", &body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(body.Models) != 4 {
		t.Fatalf("models %v", body.Models)
	}
	seen := map[string]bool{}
	for _, k := range body.Kinds {
		seen[k.Kind] = len(k.Families) > 0
	}
	for _, want := range []string{"lp", "svm", "meb", "sea"} {
		if !seen[want] {
			t.Fatalf("kind %s missing or family-less in %+v", want, body.Kinds)
		}
	}
}

// TestDigestCanonicalization: options a model ignores must not split
// the cache key (the ROADMAP ?k=-on-ram case), while options it reads
// must.
func TestDigestCanonicalization(t *testing.T) {
	mk := func(model string, o engine.Options) *SolveRequest {
		return &SolveRequest{
			Kind: "lp", Model: model, Dim: 2,
			Objective: []float64{1, 1},
			Rows:      [][]float64{{-1, 0, -1}},
			Options:   o,
		}
	}
	// ram ignores everything but the seed.
	a := mk(ModelRAM, engine.Options{Seed: 7})
	b := mk(ModelRAM, engine.Options{Seed: 7, R: 5, K: 9, Delta: 0.3, NetConst: 2, MonteCarlo: true})
	if a.Digest() != b.Digest() {
		t.Fatal("ram digest split by ignored options")
	}
	// Defaults normalize: explicit R=2/K=4 ≡ zero values.
	if mk(ModelStream, engine.Options{Seed: 7}).Digest() != mk(ModelStream, engine.Options{Seed: 7, R: 2, K: 9}).Digest() {
		t.Fatal("stream digest split by default R / ignored K")
	}
	if mk(ModelCoordinator, engine.Options{Seed: 7}).Digest() != mk(ModelCoordinator, engine.Options{Seed: 7, K: 4}).Digest() {
		t.Fatal("coordinator digest split by default K")
	}
	// Options the model reads must still split.
	if mk(ModelCoordinator, engine.Options{Seed: 7, K: 2}).Digest() == mk(ModelCoordinator, engine.Options{Seed: 7, K: 8}).Digest() {
		t.Fatal("coordinator K=2 vs K=8 collided")
	}
	if mk(ModelMPC, engine.Options{Seed: 7}).Digest() == mk(ModelMPC, engine.Options{Seed: 7, R: 2}).Digest() {
		t.Fatal("mpc R=0 (derive from δ) vs R=2 collided")
	}
	if mk(ModelRAM, engine.Options{Seed: 7}).Digest() == mk(ModelRAM, engine.Options{Seed: 8}).Digest() {
		t.Fatal("seed change did not split the ram digest")
	}
}

// TestInstanceTTLEviction: abandoned uploads are reclaimed by the
// sweep, freeing their slots.
// appendRows uploads rows to an open instance the way the JSON chunk
// handler does: engine.Columnar runs the row check, AppendChunk stores
// the chunk.
func appendRows(store *InstanceStore, ns, id string, rows [][]float64) (int, error) {
	kind, dim, err := store.Meta(ns, id)
	if err != nil {
		return 0, err
	}
	m, err := lookupModel(kind)
	if err != nil {
		return 0, err
	}
	chunk, err := engine.Columnar(m, engine.Instance{Dim: dim, Rows: rows})
	if err != nil {
		return 0, err
	}
	return store.AppendChunk(ns, id, chunk)
}

func TestInstanceTTLEviction(t *testing.T) {
	store := NewInstanceStore(2, 30*time.Millisecond)
	if _, err := store.Create("", "meb", 2); err != nil {
		t.Fatal(err)
	}
	id, err := store.Create("", "meb", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Create("", "meb", 2); err == nil {
		t.Fatal("slot limit not enforced")
	}
	time.Sleep(40 * time.Millisecond)
	// A late append keeps one instance alive through the sweep.
	if _, err := appendRows(store, "", id, [][]float64{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if n := store.Sweep(); n != 1 {
		t.Fatalf("swept %d instances, want 1", n)
	}
	if store.Len() != 1 {
		t.Fatalf("%d instances left, want the touched one", store.Len())
	}
	if _, err := appendRows(store, "", id, [][]float64{{3, 4}}); err != nil {
		t.Fatalf("touched instance unusable after sweep: %v", err)
	}
	// The freed slot is reusable.
	if _, err := store.Create("", "lp", 2); err != nil {
		t.Fatalf("slot not freed by sweep: %v", err)
	}
}

// TestInstanceListEndpoint: GET /v1/instances shows open uploads.
func TestInstanceListEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	_, raw := postJSON(t, ts.URL+"/v1/instances", instanceCreateBody{Kind: "svm", Dim: 2})
	var ref instanceRef
	if err := json.Unmarshal(raw, &ref); err != nil {
		t.Fatal(err)
	}
	if _, err := appendRows(s.instances, "", ref.ID, [][]float64{{1, 2, 1}, {3, 4, -1}}); err != nil {
		t.Fatal(err)
	}
	var body struct {
		Instances []InstanceInfo `json:"instances"`
		Limit     int            `json:"limit"`
	}
	resp := getJSON(t, ts.URL+"/v1/instances", &body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(body.Instances) != 1 || body.Limit != 64 {
		t.Fatalf("list %+v", body)
	}
	got := body.Instances[0]
	if got.ID != ref.ID || got.Kind != "svm" || got.Dim != 2 || got.Rows != 2 {
		t.Fatalf("listed instance %+v", got)
	}
	if got.AgeMS < 0 || got.IdleMS < 0 {
		t.Fatalf("negative age/idle: %+v", got)
	}
}

// TestTombstoneBlocksResurrection: a DELETE that lands between Take
// and Restore (queue-full retry) must win — the restore is dropped.
func TestTombstoneBlocksResurrection(t *testing.T) {
	store := NewInstanceStore(4, time.Minute)
	id, err := store.Create("", "meb", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendRows(store, "", id, [][]float64{{0, 0}, {1, 1}}); err != nil {
		t.Fatal(err)
	}
	rows, err := store.Take("", id, "meb", 2)
	if err != nil {
		t.Fatal(err)
	}
	// Client deletes while the job submission is in flight. The ID is
	// already consumed, so Drop reports false — but must tombstone.
	if store.Drop("", id) {
		t.Fatal("drop of a consumed id reported success")
	}
	// Queue-full path tries to hand the rows back.
	store.Restore("", id, "meb", 2, rows)
	if store.Len() != 0 {
		t.Fatal("deleted instance was resurrected by Restore")
	}
	if _, err := appendRows(store, "", id, [][]float64{{2, 2}}); err == nil {
		t.Fatal("appending to a deleted instance succeeded")
	}
	// A fresh instance under a different ID is unaffected.
	id2, err := store.Create("", "meb", 2)
	if err != nil {
		t.Fatal(err)
	}
	store.Restore("", id2, "meb", 2, rows) // not tombstoned: overwrite allowed
	if store.Len() != 1 {
		t.Fatal("untombstoned restore failed")
	}
}

// TestDeltaQueryOverlay: ?delta= reaches the MPC solver (ROADMAP:
// load tests previously had to ship delta in the JSON body).
func TestDeltaQueryOverlay(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, raw := postJSON(t, ts.URL+"/v1/solve?generate=gaussian&kind=meb&model=mpc&n=4000&d=2&seed=3&delta=0.7", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	st := decodeStatus(t, raw)
	if st.Stats == nil || st.Stats.MPC == nil {
		t.Fatalf("missing mpc stats: %+v", st)
	}
	if st.Stats.MPC.Delta != 0.7 {
		t.Fatalf("mpc ran with δ=%v, want the query's 0.7", st.Stats.MPC.Delta)
	}
	// Malformed delta is a 400.
	resp, _ = postJSON(t, ts.URL+"/v1/solve?generate=gaussian&kind=meb&model=mpc&n=100&delta=nope", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad delta status %d, want 400", resp.StatusCode)
	}
}

// TestShutdownConcurrent: Shutdown must be safe to call repeatedly
// and concurrently (signal handler racing a supervisor timeout).
func TestShutdownConcurrent(t *testing.T) {
	s := New(Config{Workers: 1})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Errorf("shutdown: %v", err)
			}
		}()
	}
	wg.Wait()
}

// TestSweepKeepsRacingAppend: an Append that lands between the
// sweeper's candidate scan and its eviction either keeps the instance
// alive or fails loudly — it never reports success for rows that are
// then thrown away.
func TestSweepKeepsRacingAppend(t *testing.T) {
	store := NewInstanceStore(8, time.Millisecond)
	for trial := 0; trial < 50; trial++ {
		id, err := store.Create("", "meb", 2)
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond) // go idle past the TTL
		done := make(chan int, 1)
		go func() {
			n, err := appendRows(store, "", id, [][]float64{{1, 2}})
			if err != nil {
				n = -1
			}
			done <- n
		}()
		store.Sweep()
		if n := <-done; n > 0 {
			// Append reported success → the rows must be reachable.
			data, err := store.Take("", id, "meb", 2)
			if err != nil || data.Rows() != n {
				t.Fatalf("trial %d: successful append lost (%v, %d rows)", trial, err, data.Rows())
			}
		}
	}
}
