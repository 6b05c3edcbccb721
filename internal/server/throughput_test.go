package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"lowdimlp/internal/comm"
	"lowdimlp/internal/engine"
	"lowdimlp/internal/gateway"
	"lowdimlp/internal/obs"
)

// throughputRequest builds a validated stream-model generate request.
func throughputRequest(t *testing.T, n int, genSeed, optSeed uint64) *SolveRequest {
	t.Helper()
	req := &SolveRequest{
		Kind:  "meb",
		Model: ModelStream,
		Generate: &GenerateSpec{
			Family: "gaussian", N: n, D: 3, Seed: genSeed,
		},
		Options: engine.Options{R: 2, Seed: optSeed},
	}
	if err := req.Validate(); err != nil {
		t.Fatal(err)
	}
	return req
}

// soloReference solves an identical request alone, outside any manager
// — the ground truth a served job must reproduce bit for bit.
func soloReference(t *testing.T, req *SolveRequest) (*SolveResult, *StatsPayload) {
	t.Helper()
	if err := materialize(req); err != nil {
		t.Fatal(err)
	}
	result, stats, _, err := runSolve(req)
	if err != nil {
		t.Fatal(err)
	}
	return result, stats
}

// TestBatchCoalescesIdenticalJobs pins that identical queued jobs solve
// once: k jobs with EQUAL digests (same instance, same options) staged
// behind an idle pool and released to k workers at once resolve to one
// solver run — the first to reach the key leads, the rest join it and
// copy its outcome, counted as coalesced, not as cache hits.
func TestBatchCoalescesIdenticalJobs(t *testing.T) {
	const k = 8
	m := newManagerIdle(64, NewCache(8), NewMetrics())

	// Large enough that the leader is still mid-solve when the last
	// worker dequeues (microseconds later) and checks the in-flight map.
	jobs := make([]*Job, k)
	for i := 0; i < k; i++ {
		j, err := m.Submit(throughputRequest(t, 200000, 5, 77)) // identical digests
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	m.start(k)
	for _, j := range jobs {
		<-j.Done
	}

	if got := m.metrics.CacheMisses.Load(); got != 1 {
		t.Errorf("cache misses = %d, want 1 (one real solve)", got)
	}
	if got := m.metrics.CacheHits.Load(); got != 0 {
		t.Errorf("cache hits = %d, want 0 (dedup is coalescing, not caching)", got)
	}
	if got := m.metrics.SolveCoalesced.Load(); got != k-1 {
		t.Errorf("coalesced = %d, want %d", got, k-1)
	}
	var leaders int
	first := jobs[0].Status()
	for i, j := range jobs {
		st := j.Status()
		if st.State != StateDone {
			t.Fatalf("job %d state %s (err %q)", i, st.State, st.Error)
		}
		if !st.Coalesced {
			leaders++
		}
		if !reflect.DeepEqual(st.Result, first.Result) {
			t.Errorf("job %d result differs from job 0", i)
		}
	}
	if leaders != 1 {
		t.Errorf("jobs flagged as genuine solves = %d, want exactly 1", leaders)
	}
}

// TestSoloInflightCoalescing pins the coalescing window: two identical
// requests running concurrently on separate workers resolve to one
// solve — the follower waits for the in-flight leader and copies its
// result instead of re-synthesizing and re-solving. The digest carries
// no tenant, so the two may come from different tenants: the follower
// still coalesces, but its trace must not leak the leader's job handle.
// A failing leader hands its followers the error value itself.
func TestSoloInflightCoalescing(t *testing.T) {
	m := newManagerIdle(64, NewCache(8), NewMetrics())
	tenantReq := func(tenant string) *SolveRequest {
		// Large enough that the leader is still mid-solve when the
		// second worker dequeues (microseconds later) and checks the
		// in-flight map.
		req := throughputRequest(t, 200000, 3, 9)
		req.tenant = &gateway.Tenant{ID: tenant}
		req.Trace = true
		return req
	}
	j1, err := m.Submit(tenantReq("acme"))
	if err != nil {
		t.Fatal(err)
	}
	j2, err := m.Submit(tenantReq("globex"))
	if err != nil {
		t.Fatal(err)
	}
	m.start(2)
	<-j1.Done
	<-j2.Done

	if got := m.metrics.SolveCoalesced.Load(); got != 1 {
		t.Errorf("coalesced = %d, want 1", got)
	}
	st1, st2 := j1.Status(), j2.Status()
	if st1.State != StateDone || st2.State != StateDone {
		t.Fatalf("states %s/%s (errs %q/%q)", st1.State, st2.State, st1.Error, st2.Error)
	}
	if st1.Coalesced == st2.Coalesced {
		t.Fatalf("exactly one job should be coalesced; got %v/%v", st1.Coalesced, st2.Coalesced)
	}
	if !reflect.DeepEqual(st1.Result, st2.Result) {
		t.Errorf("coalesced result differs from leader:\n %+v\n %+v", st1.Result, st2.Result)
	}
	leader, follower := st1, st2
	if st1.Coalesced {
		leader, follower = st2, st1
	}
	if got := follower.Trace.Attrs["coalesced"]; got != "true" {
		t.Errorf("cross-tenant follower trace coalesced = %q, want \"true\"", got)
	}
	if raw, _ := json.Marshal(follower.Trace); strings.Contains(string(raw), leader.ID) {
		t.Errorf("follower's trace leaks the other tenant's job ID %s: %s", leader.ID, raw)
	}

	// join stages a terminal leader under a fresh key and walks one
	// traced follower through joinLeader and finishJob.
	join := func(key, leaderTenant, followerTenant string, leaderErr error) (*Job, JobStatus) {
		lead := &Job{ID: newJobID(), tenant: leaderTenant, Done: make(chan struct{}), state: StateFailed, err: leaderErr}
		close(lead.Done)
		m.inflight[key] = lead
		fol := &Job{ID: newJobID(), Kind: "meb", Model: ModelStream, tenant: followerTenant, Done: make(chan struct{})}
		tr := obs.New("meb/stream")
		out, joined := m.joinLeader(fol, key, tr)
		if !joined {
			t.Fatalf("follower did not join the in-flight leader under %q", key)
		}
		m.finishJob(fol, &SolveRequest{}, tr, "", time.Millisecond, out)
		return lead, fol.Status()
	}

	// Inside one tenant the follower's trace names its leader.
	lead, st := join("same-tenant", "acme", "acme", nil)
	if got := st.Trace.Attrs["coalesced"]; got != lead.ID {
		t.Errorf("same-tenant follower trace coalesced = %q, want the leader's ID %s", got, lead.ID)
	}

	// A failing leader: the follower gets the error value, type and
	// all, so its trace reports the leader's error class.
	leadErr := fmt.Errorf("site 1: %w: round B without a preceding round A", comm.ErrProtocol)
	lead, st = join("failing-leader", "acme", "globex", leadErr)
	if st.State != StateFailed || !st.Coalesced || st.Error != leadErr.Error() {
		t.Errorf("follower of a failed leader: state %s coalesced %v error %q", st.State, st.Coalesced, st.Error)
	}
	if st.Trace.ErrClass != comm.ClassProtocol {
		t.Errorf("follower trace error class = %q, want %q (its leader's)", st.Trace.ErrClass, comm.ClassProtocol)
	}
	if got := st.Trace.Attrs["coalesced"]; got != "true" {
		t.Errorf("cross-tenant follower trace coalesced = %q, want \"true\"", got)
	}
}

// TestWarmStartConformance pins warm starts end to end over HTTP: with
// the result cache off and the basis cache on, a repeated request
// re-verifies the stored basis in one scan and returns the
// bit-identical solution, flagged warm.
func TestWarmStartConformance(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, CacheSize: -1})
	req := SolveRequest{
		Kind: "meb", Model: ModelStream,
		Generate: &GenerateSpec{Family: "gaussian", N: 5000, D: 3, Seed: 3},
		Options:  engine.Options{R: 2, Seed: 5},
	}

	resp, raw := postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold solve: %d %s", resp.StatusCode, raw)
	}
	cold := decodeStatus(t, raw)
	if cold.Warm {
		t.Fatal("first solve flagged warm")
	}

	resp, raw = postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm solve: %d %s", resp.StatusCode, raw)
	}
	warm := decodeStatus(t, raw)
	if !warm.Warm {
		t.Fatalf("repeat did not warm-start: %s", raw)
	}
	if !reflect.DeepEqual(warm.Result, cold.Result) {
		t.Errorf("warm result diverged from cold:\n warm: %+v\n cold: %+v", warm.Result, cold.Result)
	}

	pm := scrape(t, ts.URL+"/metrics")
	if v := pm.Sum("lpserved_warm_hits_total"); v != 1 {
		t.Errorf("warm_hits_total = %g, want 1", v)
	}
	if v := pm.Sum("lpserved_warm_misses_total"); v != 0 {
		t.Errorf("warm_misses_total = %g, want 0", v)
	}
	if v := pm.Sum("lpserved_basis_entries"); v != 1 {
		t.Errorf("basis_entries = %g, want 1", v)
	}
}

// TestWarmStartDeltaOverlay pins the overlay use case the basis-cache
// key was designed for: the key excludes model and tuning knobs, so an
// MPC re-solve of the same instance at a different load exponent warm
// starts from the basis the first solve stored — the optimum depends
// only on the instance, not on how it was computed.
func TestWarmStartDeltaOverlay(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, CacheSize: -1})
	base := SolveRequest{
		Kind: "meb", Model: ModelMPC,
		Generate: &GenerateSpec{Family: "gaussian", N: 4000, D: 3, Seed: 7},
		Options:  engine.Options{Seed: 2, Delta: 0.5},
	}

	resp, raw := postJSON(t, ts.URL+"/v1/solve", base)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta=0.5 solve: %d %s", resp.StatusCode, raw)
	}
	first := decodeStatus(t, raw)

	overlay := base
	overlay.Options.Delta = 0.7
	resp, raw = postJSON(t, ts.URL+"/v1/solve", overlay)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta=0.7 solve: %d %s", resp.StatusCode, raw)
	}
	second := decodeStatus(t, raw)
	if !second.Warm {
		t.Fatalf("delta overlay did not warm-start: %s", raw)
	}
	if !reflect.DeepEqual(second.Result, first.Result) {
		t.Errorf("overlay result diverged:\n overlay: %+v\n first:   %+v", second.Result, first.Result)
	}
}

// TestBatchConformanceHTTP is the burst pin on the one job road, over
// HTTP: 16 async jobs over the same generated instance with distinct
// solver seeds queue up behind an idle pool, then run two at a time.
// Every job's result AND stats come back bit-identical to soloReference
// and nothing coalesces — concurrent jobs over one instance share
// nothing mutable.
func TestBatchConformanceHTTP(t *testing.T) {
	const k = 16
	s, ts := newTestServer(t, Config{Workers: 1, CacheSize: -1, queueDepth: 64})
	// Swap in a pool that has not started, so the whole burst is queued
	// before the first job runs.
	started := s.manager
	t.Cleanup(func() { started.Shutdown(context.Background()) })
	s.manager = newManagerIdle(64, NewCache(-1), s.metrics)

	ids := make([]string, k)
	for i := 0; i < k; i++ {
		resp, raw := postJSON(t, ts.URL+"/v1/jobs", SolveRequest{
			Kind: "meb", Model: ModelStream,
			Generate: &GenerateSpec{Family: "gaussian", N: 20000, D: 3, Seed: 12},
			Options:  engine.Options{R: 2, Seed: uint64(200 + i)},
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("burst submit %d: %d %s", i, resp.StatusCode, raw)
		}
		ids[i] = decodeStatus(t, raw).ID
	}
	s.manager.start(2)

	// Compare wire forms: the HTTP round trip drops the display-only
	// field labels, not any numbers.
	wire := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	deadline := time.Now().Add(120 * time.Second)
	for i, id := range ids {
		var st JobStatus
		for {
			getJSON(t, ts.URL+"/v1/jobs/"+id, &st)
			if st.State == StateDone {
				break
			}
			if st.State == StateFailed {
				t.Fatalf("job %d failed: %q", i, st.Error)
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %d stuck in %s", i, st.State)
			}
			time.Sleep(10 * time.Millisecond)
		}
		if st.Coalesced || st.Cached || st.Warm {
			t.Errorf("job %d flags cached=%v warm=%v coalesced=%v, want a genuine solve", i, st.Cached, st.Warm, st.Coalesced)
		}
		wantResult, wantStats := soloReference(t, throughputRequest(t, 20000, 12, uint64(200+i)))
		if got, want := wire(st.Result), wire(wantResult); got != want {
			t.Errorf("job %d result diverged from solo:\n http: %s\n solo: %s", i, got, want)
		}
		if got, want := wire(st.Stats), wire(wantStats); got != want {
			t.Errorf("job %d stats diverged from solo:\n http: %s\n solo: %s", i, got, want)
		}
	}

	pm := scrape(t, ts.URL+"/metrics")
	if v := pm.Sum("lpserved_solve_coalesced_total"); v != 0 {
		t.Errorf("solve_coalesced_total = %g, want 0 (distinct seeds never coalesce)", v)
	}
	if v := pm.Sum("lpserved_jobs_done_total"); v != k {
		t.Errorf("jobs_done_total = %g, want %d", v, k)
	}
}
