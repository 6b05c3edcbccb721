package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lowdimlp"
	"lowdimlp/internal/workload"
)

// newTestServer starts a Server on an httptest listener and tears
// both down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func getJSON(t *testing.T, url string, into any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func decodeStatus(t *testing.T, raw []byte) JobStatus {
	t.Helper()
	var st JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	return st
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	var body map[string]bool
	resp := getJSON(t, ts.URL+"/healthz", &body)
	if resp.StatusCode != http.StatusOK || !body["ok"] {
		t.Fatalf("healthz: status %d body %v", resp.StatusCode, body)
	}
}

func TestSolveSyncLP(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := SolveRequest{
		Kind: "lp", Model: "stream", Dim: 2,
		Objective: []float64{1, 1},
		Rows:      [][]float64{{-1, 0, -1}, {0, -1, -2}},
		Options:   SolveOptions{R: 2, Seed: 7},
	}
	resp, raw := postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	st := decodeStatus(t, raw)
	if st.State != StateDone || st.Result == nil || st.Stats == nil || st.Stats.Stream == nil {
		t.Fatalf("unexpected status: %+v", st)
	}
	// min x+y s.t. x ≥ 1, y ≥ 2 → (1, 2), value 3.
	if v, ok := st.Result.Scalar("value"); !ok || math.Abs(v-3) > 1e-9 {
		t.Fatalf("value %v, want 3", v)
	}
	if st.Stats.Stream.Passes < 1 {
		t.Fatalf("missing stream stats: %+v", st.Stats.Stream)
	}
}

// TestNetConstBoundary: a huge finite net_const is a valid request — its
// net covers the input, so every sampled model ships the rows and
// answers (it used to overflow the net size and kill the process); a
// negative one fails the job with the library's ErrNetConst message as
// a 422, even where a ram result for the same rows is cached, and the
// server stays healthy throughout.
func TestNetConstBoundary(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	gen := &GenerateSpec{Family: "sphere", N: 20000, D: 3, Seed: 5}
	ref, raw := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Kind: "lp", Model: "ram", Generate: gen})
	if ref.StatusCode != http.StatusOK {
		t.Fatalf("ram: status %d: %s", ref.StatusCode, raw)
	}
	want, _ := decodeStatus(t, raw).Result.Scalar("value")
	// A seed per model: a cached basis of the same seed would answer warm.
	for i, model := range []string{"stream", "coordinator", "mpc"} {
		resp, raw := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Kind: "lp", Model: model, Generate: gen,
			Options: SolveOptions{R: 2, Seed: uint64(i + 1), NetConst: 1e308}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s, net_const 1e308: status %d: %s", model, resp.StatusCode, raw)
		}
		st := decodeStatus(t, raw)
		direct := (st.Stats.Stream != nil && st.Stats.Stream.DirectSolve) ||
			(st.Stats.Coordinator != nil && st.Stats.Coordinator.DirectSolve) ||
			(st.Stats.MPC != nil && st.Stats.MPC.DirectSolve)
		if v, _ := st.Result.Scalar("value"); !direct || math.Abs(v-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("%s, net_const 1e308: value %v (ram %v), stats %s: want the shipped input's exact answer", model, v, want, st.Stats)
		}
	}
	lpModel, _ := lowdimlp.LookupKind("lp")
	inst, err := lpModel.Generate("sphere", lowdimlp.GenParams{N: 20000, D: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	_, _, libErr := lowdimlp.SolveInstance("lp", "stream", inst, lowdimlp.Options{NetConst: -1})
	if libErr == nil {
		t.Fatal("library accepted net_const -1")
	}
	for _, model := range []string{"ram", "stream"} {
		resp, raw := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Kind: "lp", Model: model, Generate: gen,
			Options: SolveOptions{NetConst: -1}})
		if st := decodeStatus(t, raw); resp.StatusCode != http.StatusUnprocessableEntity || st.Error != libErr.Error() || st.Cached {
			t.Fatalf("%s, net_const -1: status %d, %+v; want 422 with %q", model, resp.StatusCode, st, libErr)
		}
	}
	var body map[string]bool
	if resp := getJSON(t, ts.URL+"/healthz", &body); resp.StatusCode != http.StatusOK || !body["ok"] {
		t.Fatalf("healthz after the net_const requests: status %d body %v", resp.StatusCode, body)
	}
}

func TestSolveValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []SolveRequest{
		{Kind: "quantum", Model: "ram", Dim: 2},
		{Kind: "lp", Model: "warp", Dim: 2, Objective: []float64{1, 1}},
		{Kind: "lp", Model: "ram", Dim: 2, Objective: []float64{1}},
		{Kind: "meb", Model: "ram", Dim: 0},
		{Kind: "meb", Model: "ram", Dim: MaxDim + 1},
	}
	for i, c := range cases {
		resp, raw := postJSON(t, ts.URL+"/v1/solve", c)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400 (%s)", i, resp.StatusCode, raw)
		}
	}
	// Row-content errors surface when the worker pool materializes the
	// inline body into the columnar store (handlers no longer decode
	// rows), so the sync path reports them as a failed job: 422 with
	// the row error, not a handler-time 400.
	rowCases := []SolveRequest{
		{Kind: "lp", Model: "ram", Dim: 2, Objective: []float64{1, 1}, Rows: [][]float64{{1, 2}}},
		{Kind: "svm", Model: "ram", Dim: 2, Rows: [][]float64{{1, 2, 5}}},
	}
	for i, c := range rowCases {
		resp, raw := postJSON(t, ts.URL+"/v1/solve", c)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("row case %d: status %d, want 422 (%s)", i, resp.StatusCode, raw)
		}
		st := decodeStatus(t, raw)
		if st.State != StateFailed || st.Error == "" {
			t.Errorf("row case %d: status %+v, want failed with row error", i, st)
		}
	}
	// NaN/Inf never survive JSON encoding, so the finite check is
	// exercised on Validate directly.
	bad := SolveRequest{Kind: "lp", Model: "ram", Dim: 2, Objective: []float64{1, math.NaN()}}
	if err := bad.Validate(); err == nil {
		t.Error("NaN objective passed validation")
	}
	bad = SolveRequest{Kind: "meb", Model: "ram", Dim: 1, Rows: [][]float64{{math.Inf(1)}}}
	if err := bad.Validate(); err == nil {
		t.Error("Inf row passed validation")
	}
}

func TestSolveGenerateQuery(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, raw := postJSON(t,
		ts.URL+"/v1/solve?generate=sphere&kind=lp&model=coordinator&n=500&d=3&seed=7&k=4", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	st := decodeStatus(t, raw)
	if st.State != StateDone || st.N != 500 || st.Stats == nil || st.Stats.Coordinator == nil {
		t.Fatalf("unexpected status: %+v", st)
	}
	lp, _ := lowdimlp.LookupKind("lp")
	inst, err := lp.Generate("sphere", lowdimlp.GenParams{N: 500, D: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ref := ramScalar(t, "lp", inst, 7, "value")
	if v, ok := st.Result.Scalar("value"); !ok || math.Abs(v-ref) > 1e-6 {
		t.Fatalf("generated solve %v vs reference %v", v, ref)
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := SolveRequest{
		Kind: "meb", Model: "mpc", Dim: 3,
		Generate: &GenerateSpec{Family: "gaussian", N: 2000, D: 3, Seed: 11},
		Options:  SolveOptions{Seed: 11, Delta: 0.5},
	}
	resp, raw := postJSON(t, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, raw)
	}
	st := decodeStatus(t, raw)
	if st.ID == "" {
		t.Fatalf("missing job id: %+v", st)
	}
	deadline := time.Now().Add(30 * time.Second)
	for st.State != StateDone && st.State != StateFailed {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", st.ID, st.State)
		}
		time.Sleep(10 * time.Millisecond)
		getJSON(t, ts.URL+"/v1/jobs/"+st.ID, &st)
	}
	radius, haveRadius := 0.0, false
	if st.Result != nil {
		radius, haveRadius = st.Result.Scalar("radius")
	}
	if st.State != StateDone || !haveRadius || st.Stats.MPC == nil {
		t.Fatalf("unexpected terminal status: %+v", st)
	}
	meb, _ := lowdimlp.LookupKind("meb")
	inst, err := meb.Generate("gaussian", lowdimlp.GenParams{N: 2000, D: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if ref := ramScalar(t, "meb", inst, 0, "radius"); math.Abs(radius-ref) > 1e-6 {
		t.Fatalf("radius %v vs reference %v", radius, ref)
	}
}

func TestJobNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp := getJSON(t, ts.URL+"/v1/jobs/job-999999", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

func TestChunkUploadFlow(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	exs, _ := workload.SeparableSVM(3, 400, 0.5, 31)
	rows := make([][]float64, len(exs))
	for i, e := range exs {
		rows[i] = append(append([]float64(nil), e.X...), e.Y)
	}

	resp, raw := postJSON(t, ts.URL+"/v1/instances", instanceCreateBody{Kind: "svm", Dim: 3})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d: %s", resp.StatusCode, raw)
	}
	var ref instanceRef
	if err := json.Unmarshal(raw, &ref); err != nil {
		t.Fatal(err)
	}
	// Upload in four chunks.
	for i := 0; i < len(rows); i += 100 {
		resp, raw := postJSON(t, ts.URL+"/v1/instances/"+ref.ID+"/rows",
			instanceAppendBody{Rows: rows[i : i+100]})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append status %d: %s", resp.StatusCode, raw)
		}
	}
	resp, raw = postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		Kind: "svm", Model: "stream", Dim: 3, InstanceID: ref.ID,
		Options: SolveOptions{R: 2, Seed: 31},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d: %s", resp.StatusCode, raw)
	}
	st := decodeStatus(t, raw)
	want := ramScalar(t, "svm", lowdimlp.Instance{Dim: 3, Rows: rows}, 0, "norm2")
	if n2, ok := st.Result.Scalar("norm2"); !ok || math.Abs(n2-want) > 1e-6 {
		t.Fatalf("norm2 %v vs reference %v", n2, want)
	}
	// The instance is single-use: reusing its consumed ID is a 404.
	resp, _ = postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		Kind: "svm", Model: "ram", Dim: 3, InstanceID: ref.ID,
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("reuse status %d, want 404", resp.StatusCode)
	}
}

func TestInstanceKindMismatchAndDrop(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	_, raw := postJSON(t, ts.URL+"/v1/instances", instanceCreateBody{Kind: "meb", Dim: 2})
	var ref instanceRef
	if err := json.Unmarshal(raw, &ref); err != nil {
		t.Fatal(err)
	}
	resp, _ := postJSON(t, ts.URL+"/v1/instances/"+ref.ID+"/rows",
		instanceAppendBody{Rows: [][]float64{{1, 2, 3}}}) // wrong width for meb dim 2
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad-width append status %d, want 400", resp.StatusCode)
	}
	dreq, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/instances/"+ref.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("drop status %d, want 204", dresp.StatusCode)
	}
}

func TestCacheHitAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, CacheSize: 8})
	req := SolveRequest{
		Kind: "lp", Model: "ram", Dim: 2,
		Objective: []float64{1, 0},
		Rows:      [][]float64{{-1, 0, -5}},
		Options:   SolveOptions{Seed: 3},
	}
	_, raw := postJSON(t, ts.URL+"/v1/solve", req)
	first := decodeStatus(t, raw)
	if first.Cached {
		t.Fatalf("first solve reported cached")
	}
	_, raw = postJSON(t, ts.URL+"/v1/solve", req)
	second := decodeStatus(t, raw)
	if !second.Cached {
		t.Fatalf("second solve not cached: %+v", second)
	}
	fv, _ := first.Result.Scalar("value")
	sv, _ := second.Result.Scalar("value")
	if math.Abs(sv-fv) > 0 {
		t.Fatalf("cached value %v differs from first %v", sv, fv)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()
	for _, want := range []string{
		"lpserved_jobs_submitted_total 2",
		"lpserved_jobs_done_total 2",
		"lpserved_cache_hits_total 1",
		"lpserved_cache_misses_total 1",
		`lpserved_solve_seconds_count{kind="lp",model="ram"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}

func TestSolveFailedInstance(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// Non-separable SVM: identical point with both labels.
	resp, raw := postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		Kind: "svm", Model: "ram", Dim: 2,
		Rows: [][]float64{{1, 1, 1}, {1, 1, -1}},
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 (%s)", resp.StatusCode, raw)
	}
	st := decodeStatus(t, raw)
	if st.State != StateFailed || st.Error == "" {
		t.Fatalf("unexpected status: %+v", st)
	}
}

func TestQueueFull(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	// Saturate the single worker + single queue slot with slow jobs,
	// then expect ErrQueueFull.
	slow := func() *SolveRequest {
		r := &SolveRequest{
			Kind: "lp", Model: "stream", Dim: 4,
			Generate: &GenerateSpec{Family: "sphere", N: 60_000, D: 4, Seed: 5},
			Options:  SolveOptions{R: 3, Seed: 5},
		}
		if err := r.Validate(); err != nil {
			panic(err)
		}
		if err := materialize(r); err != nil {
			panic(err)
		}
		return r
	}
	// Build the requests first: synthesizing one between submits gives
	// the running job time to finish, and then the queue never fills.
	reqs := make([]*SolveRequest, 10)
	for i := range reqs {
		reqs[i] = slow()
	}
	var jobs []*Job
	full := false
	for _, req := range reqs {
		j, err := s.manager.Submit(req)
		if err == ErrQueueFull {
			full = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if !full {
		t.Fatalf("queue never filled after %d submissions", len(jobs))
	}
	for _, j := range jobs {
		<-j.Done
	}
}

func TestQueueFullRestoresInstance(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	_, raw := postJSON(t, ts.URL+"/v1/instances", instanceCreateBody{Kind: "meb", Dim: 2})
	var ref instanceRef
	if err := json.Unmarshal(raw, &ref); err != nil {
		t.Fatal(err)
	}
	if _, err := s.instances.Append("", ref.ID, [][]float64{{0, 0}, {2, 0}}); err != nil {
		t.Fatal(err)
	}
	// Saturate the single worker + single queue slot, then submit the
	// uploaded instance into the full queue.
	sawFull := false
	for i := 0; i < 10 && !sawFull; i++ {
		resp, _ := postJSON(t, ts.URL+"/v1/jobs?generate=sphere&kind=lp&model=stream&n=60000&d=4", nil)
		sawFull = resp.StatusCode == http.StatusServiceUnavailable
		if !sawFull && resp.StatusCode != http.StatusAccepted {
			t.Fatalf("saturating submit %d: status %d", i, resp.StatusCode)
		}
		if !sawFull {
			continue
		}
		resp, raw := postJSON(t, ts.URL+"/v1/solve", SolveRequest{
			Kind: "meb", Model: "ram", Dim: 2, InstanceID: ref.ID,
		})
		if resp.StatusCode != http.StatusServiceUnavailable {
			// The queue drained in between; not the scenario under test.
			t.Skipf("queue drained before the instance submit (status %d: %s)", resp.StatusCode, raw)
		}
		// The 503 must not have destroyed the upload.
		if s.instances.Len() != 1 {
			t.Fatalf("instance not restored after queue-full 503")
		}
		if _, err := s.instances.Append("", ref.ID, [][]float64{{1, 1}}); err != nil {
			t.Fatalf("restored instance unusable: %v", err)
		}
	}
	if !sawFull {
		t.Skip("queue never filled; nothing to assert")
	}
}

func TestGracefulShutdownDrainsQueue(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	var jobs []*Job
	for i := 0; i < 6; i++ {
		r := &SolveRequest{
			Kind: "meb", Model: "stream", Dim: 3,
			Generate: &GenerateSpec{Family: "ball", N: 3000, D: 3, Seed: uint64(i)},
			Options:  SolveOptions{R: 2, Seed: uint64(i)},
		}
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := materialize(r); err != nil {
			t.Fatal(err)
		}
		j, err := s.manager.Submit(r)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for i, j := range jobs {
		st := j.Status()
		if st.State != StateDone {
			t.Errorf("job %d not drained: %+v", i, st)
		}
	}
	if _, err := s.manager.Submit(&SolveRequest{Kind: "lp"}); err != ErrShuttingDown {
		t.Fatalf("post-shutdown submit error %v, want ErrShuttingDown", err)
	}
}

func TestDigestStability(t *testing.T) {
	mk := func() *SolveRequest {
		return &SolveRequest{
			Kind: "lp", Model: "stream", Dim: 2,
			Objective: []float64{1, 1},
			Rows:      [][]float64{{-1, 0, -1}, {0, -1, -2}},
			Options:   SolveOptions{R: 2, Seed: 7},
		}
	}
	a, b := mk(), mk()
	if a.Digest() != b.Digest() {
		t.Fatalf("equal requests, different digests")
	}
	b.Options.Seed = 8
	if a.Digest() == b.Digest() {
		t.Fatalf("seed change did not change the digest")
	}
	c := mk()
	c.Model = "mpc"
	if a.Digest() == c.Digest() {
		t.Fatalf("model change did not change the digest")
	}
	// Parallel only changes wall-clock, never the answer → same digest.
	d := mk()
	d.Options.Parallel = true
	if a.Digest() != d.Digest() {
		t.Fatalf("parallel flag changed the digest")
	}
}

func TestLRUCacheEviction(t *testing.T) {
	c := NewCache(2)
	put := func(k string) { c.Put(k, &SolveResult{}, nil) }
	put("a")
	put("b")
	if _, _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted too early")
	}
	put("c") // evicts b (a was just touched)
	if _, _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, _, ok := c.Get(k); !ok {
			t.Fatalf("%s missing", k)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("len %d, want 2", c.Len())
	}
}

// TestBasisCacheNilSafeAndBounded: a nil or zero-capacity basis cache
// is a disabled one, a nil basis is never stored, and the LRU it shares
// with the result cache bounds it.
func TestBasisCacheNilSafeAndBounded(t *testing.T) {
	var off *BasisCache
	off.Put("a", 1)
	if _, ok := off.Get("a"); ok || off.Enabled() || off.Len() != 0 {
		t.Fatal("a nil basis cache must be disabled")
	}
	if c := NewBasisCache(0); c.Enabled() {
		t.Fatal("capacity 0 must disable the basis cache")
	}
	c := NewBasisCache(1)
	c.Put("nil", nil)
	if _, ok := c.Get("nil"); ok || c.Len() != 0 {
		t.Fatal("a nil basis was stored")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("a should have been evicted")
	}
	if b, ok := c.Get("b"); !ok || b != 2 || c.Len() != 1 {
		t.Fatalf("b = %v, %v; len %d", b, ok, c.Len())
	}
}

func TestGenerateFamilies(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	cases := []struct{ kind, family string }{
		{"lp", "sphere"}, {"lp", "box"}, {"lp", "chebyshev"},
		{"svm", "separable"},
		{"meb", "gaussian"}, {"meb", "ball"}, {"meb", "shell"}, {"meb", "lowrank"},
		{"sea", "ring"}, {"sea", "gaussian"},
	}
	for _, c := range cases {
		url := fmt.Sprintf("%s/v1/solve?generate=%s&kind=%s&model=ram&n=300&d=3&seed=9",
			ts.URL, c.family, c.kind)
		resp, raw := postJSON(t, url, nil)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s/%s: status %d: %s", c.kind, c.family, resp.StatusCode, raw)
			continue
		}
		if st := decodeStatus(t, raw); st.State != StateDone {
			t.Errorf("%s/%s: state %s (%s)", c.kind, c.family, st.State, st.Error)
		}
	}
}
