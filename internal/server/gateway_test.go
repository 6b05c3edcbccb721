package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lowdimlp/internal/gateway"
)

// tenantsAB is the two-tenant universe most gateway tests run under.
func tenantsAB(extra ...gateway.Tenant) []gateway.Tenant {
	ts := []gateway.Tenant{
		{ID: "acme", Key: "acme-secret-1"},
		{ID: "globex", Key: "globex-secret-1"},
	}
	return append(ts, extra...)
}

// newGatewayServer starts a Server behind a gateway over the given
// tenants.
func newGatewayServer(t *testing.T, cfg Config, tenants []gateway.Tenant) (*Server, *httptest.Server) {
	t.Helper()
	v, err := gateway.NewStaticValidator(tenants)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Gateway = gateway.New(v)
	return newTestServer(t, cfg)
}

// doAuth sends one request with a bearer key ("" = no Authorization
// header) and returns the response plus the read body.
func doAuth(t *testing.T, method, url, key string, body any) (*http.Response, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
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

// tinySolve is a fast deterministic request every tenant can run.
func tinySolve(seed uint64) SolveRequest {
	return SolveRequest{
		Kind: "meb", Model: ModelRAM,
		Generate: &GenerateSpec{Family: "ball", N: 64, D: 3, Seed: seed},
		Options:  SolveOptions{R: 2, Seed: seed},
	}
}

func TestGatewayAuthMatrix(t *testing.T) {
	_, ts := newGatewayServer(t, Config{Workers: 2}, tenantsAB())

	// No key and a wrong key are both 401 with a bearer challenge.
	resp, _ := doAuth(t, http.MethodPost, ts.URL+"/v1/solve", "", tinySolve(1))
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("no key: %d", resp.StatusCode)
	}
	if !strings.Contains(resp.Header.Get("WWW-Authenticate"), "Bearer") {
		t.Fatalf("no challenge: %q", resp.Header.Get("WWW-Authenticate"))
	}
	resp, _ = doAuth(t, http.MethodPost, ts.URL+"/v1/solve", "not-a-real-key", tinySolve(1))
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong key: %d", resp.StatusCode)
	}

	// A valid key solves normally.
	resp, raw := doAuth(t, http.MethodPost, ts.URL+"/v1/solve", "acme-secret-1", tinySolve(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("good key: %d %s", resp.StatusCode, raw)
	}
	if st := decodeStatus(t, raw); st.State != StateDone {
		t.Fatalf("state %q", st.State)
	}

	// Operational endpoints stay open: probes and scrapes carry no key.
	for _, path := range []string{"/healthz", "/metrics"} {
		if resp, _ := doAuth(t, http.MethodGet, ts.URL+path, "", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s without key: %d", path, resp.StatusCode)
		}
	}

	// The 401s surfaced on the board's unauthorized counter.
	m := scrape(t, ts.URL+"/metrics")
	if got := m.Sum("lpserved_tenant_unauthorized_total"); got != 2 {
		t.Fatalf("unauthorized = %v, want 2", got)
	}
	if got := m.Sum(`lpserved_tenant_requests_total`); got < 1 {
		t.Fatalf("tenant requests = %v, want ≥ 1", got)
	}
}

func TestGatewayCrossTenantInstances(t *testing.T) {
	_, ts := newGatewayServer(t, Config{Workers: 2}, tenantsAB())

	// acme opens an upload and appends rows.
	resp, raw := doAuth(t, http.MethodPost, ts.URL+"/v1/instances", "acme-secret-1",
		map[string]any{"kind": "meb", "dim": 2})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, raw)
	}
	var ref instanceRef
	if err := json.Unmarshal(raw, &ref); err != nil {
		t.Fatal(err)
	}
	resp, raw = doAuth(t, http.MethodPost, ts.URL+"/v1/instances/"+ref.ID+"/rows", "acme-secret-1",
		map[string]any{"rows": [][]float64{{0, 0}, {2, 0}, {1, 1}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: %d %s", resp.StatusCode, raw)
	}

	// globex cannot see, touch, drop, or solve it — all indistinguishable
	// from a nonexistent ID.
	var list struct {
		Instances []instanceRef `json:"instances"`
	}
	if _, raw := doAuth(t, http.MethodGet, ts.URL+"/v1/instances", "globex-secret-1", nil); true {
		if err := json.Unmarshal(raw, &list); err != nil {
			t.Fatal(err)
		}
		if len(list.Instances) != 0 {
			t.Fatalf("cross-tenant list sees %v", list.Instances)
		}
	}
	cases := []struct {
		method, path string
		body         any
	}{
		{http.MethodPost, "/v1/instances/" + ref.ID + "/rows", map[string]any{"rows": [][]float64{{9, 9}}}},
		{http.MethodDelete, "/v1/instances/" + ref.ID, nil},
		{http.MethodPost, "/v1/solve", SolveRequest{Kind: "meb", Model: ModelRAM, Dim: 2, InstanceID: ref.ID, Options: SolveOptions{R: 2, Seed: 1}}},
	}
	for _, c := range cases {
		if resp, raw := doAuth(t, c.method, ts.URL+c.path, "globex-secret-1", c.body); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s cross-tenant: %d %s", c.method, c.path, resp.StatusCode, raw)
		}
	}

	// The owner still solves it — the failed cross-tenant attempts
	// neither consumed nor tombstoned the upload.
	resp, raw = doAuth(t, http.MethodPost, ts.URL+"/v1/solve", "acme-secret-1",
		SolveRequest{Kind: "meb", Model: ModelRAM, Dim: 2, InstanceID: ref.ID, Options: SolveOptions{R: 2, Seed: 1}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owner solve: %d %s", resp.StatusCode, raw)
	}
}

func TestGatewayCrossTenantJobsAndTraces(t *testing.T) {
	_, ts := newGatewayServer(t, Config{Workers: 2}, tenantsAB())

	req := tinySolve(3)
	req.Trace = true
	resp, raw := doAuth(t, http.MethodPost, ts.URL+"/v1/jobs", "acme-secret-1", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	id := decodeStatus(t, raw).ID

	// Another tenant polling the job ID gets 404 — job IDs don't leak
	// existence across the boundary.
	if resp, _ := doAuth(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, "globex-secret-1", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-tenant poll: %d", resp.StatusCode)
	}

	// The owner polls it to done.
	deadline := time.Now().Add(30 * time.Second)
	var st JobStatus
	for {
		resp, raw = doAuth(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, "acme-secret-1", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("owner poll: %d %s", resp.StatusCode, raw)
		}
		if st = decodeStatus(t, raw); st.State == StateDone || st.State == StateFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.State != StateDone {
		t.Fatalf("job failed: %q", st.Error)
	}

	// The trace is stamped with its tenant: the owner sees it, the
	// other tenant's view is empty with a matching captured count.
	var view struct {
		Traces   []json.RawMessage `json:"traces"`
		Captured int64             `json:"captured"`
	}
	_, raw = doAuth(t, http.MethodGet, ts.URL+"/v1/traces", "acme-secret-1", nil)
	if err := json.Unmarshal(raw, &view); err != nil {
		t.Fatal(err)
	}
	if len(view.Traces) == 0 || view.Captured == 0 {
		t.Fatalf("owner trace view empty: %s", raw)
	}
	_, raw = doAuth(t, http.MethodGet, ts.URL+"/v1/traces", "globex-secret-1", nil)
	if err := json.Unmarshal(raw, &view); err != nil {
		t.Fatal(err)
	}
	if len(view.Traces) != 0 || view.Captured != 0 {
		t.Fatalf("cross-tenant trace view leaks: %s", raw)
	}
}

// TestGatewayQuotaVsQueueFull pins the backpressure taxonomy: a tenant
// at its own max_active gets 429 + Retry-After while the service has
// room, and a genuinely full queue stays 503 — different statuses for
// different problems.
func TestGatewayQuotaVsQueueFull(t *testing.T) {
	_, ts := newGatewayServer(t, Config{Workers: 1, QueueDepth: 1},
		tenantsAB(gateway.Tenant{ID: "small", Key: "small-secret-1", MaxActive: 1}))

	slow := func(seed uint64) SolveRequest {
		return SolveRequest{
			Kind: "meb", Model: ModelStream,
			Generate: &GenerateSpec{Family: "gaussian", N: 400000, D: 3, Seed: seed},
			Options:  SolveOptions{R: 2, Seed: seed},
		}
	}

	// small's first job occupies its whole quota (running on the one
	// worker)...
	resp, raw := doAuth(t, http.MethodPost, ts.URL+"/v1/jobs", "small-secret-1", slow(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", resp.StatusCode, raw)
	}
	firstID := decodeStatus(t, raw).ID
	// ...so its second is a quota 429, with Retry-After, naming the cap.
	resp, raw = doAuth(t, http.MethodPost, ts.URL+"/v1/jobs", "small-secret-1", slow(2))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("quota breach: %d %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("quota 429 missing Retry-After")
	}
	if !strings.Contains(string(raw), "quota") {
		t.Errorf("quota 429 body: %s", raw)
	}

	// An unlimited tenant still has queue room (quota ≠ capacity)...
	resp, raw = doAuth(t, http.MethodPost, ts.URL+"/v1/jobs", "acme-secret-1", slow(3))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("acme submit: %d %s", resp.StatusCode, raw)
	}
	// ...until the queue actually fills, which is the 503.
	resp, raw = doAuth(t, http.MethodPost, ts.URL+"/v1/jobs", "globex-secret-1", slow(4))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queue full: %d %s", resp.StatusCode, raw)
	}

	// The throttle landed on small's series and nobody was "shed" —
	// per-tenant quotas are not admission control.
	m := scrape(t, ts.URL+"/metrics")
	if fam, ok := m.Family("lpserved_tenant_throttled_total"); ok {
		for _, s := range fam.Samples {
			want := float64(0)
			if s.Label("tenant") == "small" {
				want = 1
			}
			if s.Value != want {
				t.Errorf("throttled{%s} = %v, want %v", s.Label("tenant"), s.Value, want)
			}
		}
	} else {
		t.Error("no throttled family")
	}
	if got := m.Sum("lpserved_jobs_shed_total"); got != 0 {
		t.Errorf("jobs_shed = %v, want 0", got)
	}

	// Drain: once small's job finishes, its quota frees and a resubmit
	// is admitted.
	deadline := time.Now().Add(60 * time.Second)
	for {
		_, raw = doAuth(t, http.MethodGet, ts.URL+"/v1/jobs/"+firstID, "small-secret-1", nil)
		if st := decodeStatus(t, raw); st.State == StateDone || st.State == StateFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never finished")
		}
		time.Sleep(20 * time.Millisecond)
	}
	resp, raw = doAuth(t, http.MethodPost, ts.URL+"/v1/jobs", "small-secret-1", tinySolve(5))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-drain submit: %d %s", resp.StatusCode, raw)
	}
}

// TestInstanceCreateOversized413 pins the first bugfix: an oversized
// create body is 413 through decodeErrorStatus, not a generic 400.
func TestInstanceCreateOversized413(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := fmt.Sprintf(`{"kind": "meb", "dim": 2, "pad": %q}`, strings.Repeat("x", 2<<20))
	resp, err := http.Post(ts.URL+"/v1/instances", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized create: %d, want 413", resp.StatusCode)
	}
}

// TestInstanceSlotExhaustion pins the second bugfix: the upload-slot
// 429 carries Retry-After and counts on its own series, apart from
// admission-control sheds.
func TestInstanceSlotExhaustion(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxInstances: 2})
	for i := 0; i < 2; i++ {
		resp, raw := postJSON(t, ts.URL+"/v1/instances", map[string]any{"kind": "meb", "dim": 2})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %d: %d %s", i, resp.StatusCode, raw)
		}
	}
	resp, raw := postJSON(t, ts.URL+"/v1/instances", map[string]any{"kind": "meb", "dim": 2})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("slot exhaustion: %d %s", resp.StatusCode, raw)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("slot-exhaustion 429 missing Retry-After")
	}
	m := scrape(t, ts.URL+"/metrics")
	if got := m.Sum("lpserved_instances_rejected_total"); got != 1 {
		t.Errorf("instances_rejected = %v, want 1", got)
	}
	if got := m.Sum("lpserved_jobs_shed_total"); got != 0 {
		t.Errorf("jobs_shed = %v, want 0 — slot refusals are not sheds", got)
	}
}

// TestGatewayConcurrentTenants hammers the gateway from many tenants
// at once — the -race companion to the matrix above.
func TestGatewayConcurrentTenants(t *testing.T) {
	tenants := make([]gateway.Tenant, 4)
	for i := range tenants {
		tenants[i] = gateway.Tenant{
			ID:  fmt.Sprintf("tenant-%d", i),
			Key: fmt.Sprintf("tenant-%d-secret", i),
			// A generous rate so throttling stays possible but rare.
			RatePerSec: 1000, MaxActive: 64,
		}
	}
	_, ts := newGatewayServer(t, Config{Workers: 4}, tenants)

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("tenant-%d-secret", i%len(tenants))
			for j := 0; j < 4; j++ {
				body, err := json.Marshal(tinySolve(uint64(i*100 + j)))
				if err != nil {
					errs <- err
					return
				}
				req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				req.Header.Set("Content-Type", "application/json")
				req.Header.Set("Authorization", "Bearer "+key)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable:
				default:
					errs <- fmt.Errorf("goroutine %d: status %d", i, resp.StatusCode)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
