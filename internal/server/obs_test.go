package server

import (
	"bytes"
	"net/http"
	"strings"
	"testing"

	"lowdimlp/internal/engine"
	"lowdimlp/internal/obs"
	"lowdimlp/internal/promtext"
)

// scrape fetches url and strict-parses it as Prometheus text format.
func scrape(t *testing.T, url string) *promtext.Metrics {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	m, err := promtext.Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("strict metrics parse failed: %v\nexposition:\n%s", err, buf.String())
	}
	return m
}

// TestMetricsStrictFormat pins the frontend exposition against the
// strict parser: every family well-formed, the solve-latency summary
// replaced by a real histogram (p99 is scrapeable), and the fleet
// exchange families present from the first scrape.
func TestMetricsStrictFormat(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for i := 0; i < 3; i++ {
		postJSON(t, ts.URL+"/v1/solve?generate=box&kind=lp&n=200&seed=7&model=coordinator", nil)
	}
	m := scrape(t, ts.URL+"/metrics")

	f, ok := m.Family("lpserved_solve_seconds")
	if !ok || f.Type != "histogram" {
		t.Fatalf("lpserved_solve_seconds family = %+v (ok=%v), want histogram", f, ok)
	}
	lbl := map[string]string{"kind": "lp", "model": "coordinator", "le": "+Inf"}
	if v, ok := m.Value("lpserved_solve_seconds_bucket", lbl); !ok || v != 3 {
		t.Errorf("+Inf bucket = %v (ok=%v), want 3", v, ok)
	}
	if v, ok := m.Value("lpserved_solve_seconds_count", map[string]string{"kind": "lp", "model": "coordinator"}); !ok || v != 3 {
		t.Errorf("histogram count = %v (ok=%v), want 3", v, ok)
	}
	// Fleet exchange families render (at zero) even before any fleet
	// solve, one error series per class, so scrapers see stable series.
	if _, ok := m.Value("lpserved_fleet_exchanges_total", nil); !ok {
		t.Error("missing lpserved_fleet_exchanges_total")
	}
	if _, ok := m.Value("lpserved_fleet_exchange_errors_total", map[string]string{"class": "unreachable"}); !ok {
		t.Error("missing unreachable error class series")
	}
}

// TestWorkerMetricsStrictFormat drives a real fleet solve through a
// frontend and then strict-parses the worker exposition: steps and
// bytes flowed, the shard identity is labeled, and a garbage frame
// bumps the decode-error counter.
func TestWorkerMetricsStrictFormat(t *testing.T) {
	m, _ := engine.Lookup("lp")
	manifest := writeShardedInstance(t, m, 3000, 2, 5)
	urls := startWorkerFleet(t, manifest, 2, nil)
	_, ts := newTestServer(t, Config{Workers: 1, FleetWorkers: urls})

	resp, raw := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Fleet: true, Options: engine.Options{Seed: 3}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet solve failed: %d %s", resp.StatusCode, raw)
	}

	pm := scrape(t, urls[0]+"/metrics")
	if v := pm.Sum("lpserved_worker_steps_total"); v < 3 {
		t.Errorf("steps_total = %g, want ≥ 3 (info+begin+rounds)", v)
	}
	if v := pm.Sum("lpserved_worker_sessions_opened_total"); v != 1 {
		t.Errorf("sessions_opened_total = %g, want 1", v)
	}
	if v := pm.Sum("lpserved_worker_sessions_open"); v != 0 {
		t.Errorf("sessions_open = %g, want 0 after End", v)
	}
	if pm.Sum("lpserved_worker_bytes_in_total") <= 0 || pm.Sum("lpserved_worker_bytes_out_total") <= 0 {
		t.Error("byte counters did not move")
	}
	if _, ok := pm.Value("lpserved_worker_shard_info", map[string]string{"kind": "lp", "dim": "3"}); !ok {
		t.Error("missing shard_info{kind=\"lp\",dim=\"3\"}")
	}

	// A garbage body is a frame decode error, not a step.
	gresp, err := http.Post(urls[0]+"/v1/worker/step", "application/octet-stream",
		strings.NewReader("this is not a frame"))
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage frame status %d, want 400", gresp.StatusCode)
	}
	pm = scrape(t, urls[0]+"/metrics")
	if v := pm.Sum("lpserved_worker_frame_decode_errors_total"); v != 1 {
		t.Errorf("frame_decode_errors_total = %g, want 1", v)
	}

	// The frontend's fleet exchange counters moved too.
	fm := scrape(t, ts.URL+"/metrics")
	if v, _ := fm.Value("lpserved_fleet_exchanges_total", nil); v < 3 {
		t.Errorf("fleet exchanges = %g, want ≥ 3", v)
	}
}

// TestTraceCapture pins the ?trace=1 path end to end: the job status
// carries the trace inline, the ring retains it for GET /v1/traces,
// untraced solves carry none, and a traced cache hit still records a
// trace (annotated as the hit it was) without re-running the solve.
func TestTraceCapture(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, CacheSize: 8})
	url := ts.URL + "/v1/solve?generate=box&kind=lp&n=500&seed=9&model=coordinator"

	_, raw := postJSON(t, url, nil)
	if st := decodeStatus(t, raw); st.Trace != nil {
		t.Fatalf("untraced solve returned a trace: %+v", st.Trace)
	}

	_, raw = postJSON(t, url+"&trace=1", nil)
	st := decodeStatus(t, raw)
	if st.Trace == nil {
		t.Fatalf("traced solve returned no trace: %s", raw)
	}
	// The request differs from the untraced one only in Trace, so it
	// must hit the cache — tracing is not part of the digest.
	if !st.Cached {
		t.Errorf("traced repeat missed the cache: %+v", st)
	}
	if got := st.Trace.Attrs["cache"]; got != "hit" {
		t.Errorf("trace cache annotation = %q, want hit", got)
	}
	spanNames := func(d *obs.TraceData) map[string]bool {
		names := map[string]bool{}
		for _, sp := range d.Spans {
			names[sp.Name] = true
		}
		return names
	}
	// A cache hit on a generated instance skips the solve AND the
	// ingest — the digest is spec-based and computed before synthesis —
	// so its trace carries only the finalize phase.
	names := spanNames(st.Trace)
	if names["ingest"] || !names["finalize"] || names["solve"] {
		t.Errorf("cache-hit trace spans = %v, want finalize only", st.Trace.Spans)
	}

	// A cache-missing traced solve records the solve phase and the
	// coordinator's protocol spans with per-site byte totals.
	fresh := ts.URL + "/v1/solve?generate=box&kind=lp&n=500&seed=10&model=coordinator&trace=1"
	_, raw = postJSON(t, fresh, nil)
	st = decodeStatus(t, raw)
	if st.Trace == nil || st.Cached {
		t.Fatalf("expected a fresh traced solve: %s", raw)
	}
	names = spanNames(st.Trace)
	for _, want := range []string{"ingest", "solve", "finalize"} {
		if !names[want] {
			t.Errorf("fresh trace missing %s span; spans: %v", want, st.Trace.Spans)
		}
	}
	if !names["round-a"] && !names["round-b"] && !names["ship-all"] {
		t.Errorf("no protocol exchange spans in trace: %+v", st.Trace.Spans)
	}
	if len(st.Trace.PerSite) == 0 {
		t.Errorf("no per-site byte totals in trace")
	}

	var ring struct {
		Traces   []obs.TraceData `json:"traces"`
		Captured int64           `json:"captured"`
		Limit    int             `json:"limit"`
	}
	getJSON(t, ts.URL+"/v1/traces", &ring)
	if ring.Captured != 2 || len(ring.Traces) != 2 {
		t.Fatalf("ring captured=%d len=%d, want 2/2", ring.Captured, len(ring.Traces))
	}
	if ring.Limit != 128 {
		t.Errorf("ring limit = %d, want default 128", ring.Limit)
	}
	// Newest first: the fresh seed-10 solve leads.
	if ring.Traces[0].Attrs["cache"] != "miss" || ring.Traces[1].Attrs["cache"] != "hit" {
		t.Errorf("ring order/annotations wrong: %v then %v", ring.Traces[0].Attrs, ring.Traces[1].Attrs)
	}
}

// TestTraceQueryValidation pins ?trace= parsing.
func TestTraceQueryValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, _ := postJSON(t, ts.URL+"/v1/solve?generate=box&kind=lp&n=10&trace=banana", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trace=banana status %d, want 400", resp.StatusCode)
	}
}
