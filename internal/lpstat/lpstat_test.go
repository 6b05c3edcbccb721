package lpstat

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lowdimlp/internal/comm"
	"lowdimlp/internal/comm/httptransport"
)

// fakeWorkerMetrics renders a worker /metrics exposition with the
// given counter overrides.
func fakeWorkerMetrics(expired, decodeErrs, stepErrs, open int) string {
	return fmt.Sprintf(`# HELP lpserved_worker_sessions_open Protocol sessions currently open.
# TYPE lpserved_worker_sessions_open gauge
lpserved_worker_sessions_open %d
# TYPE lpserved_worker_sessions_opened_total counter
lpserved_worker_sessions_opened_total 5
# TYPE lpserved_worker_sessions_expired_total counter
lpserved_worker_sessions_expired_total %d
# TYPE lpserved_worker_steps_total counter
lpserved_worker_steps_total 40
# TYPE lpserved_worker_step_errors_total counter
lpserved_worker_step_errors_total %d
# TYPE lpserved_worker_frame_decode_errors_total counter
lpserved_worker_frame_decode_errors_total %d
# TYPE lpserved_worker_bytes_in_total counter
lpserved_worker_bytes_in_total 1024
# TYPE lpserved_worker_bytes_out_total counter
lpserved_worker_bytes_out_total 2048
# TYPE lpserved_worker_shard_rows gauge
lpserved_worker_shard_rows 1000
# TYPE lpserved_worker_shard_info gauge
lpserved_worker_shard_info{kind="lp",dim="3"} 1
`, open, expired, stepErrs, decodeErrs)
}

// fakeWorker serves a healthy worker surface; corrupt makes the step
// endpoint return undecodable bytes (the wrong-process-on-the-port
// scenario).
func fakeWorker(t *testing.T, metrics string, corrupt bool) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"ok":true}`))
	})
	mux.HandleFunc("GET /v1/worker/info", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"kind":"lp","dim":3,"rows":1000,"sessions":0,"steps":40}`))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(metrics))
	})
	mux.HandleFunc("POST "+httptransport.StepPath, func(w http.ResponseWriter, r *http.Request) {
		if corrupt {
			w.Write([]byte("mangled by a broken proxy"))
			return
		}
		info := comm.SiteInfo{Kind: "lp", Dim: 3, Width: 4, Rows: 1000, Objective: []float64{1, 0, 0}}
		w.Write(comm.EncodeFrame(comm.Frame{Type: comm.FrameReply, Payload: comm.AppendSiteInfo(nil, info)}))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func findRule(fs []Finding, rule string) *Finding {
	for i := range fs {
		if fs[i].Rule == rule {
			return &fs[i]
		}
	}
	return nil
}

func TestDoctorHealthyFleet(t *testing.T) {
	w1 := fakeWorker(t, fakeWorkerMetrics(0, 0, 0, 0), false)
	w2 := fakeWorker(t, fakeWorkerMetrics(0, 0, 0, 0), false)
	fleet := Collect(Options{Workers: []string{w1.URL, w2.URL}})
	for i, ws := range fleet.Workers {
		if !ws.Reachable || !ws.ProbeOK || ws.Kind != "lp" || ws.Rows != 1000 {
			t.Fatalf("worker %d snapshot: %+v", i, ws)
		}
	}
	findings := Diagnose(fleet)
	if len(findings) != 1 || findings[0].Rule != "healthy" || findings[0].Severity != SevOK {
		t.Fatalf("healthy fleet findings: %+v", findings)
	}
	if HasErrors(findings) {
		t.Fatal("healthy fleet reported errors")
	}
}

// TestDoctorDeadWorker is fault scenario 1 (worker death mid-round):
// the dead site is named, with an unreachable classification.
func TestDoctorDeadWorker(t *testing.T) {
	alive := fakeWorker(t, fakeWorkerMetrics(0, 0, 0, 0), false)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // connection refused from now on

	fleet := Collect(Options{Workers: []string{alive.URL, deadURL}})
	if fleet.Workers[1].Reachable {
		t.Fatal("dead worker reported reachable")
	}
	if got := fleet.Workers[1].ErrClass; got != comm.ClassUnreachable {
		t.Fatalf("dead worker class %q, want unreachable", got)
	}
	findings := Diagnose(fleet)
	fd := findRule(findings, "worker-unreachable")
	if fd == nil || fd.Severity != SevError {
		t.Fatalf("no worker-unreachable error: %+v", findings)
	}
	if !strings.Contains(fd.Target, "worker 1") || !strings.Contains(fd.Target, deadURL) {
		t.Errorf("finding does not name the dead site: %q", fd.Target)
	}
	if !HasErrors(findings) {
		t.Fatal("dead worker not an error")
	}
}

// TestDoctorCorruptWorker is fault scenario 2 (garbage/short frames):
// the live protocol probe fails strict decode → protocol class.
func TestDoctorCorruptWorker(t *testing.T) {
	bad := fakeWorker(t, fakeWorkerMetrics(0, 0, 0, 0), true)
	fleet := Collect(Options{Workers: []string{bad.URL}})
	ws := fleet.Workers[0]
	if !ws.Reachable || ws.ProbeOK || ws.ProbeClass != comm.ClassProtocol {
		t.Fatalf("corrupt worker snapshot: %+v", ws)
	}
	findings := Diagnose(fleet)
	fd := findRule(findings, "worker-corrupt-frame")
	if fd == nil || fd.Severity != SevError {
		t.Fatalf("no worker-corrupt-frame error: %+v", findings)
	}
}

// TestDoctorTTLExpiredSessions is fault scenario 3 (session TTL
// expiry): the worker's expiry counter drives the diagnosis.
func TestDoctorTTLExpiredSessions(t *testing.T) {
	w := fakeWorker(t, fakeWorkerMetrics(3, 0, 0, 0), false)
	fleet := Collect(Options{Workers: []string{w.URL}})
	if got := fleet.Workers[0].SessionsExpired; got != 3 {
		t.Fatalf("SessionsExpired = %d, want 3", got)
	}
	findings := Diagnose(fleet)
	fd := findRule(findings, "worker-session-expired")
	if fd == nil || fd.Severity != SevWarn {
		t.Fatalf("no worker-session-expired warning: %+v", findings)
	}
	if !strings.Contains(fd.Diagnosis, "3 protocol sessions") {
		t.Errorf("diagnosis does not carry the count: %q", fd.Diagnosis)
	}
}

func TestDoctorGarbageFramesAndStepErrors(t *testing.T) {
	w := fakeWorker(t, fakeWorkerMetrics(0, 2, 5, 0), false)
	findings := Diagnose(Collect(Options{Workers: []string{w.URL}}))
	if findRule(findings, "worker-garbage-frames") == nil {
		t.Errorf("no garbage-frames warning: %+v", findings)
	}
	if findRule(findings, "worker-step-errors") == nil {
		t.Errorf("no step-errors warning: %+v", findings)
	}
	if HasErrors(findings) {
		t.Error("warnings escalated to errors")
	}
}

func TestDoctorIncoherentFleet(t *testing.T) {
	lp := fakeWorker(t, fakeWorkerMetrics(0, 0, 0, 0), false)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) { w.Write([]byte(`{"ok":true}`)) })
	mux.HandleFunc("GET /v1/worker/info", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"kind":"meb","dim":4,"rows":500}`))
	})
	mux.HandleFunc("POST "+httptransport.StepPath, func(w http.ResponseWriter, r *http.Request) {
		info := comm.SiteInfo{Kind: "meb", Dim: 4, Width: 4, Rows: 500}
		w.Write(comm.EncodeFrame(comm.Frame{Type: comm.FrameReply, Payload: comm.AppendSiteInfo(nil, info)}))
	})
	meb := httptest.NewServer(mux)
	t.Cleanup(meb.Close)

	findings := Diagnose(Collect(Options{Workers: []string{lp.URL, meb.URL}}))
	fd := findRule(findings, "fleet-incoherent")
	if fd == nil || fd.Severity != SevError {
		t.Fatalf("no fleet-incoherent error: %+v", findings)
	}
}

// fakeFrontend serves a frontend surface with the given metrics text.
func fakeFrontend(t *testing.T, metrics string) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) { w.Write([]byte(`{"ok":true}`)) })
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) { w.Write([]byte(metrics)) })
	mux.HandleFunc("GET /v1/instances", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"instances":[{"id":"a"},{"id":"b"}],"limit":64}`))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func TestDoctorFleetErrorClasses(t *testing.T) {
	metrics := `# TYPE lpserved_jobs_done_total counter
lpserved_jobs_done_total 4
# TYPE lpserved_jobs_failed_total counter
lpserved_jobs_failed_total 1
# TYPE lpserved_fleet_exchange_errors_total counter
lpserved_fleet_exchange_errors_total{class="unreachable"} 2
lpserved_fleet_exchange_errors_total{class="session-expired"} 1
lpserved_fleet_exchange_errors_total{class="protocol"} 0
`
	fe := fakeFrontend(t, metrics)
	fleet := Collect(Options{Frontend: fe.URL})
	if fleet.Frontend.InstancesOpen != 2 {
		t.Errorf("InstancesOpen = %d, want 2", fleet.Frontend.InstancesOpen)
	}
	findings := Diagnose(fleet)
	if findRule(findings, "fleet-worker-died") == nil {
		t.Errorf("no fleet-worker-died finding: %+v", findings)
	}
	if findRule(findings, "fleet-session-expired") == nil {
		t.Errorf("no fleet-session-expired finding: %+v", findings)
	}
	if findRule(findings, "fleet-corrupt-frames") != nil {
		t.Errorf("zero-count protocol class produced a finding")
	}
	if findRule(findings, "frontend-failed-jobs") == nil {
		t.Errorf("no failed-jobs warning: %+v", findings)
	}
}

func TestDoctorFrontendDown(t *testing.T) {
	fe := httptest.NewServer(http.NotFoundHandler())
	url := fe.URL
	fe.Close()
	findings := Diagnose(Collect(Options{Frontend: url}))
	fd := findRule(findings, "frontend-unreachable")
	if fd == nil || fd.Severity != SevError {
		t.Fatalf("no frontend-unreachable error: %+v", findings)
	}
}

func TestRenderBoardPlain(t *testing.T) {
	w := fakeWorker(t, fakeWorkerMetrics(0, 0, 0, 0), false)
	fleet := Collect(Options{Workers: []string{w.URL}})
	var sb strings.Builder
	RenderBoard(&sb, fleet, false)
	out := sb.String()
	if strings.Contains(out, "\x1b[") {
		t.Errorf("plain render contains ANSI escapes:\n%s", out)
	}
	for _, want := range []string{w.URL, "lp", "UP", "WORKERS (1)"} {
		if !strings.Contains(out, want) {
			t.Errorf("board missing %q:\n%s", want, out)
		}
	}

	var cb strings.Builder
	RenderBoard(&cb, fleet, true)
	if !strings.Contains(cb.String(), ansiGreen) {
		t.Error("colored render has no green UP")
	}
}

func TestRenderFindings(t *testing.T) {
	findings := []Finding{
		{Severity: SevError, Rule: "worker-unreachable", Target: "worker 2 (http://x)", Diagnosis: "site 2 is gone", Fix: "restart it"},
		{Severity: SevOK, Rule: "healthy", Target: "fleet", Diagnosis: "all good"},
	}
	var sb strings.Builder
	RenderFindings(&sb, findings, false)
	out := sb.String()
	for _, want := range []string{"ERROR", "worker-unreachable", "site 2 is gone", "fix: restart it", "OK"} {
		if !strings.Contains(out, want) {
			t.Errorf("findings output missing %q:\n%s", want, out)
		}
	}
}

func TestDoctorLoadShedding(t *testing.T) {
	metrics := `# TYPE lpserved_jobs_done_total counter
lpserved_jobs_done_total 40
# TYPE lpserved_jobs_shed_total counter
lpserved_jobs_shed_total 7
`
	fleet := Collect(Options{Frontend: fakeFrontend(t, metrics).URL})
	if fleet.Frontend.JobsShed != 7 {
		t.Fatalf("JobsShed = %d, want 7", fleet.Frontend.JobsShed)
	}
	fd := findRule(Diagnose(fleet), "frontend-load-shedding")
	if fd == nil || fd.Severity != SevWarn {
		t.Fatalf("no frontend-load-shedding warning: %+v", Diagnose(fleet))
	}
	if !strings.Contains(fd.Fix, "Retry-After") {
		t.Errorf("shedding fix does not mention Retry-After: %q", fd.Fix)
	}
}

// TestDoctorBasisCacheCold pins both branches of the cold-basis rule:
// a basis cache whose entries never survive re-verification, and a
// disabled basis cache under repeat-heavy traffic.
func TestDoctorBasisCacheCold(t *testing.T) {
	// Branch 1: warm lookups keep failing re-verification.
	churn := &Fleet{Frontend: &FrontendStatus{
		URL: "x", Reachable: true, HasMetrics: true,
		JobsDone: 30, WarmMisses: 12,
	}}
	fd := findRule(Diagnose(churn), "frontend-basis-cache-cold")
	if fd == nil || fd.Severity != SevWarn {
		t.Fatalf("no cold-basis warning on churn: %+v", Diagnose(churn))
	}
	if !strings.Contains(fd.Diagnosis, "re-verification") {
		t.Errorf("churn diagnosis does not explain the verify failures: %q", fd.Diagnosis)
	}

	// Branch 2: heavy cache-missing traffic, basis cache disabled.
	disabled := &Fleet{Frontend: &FrontendStatus{
		URL: "x", Reachable: true, HasMetrics: true,
		JobsDone: 40, CacheMisses: 40,
	}}
	fd = findRule(Diagnose(disabled), "frontend-basis-cache-cold")
	if fd == nil || fd.Severity != SevWarn {
		t.Fatalf("no cold-basis warning on disabled cache: %+v", Diagnose(disabled))
	}
	if !strings.Contains(fd.Fix, "-basis-cache") {
		t.Errorf("disabled-cache fix does not name the flag: %q", fd.Fix)
	}

	// A warm-hitting frontend is healthy — no finding.
	healthy := &Fleet{Frontend: &FrontendStatus{
		URL: "x", Reachable: true, HasMetrics: true,
		JobsDone: 40, CacheMisses: 40, WarmHits: 20, WarmMisses: 9, BasisEntries: 4,
	}}
	if fd := findRule(Diagnose(healthy), "frontend-basis-cache-cold"); fd != nil {
		t.Fatalf("healthy warm traffic produced a cold-basis finding: %+v", fd)
	}
}

// TestFrontendThroughputScrape pins collectFrontend's mapping of the
// coalescing and warm-start metric families.
func TestFrontendThroughputScrape(t *testing.T) {
	metrics := `# TYPE lpserved_solve_coalesced_total counter
lpserved_solve_coalesced_total 3
# TYPE lpserved_warm_hits_total counter
lpserved_warm_hits_total 5
# TYPE lpserved_warm_misses_total counter
lpserved_warm_misses_total 1
# TYPE lpserved_basis_entries gauge
lpserved_basis_entries 4
`
	fe := Collect(Options{Frontend: fakeFrontend(t, metrics).URL}).Frontend
	if fe.Coalesced != 3 {
		t.Errorf("coalesced = %d, want 3", fe.Coalesced)
	}
	if fe.WarmHits != 5 || fe.WarmMisses != 1 || fe.BasisEntries != 4 {
		t.Errorf("warm counters = %d/%d/%d, want 5/1/4", fe.WarmHits, fe.WarmMisses, fe.BasisEntries)
	}
}

// TestFrontendKernelScrape pins collectFrontend's mapping of the
// block-kernel metric families and the board cell.
func TestFrontendKernelScrape(t *testing.T) {
	metrics := `# TYPE lpserved_kernel_blocks_total counter
lpserved_kernel_blocks_total{kernel="d2"} 0
lpserved_kernel_blocks_total{kernel="d3"} 120
lpserved_kernel_blocks_total{kernel="generic"} 4
lpserved_kernel_blocks_total{kernel="rowloop"} 0
# TYPE lpserved_kernel_rows_total counter
lpserved_kernel_rows_total 31744
`
	fe := Collect(Options{Frontend: fakeFrontend(t, metrics).URL}).Frontend
	if fe.KernelBlocks["d3"] != 120 || fe.KernelBlocks["generic"] != 4 {
		t.Errorf("kernel blocks = %v, want d3:120 generic:4", fe.KernelBlocks)
	}
	if _, ok := fe.KernelBlocks["d2"]; ok {
		t.Errorf("zero-valued class surfaced: %v", fe.KernelBlocks)
	}
	if fe.KernelRows != 31744 {
		t.Errorf("KernelRows = %d, want 31744", fe.KernelRows)
	}
	var board strings.Builder
	RenderBoard(&board, &Fleet{Frontend: fe}, false)
	if !strings.Contains(board.String(), "kernels: 124 blocks (d3 120, generic 4), 31744 rows") {
		t.Errorf("board kernel line missing:\n%s", board.String())
	}
}

// TestFrontendTenantScrape pins collectFrontend's mapping of the
// multi-tenant gateway families, the board's tenants line, and the
// doctor rules that name a throttled tenant and flag 401 storms.
func TestFrontendTenantScrape(t *testing.T) {
	metrics := `# TYPE lpserved_tenant_requests_total counter
lpserved_tenant_requests_total{tenant="acme"} 41
lpserved_tenant_requests_total{tenant="globex"} 0
# TYPE lpserved_tenant_throttled_total counter
lpserved_tenant_throttled_total{tenant="acme"} 6
lpserved_tenant_throttled_total{tenant="globex"} 0
# TYPE lpserved_tenant_active_jobs gauge
lpserved_tenant_active_jobs{tenant="acme"} 2
lpserved_tenant_active_jobs{tenant="globex"} 0
# TYPE lpserved_tenant_unauthorized_total counter
lpserved_tenant_unauthorized_total 3
`
	fe := Collect(Options{Frontend: fakeFrontend(t, metrics).URL}).Frontend
	if !fe.HasTenants {
		t.Fatal("HasTenants = false with tenant families present")
	}
	// Zero-valued tenant samples stay: idle tenants must still list.
	if fe.TenantRequests["acme"] != 41 || fe.TenantRequests["globex"] != 0 {
		t.Errorf("TenantRequests = %v", fe.TenantRequests)
	}
	if _, ok := fe.TenantRequests["globex"]; !ok {
		t.Error("idle tenant dropped from the scrape")
	}
	if fe.TenantThrottled["acme"] != 6 || fe.TenantActive["acme"] != 2 || fe.Unauthorized != 3 {
		t.Errorf("tenant counters = %v/%v/%d", fe.TenantThrottled, fe.TenantActive, fe.Unauthorized)
	}

	var board strings.Builder
	RenderBoard(&board, &Fleet{Frontend: fe}, false)
	out := board.String()
	if want := "tenants: acme 41 req, 2 active, 6 throttled   globex 0 req, 0 active   3 unauthorized"; !strings.Contains(out, want) {
		t.Errorf("board missing %q:\n%s", want, out)
	}

	findings := Diagnose(&Fleet{Frontend: fe})
	fd := findRule(findings, "tenant-throttled")
	if fd == nil || fd.Severity != SevWarn {
		t.Fatalf("no tenant-throttled warning: %+v", findings)
	}
	if fd.Target != "tenant acme" || !strings.Contains(fd.Diagnosis, "acme") {
		t.Errorf("throttled tenant not named: target %q diagnosis %q", fd.Target, fd.Diagnosis)
	}
	if !strings.Contains(fd.Diagnosis, "Retry-After") {
		t.Errorf("throttled diagnosis does not mention Retry-After: %q", fd.Diagnosis)
	}
	fd = findRule(findings, "tenant-unauthorized")
	if fd == nil || fd.Severity != SevWarn {
		t.Fatalf("no tenant-unauthorized warning: %+v", findings)
	}

	// Only acme throttled — globex must not produce a finding.
	for _, f := range findings {
		if f.Rule == "tenant-throttled" && strings.Contains(f.Target, "globex") {
			t.Errorf("idle tenant got a throttled finding: %+v", f)
		}
	}
}

// TestDoctorNoTenants confirms a single-tenant (gateway-off) frontend
// raises none of the tenant rules and draws no tenants line.
func TestDoctorNoTenants(t *testing.T) {
	metrics := "# TYPE lpserved_jobs_done_total counter\nlpserved_jobs_done_total 4\n"
	fe := Collect(Options{Frontend: fakeFrontend(t, metrics).URL}).Frontend
	if fe.HasTenants {
		t.Fatal("HasTenants = true without tenant families")
	}
	findings := Diagnose(&Fleet{Frontend: fe})
	if findRule(findings, "tenant-throttled") != nil || findRule(findings, "tenant-unauthorized") != nil {
		t.Fatalf("tenant rules fired with the gateway off: %+v", findings)
	}
	var board strings.Builder
	RenderBoard(&board, &Fleet{Frontend: fe}, false)
	if strings.Contains(board.String(), "tenants:") {
		t.Errorf("board drew a tenants line with the gateway off:\n%s", board.String())
	}
}
