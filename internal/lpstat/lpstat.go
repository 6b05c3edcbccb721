// Package lpstat is the fleet inspector behind cmd/lpstat: it polls
// an lpserved frontend and its worker processes — health, Prometheus
// metrics (through the strict internal/promtext parser), shard
// metadata, and a live protocol probe — into one Fleet snapshot that
// the status board renders and the doctor rules diagnose.
//
// The probe is the part a plain scraper cannot do: lpstat POSTs a
// real FrameInfo frame to each worker's step endpoint and strict-
// decodes the reply, so "answers HTTP but speaks garbage" (a wrong
// process on the port, a corrupting proxy) is distinguished from
// "unreachable" and from "healthy" — the same typed error classes
// (comm.ErrorClass) the transport and the metrics use.
package lpstat

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"lowdimlp/internal/comm"
	"lowdimlp/internal/comm/httptransport"
	"lowdimlp/internal/promtext"
)

// Options configure a Collect.
type Options struct {
	// Frontend is the lpserved frontend base URL ("" = none).
	Frontend string
	// Workers are the worker base URLs, in site order (worker i =
	// coordinator site i — the same order the frontend's -workers flag
	// uses).
	Workers []string
	// Timeout bounds each probe request (0 = 3s).
	Timeout time.Duration
	// Client overrides the HTTP client (tests).
	Client *http.Client
}

// WorkerStatus is one worker's snapshot.
type WorkerStatus struct {
	Site int
	URL  string
	// Reachable is /healthz answering 200.
	Reachable bool
	// Err/ErrClass describe the first failed probe (comm error class:
	// unreachable, timeout, protocol, …).
	Err      string
	ErrClass string
	// Shard metadata from /v1/worker/info.
	Kind string
	Dim  int
	Rows int
	// ProbeOK is a FrameInfo step exchange round-tripping with a
	// strictly-decodable reply; ProbeClass classifies the failure.
	ProbeOK    bool
	ProbeClass string
	ProbeErr   string
	// Draining is the lpserved_worker_draining gauge: the worker is
	// finishing in-flight sessions and refusing new Begins.
	Draining bool
	// Counters from /metrics (zero when the scrape failed).
	SessionsOpen      int64
	SessionsOpened    int64
	SessionsExpired   int64
	Steps             int64
	StepErrors        int64
	FrameDecodeErrors int64
	BytesIn           int64
	BytesOut          int64
	HasMetrics        bool
}

// FrontendStatus is the frontend's snapshot.
type FrontendStatus struct {
	URL       string
	Reachable bool
	Err       string
	ErrClass  string
	// Counters from /metrics.
	JobsSubmitted  int64
	JobsQueued     int64
	JobsRunning    int64
	JobsDone       int64
	JobsFailed     int64
	CacheHits      int64
	CacheMisses    int64
	FleetSolves    int64
	TracesCaptured int64
	// Serving-tier counters (coalescing and warm starts; DESIGN.md
	// §3).
	Coalesced    int64
	WarmHits     int64
	WarmMisses   int64
	BasisEntries int64
	// FleetErrors are failed fleet exchanges by error class.
	FleetErrors map[string]int64
	// KernelBlocks are block violation-kernel invocations by kernel
	// class (only classes with nonzero counts appear); KernelRows is
	// the total rows evaluated through block scans.
	KernelBlocks map[string]int64
	KernelRows   int64
	// Multi-tenant gateway counters (DESIGN.md §11). HasTenants is the
	// lpserved_tenant_requests_total family being present at all — the
	// gateway zero-fills one sample per configured tenant, so the maps
	// list every tenant even before it sends traffic.
	HasTenants      bool
	TenantRequests  map[string]int64
	TenantThrottled map[string]int64
	TenantActive    map[string]int64
	Unauthorized    int64
	// Elastic-fleet membership (lpserved_fleet_* families plus the
	// GET /v1/fleet snapshot). HasFleet is the endpoint answering at
	// all — pre-registry frontends don't serve it.
	HasFleet      bool
	FleetRetries  int64
	FleetEpoch    int64
	FleetChanges  int64
	FleetLive     int64
	FleetDraining int64
	FleetDown     int64
	FleetMembers  []FleetMember
	// InstancesOpen is the open chunk-upload count (/v1/instances).
	InstancesOpen int
	HasMetrics    bool
}

// FleetMember is one registry member from GET /v1/fleet.
type FleetMember struct {
	URL     string `json:"url"`
	Kind    string `json:"kind"`
	Static  bool   `json:"static"`
	State   string `json:"state"`
	LastErr string `json:"last_err"`
}

// CacheRate returns the hit fraction in [0,1] (0 when no lookups).
func (f *FrontendStatus) CacheRate() float64 {
	total := f.CacheHits + f.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(f.CacheHits) / float64(total)
}

// Fleet is one complete observation of the deployment.
type Fleet struct {
	When     time.Time
	Frontend *FrontendStatus // nil when no frontend was given
	Workers  []WorkerStatus
}

// Collect polls everything in Options and returns the snapshot. It
// never fails: unreachable targets come back marked unreachable with
// their error class, which is exactly what the doctor wants to see.
func Collect(opt Options) *Fleet {
	if opt.Timeout == 0 {
		opt.Timeout = 3 * time.Second
	}
	client := opt.Client
	if client == nil {
		client = &http.Client{Timeout: opt.Timeout}
	}
	f := &Fleet{When: time.Now()}
	if opt.Frontend != "" {
		f.Frontend = collectFrontend(client, normalizeURL(opt.Frontend))
	}
	f.Workers = make([]WorkerStatus, len(opt.Workers))
	for i, url := range opt.Workers {
		f.Workers[i] = collectWorker(client, i, normalizeURL(url))
	}
	return f
}

// normalizeURL accepts the same scheme-less host:port forms the fleet
// transport's Dial does, so -workers lists paste between tools.
func normalizeURL(u string) string {
	u = strings.TrimRight(strings.TrimSpace(u), "/")
	if u != "" && !strings.Contains(u, "://") {
		u = "http://" + u
	}
	return u
}

// get fetches url and returns the body (non-200 is an error carrying
// the status).
func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &comm.RemoteError{Status: resp.StatusCode, Msg: strings.TrimSpace(string(body))}
	}
	return body, nil
}

func collectWorker(client *http.Client, site int, url string) WorkerStatus {
	w := WorkerStatus{Site: site, URL: url}
	if _, err := get(client, url+"/healthz"); err != nil {
		w.Err, w.ErrClass = err.Error(), comm.ErrorClass(err)
		return w
	}
	w.Reachable = true

	if body, err := get(client, url+"/v1/worker/info"); err == nil {
		var info struct {
			Kind string `json:"kind"`
			Dim  int    `json:"dim"`
			Rows int    `json:"rows"`
		}
		if json.Unmarshal(body, &info) == nil {
			w.Kind, w.Dim, w.Rows = info.Kind, info.Dim, info.Rows
		}
	}

	if body, err := get(client, url+"/metrics"); err == nil {
		if m, perr := promtext.Parse(bytes.NewReader(body)); perr == nil {
			w.HasMetrics = true
			w.SessionsOpen = int64(m.Sum("lpserved_worker_sessions_open"))
			w.SessionsOpened = int64(m.Sum("lpserved_worker_sessions_opened_total"))
			w.SessionsExpired = int64(m.Sum("lpserved_worker_sessions_expired_total"))
			w.Steps = int64(m.Sum("lpserved_worker_steps_total"))
			w.StepErrors = int64(m.Sum("lpserved_worker_step_errors_total"))
			w.FrameDecodeErrors = int64(m.Sum("lpserved_worker_frame_decode_errors_total"))
			w.BytesIn = int64(m.Sum("lpserved_worker_bytes_in_total"))
			w.BytesOut = int64(m.Sum("lpserved_worker_bytes_out_total"))
			w.Draining = m.Sum("lpserved_worker_draining") > 0
		}
	}

	w.ProbeOK, w.ProbeClass, w.ProbeErr = probeStep(client, url)
	return w
}

// probeStep runs one real FrameInfo exchange against the worker's
// step endpoint and strict-decodes the reply — the liveness check
// that actually exercises the protocol path a solve would take.
func probeStep(client *http.Client, url string) (ok bool, class, msg string) {
	req := comm.EncodeFrame(comm.Frame{Type: comm.FrameInfo})
	resp, err := client.Post(url+httptransport.StepPath, "application/octet-stream", bytes.NewReader(req))
	if err != nil {
		return false, comm.ErrorClass(err), err.Error()
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return false, comm.ErrorClass(err), err.Error()
	}
	if resp.StatusCode != http.StatusOK {
		rerr := &comm.RemoteError{Status: resp.StatusCode, Msg: strings.TrimSpace(string(body))}
		return false, comm.ErrorClass(rerr), rerr.Error()
	}
	f, err := comm.DecodeFrameStrict(body)
	if err != nil {
		return false, comm.ClassProtocol, fmt.Sprintf("undecodable step reply: %v", err)
	}
	if f.Type != comm.FrameReply {
		return false, comm.ClassProtocol, fmt.Sprintf("step reply has frame type %d, want reply", f.Type)
	}
	if _, err := comm.DecodeSiteInfo(f.Payload); err != nil {
		return false, comm.ClassProtocol, fmt.Sprintf("undecodable site info: %v", err)
	}
	return true, "", ""
}

func collectFrontend(client *http.Client, url string) *FrontendStatus {
	f := &FrontendStatus{
		URL: url, FleetErrors: map[string]int64{}, KernelBlocks: map[string]int64{},
		TenantRequests: map[string]int64{}, TenantThrottled: map[string]int64{}, TenantActive: map[string]int64{},
	}
	if _, err := get(client, url+"/healthz"); err != nil {
		f.Err, f.ErrClass = err.Error(), comm.ErrorClass(err)
		return f
	}
	f.Reachable = true

	if body, err := get(client, url+"/metrics"); err == nil {
		if m, perr := promtext.Parse(bytes.NewReader(body)); perr == nil {
			f.HasMetrics = true
			f.JobsSubmitted = int64(m.Sum("lpserved_jobs_submitted_total"))
			f.JobsQueued = int64(m.Sum("lpserved_jobs_queued"))
			f.JobsRunning = int64(m.Sum("lpserved_jobs_running"))
			f.JobsDone = int64(m.Sum("lpserved_jobs_done_total"))
			f.JobsFailed = int64(m.Sum("lpserved_jobs_failed_total"))
			f.CacheHits = int64(m.Sum("lpserved_cache_hits_total"))
			f.CacheMisses = int64(m.Sum("lpserved_cache_misses_total"))
			f.FleetSolves = int64(m.Sum("lpserved_fleet_solves_total"))
			f.TracesCaptured = int64(m.Sum("lpserved_traces_captured_total"))
			f.Coalesced = int64(m.Sum("lpserved_solve_coalesced_total"))
			f.WarmHits = int64(m.Sum("lpserved_warm_hits_total"))
			f.WarmMisses = int64(m.Sum("lpserved_warm_misses_total"))
			f.BasisEntries = int64(m.Sum("lpserved_basis_entries"))
			if fam, ok := m.Family("lpserved_fleet_exchange_errors_total"); ok {
				for _, s := range fam.Samples {
					if s.Value > 0 {
						f.FleetErrors[s.Label("class")] = int64(s.Value)
					}
				}
			}
			if fam, ok := m.Family("lpserved_kernel_blocks_total"); ok {
				for _, s := range fam.Samples {
					if s.Value > 0 {
						f.KernelBlocks[s.Label("kernel")] = int64(s.Value)
					}
				}
			}
			f.KernelRows = int64(m.Sum("lpserved_kernel_rows_total"))
			// Tenant families are zero-filled per configured tenant, so
			// keep zero-valued samples: the board lists idle tenants too.
			if fam, ok := m.Family("lpserved_tenant_requests_total"); ok {
				f.HasTenants = true
				for _, s := range fam.Samples {
					f.TenantRequests[s.Label("tenant")] = int64(s.Value)
				}
			}
			if fam, ok := m.Family("lpserved_tenant_throttled_total"); ok {
				for _, s := range fam.Samples {
					f.TenantThrottled[s.Label("tenant")] = int64(s.Value)
				}
			}
			if fam, ok := m.Family("lpserved_tenant_active_jobs"); ok {
				for _, s := range fam.Samples {
					f.TenantActive[s.Label("tenant")] = int64(s.Value)
				}
			}
			f.Unauthorized = int64(m.Sum("lpserved_tenant_unauthorized_total"))
			f.FleetRetries = int64(m.Sum("lpserved_fleet_solve_retries_total"))
			f.FleetEpoch = int64(m.Sum("lpserved_fleet_epoch"))
			f.FleetChanges = int64(m.Sum("lpserved_fleet_membership_changes_total"))
			if fam, ok := m.Family("lpserved_fleet_members"); ok {
				for _, s := range fam.Samples {
					switch s.Label("state") {
					case "live":
						f.FleetLive = int64(s.Value)
					case "draining":
						f.FleetDraining = int64(s.Value)
					case "down":
						f.FleetDown = int64(s.Value)
					}
				}
			}
		}
	}

	// The membership snapshot names who is down/draining and why —
	// the metrics only count them. The endpoint is operator-side
	// (gateway-exempt), so this works on tenanted frontends too.
	if body, err := get(client, url+"/v1/fleet"); err == nil {
		var view struct {
			Workers []FleetMember `json:"workers"`
		}
		if json.Unmarshal(body, &view) == nil {
			f.HasFleet = true
			f.FleetMembers = view.Workers
		}
	}

	// Behind the gateway /v1/instances needs a key lpstat doesn't have:
	// the probe would 401 — and count on the very unauthorized series
	// the doctor watches — so skip it and leave InstancesOpen at 0.
	if !f.HasTenants {
		if body, err := get(client, url+"/v1/instances"); err == nil {
			var list struct {
				Instances []json.RawMessage `json:"instances"`
			}
			if json.Unmarshal(body, &list) == nil {
				f.InstancesOpen = len(list.Instances)
			}
		}
	}
	return f
}
