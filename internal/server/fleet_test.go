package server

import (
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"
	"time"

	"lowdimlp/internal/comm/registry"
	"lowdimlp/internal/engine"
)

// fleetView decodes GET /v1/fleet.
type fleetView struct {
	Epoch   uint64            `json:"epoch"`
	Changes uint64            `json:"changes"`
	Workers []fleetMemberView `json:"workers"`
}

func getFleet(t *testing.T, base string) fleetView {
	t.Helper()
	resp, err := http.Get(base + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/fleet: HTTP %d", resp.StatusCode)
	}
	var v fleetView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestFleetControlPlane drives the registry endpoints over HTTP:
// register, heartbeat (no epoch bump), shard-mismatch 409, drain,
// deregister, and the membership listing.
func TestFleetControlPlane(t *testing.T) {
	_, ts := newTestServer(t, Config{fleetTTL: 42 * time.Second})

	// Bad requests first.
	resp, body := postJSON(t, ts.URL+"/v1/fleet/register", map[string]any{"kind": "lp"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("register without url: HTTP %d: %s", resp.StatusCode, body)
	}

	reg := func(url, kind string, dim int) (*http.Response, map[string]any) {
		resp, body := postJSON(t, ts.URL+"/v1/fleet/register",
			map[string]any{"url": url, "kind": kind, "dim": dim, "rows": 100})
		var rep map[string]any
		json.Unmarshal(body, &rep)
		return resp, rep
	}
	resp, rep := reg("w1:8081", "lp", 3)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: HTTP %d", resp.StatusCode)
	}
	if rep["ttl_ms"].(float64) != 42000 {
		t.Fatalf("register reply ttl_ms = %v, want 42000", rep["ttl_ms"])
	}
	epoch1 := rep["epoch"].(float64)

	// A heartbeat re-register keeps the epoch.
	resp, rep = reg("w1:8081", "lp", 3)
	if resp.StatusCode != http.StatusOK || rep["epoch"].(float64) != epoch1 {
		t.Fatalf("heartbeat: HTTP %d epoch %v, want %v", resp.StatusCode, rep["epoch"], epoch1)
	}

	// A shard that cannot belong to this fleet is a conflict.
	resp, _ = reg("w2:8081", "meb", 3)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("mismatched shard: HTTP %d, want 409", resp.StatusCode)
	}
	resp, _ = reg("w2:8081", "lp", 3)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("matching shard: HTTP %d", resp.StatusCode)
	}

	v := getFleet(t, ts.URL)
	if len(v.Workers) != 2 || v.Workers[0].URL != "http://w1:8081" || v.Workers[0].State != "live" {
		t.Fatalf("fleet view %+v, want two live workers in order", v)
	}

	resp, body = postJSON(t, ts.URL+"/v1/fleet/drain", map[string]any{"url": "w2:8081"})
	var dr map[string]bool
	json.Unmarshal(body, &dr)
	if resp.StatusCode != http.StatusOK || !dr["draining"] {
		t.Fatalf("drain: HTTP %d %v", resp.StatusCode, dr)
	}
	if v := getFleet(t, ts.URL); v.Workers[1].State != "draining" {
		t.Fatalf("drained worker state %q, want draining", v.Workers[1].State)
	}

	resp, body = postJSON(t, ts.URL+"/v1/fleet/deregister", map[string]any{"url": "w2:8081"})
	var rm map[string]bool
	json.Unmarshal(body, &rm)
	if resp.StatusCode != http.StatusOK || !rm["removed"] {
		t.Fatalf("deregister: HTTP %d %v", resp.StatusCode, rm)
	}
	if v := getFleet(t, ts.URL); len(v.Workers) != 1 || v.Changes == 0 {
		t.Fatalf("fleet after deregister %+v, want one worker and changes > 0", v)
	}
}

// TestFleetDynamicRegistrationSolves is the registry's purpose: a
// frontend started with NO static workers serves fleet solves once
// workers register themselves (here through the worker-side
// registry.Client, the same code path `lpserved -worker -register`
// runs), and the metrics families report the membership.
func TestFleetDynamicRegistrationSolves(t *testing.T) {
	m, _ := engine.Lookup("lp")
	const k = 3
	manifest := writeShardedInstance(t, m, 5000, k, 4)
	urls := startWorkerFleet(t, manifest, k, nil)
	srv, ts := newTestServer(t, Config{})

	for _, u := range urls {
		c := &registry.Client{Frontend: ts.URL, Self: u, Kind: "lp", Dim: 3, Rows: 5000/k + 1}
		ttl, err := c.Register(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if ttl != registry.DefaultTTL {
			t.Fatalf("registered ttl %v, want %v", ttl, registry.DefaultTTL)
		}
	}
	if got := srv.Fleet().LiveWorkers(); !reflect.DeepEqual(got, urls) {
		t.Fatalf("live workers %v, want %v in registration order", got, urls)
	}

	resp, body := postJSON(t, ts.URL+"/v1/solve", map[string]any{
		"fleet": true, "options": map[string]any{"seed": 3},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet solve on dynamic membership: HTTP %d: %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Kind != "lp" || st.Stats == nil || st.Stats.Coordinator == nil {
		t.Fatalf("dynamic fleet solve reported %+v", st)
	}
	if st.Stats.Coordinator.Retries != 0 {
		t.Fatalf("clean solve metered %d retries", st.Stats.Coordinator.Retries)
	}

	pm := scrape(t, ts.URL+"/metrics")
	if v, ok := pm.Value("lpserved_fleet_members", map[string]string{"state": "live"}); !ok || v != k {
		t.Fatalf("lpserved_fleet_members{state=live} = %v %v, want %d", v, ok, k)
	}
	if v, ok := pm.Value("lpserved_fleet_solve_retries_total", nil); !ok || v != 0 {
		t.Fatalf("lpserved_fleet_solve_retries_total = %v %v, want 0", v, ok)
	}
	if _, ok := pm.Value("lpserved_fleet_epoch", nil); !ok {
		t.Fatal("lpserved_fleet_epoch missing from exposition")
	}

	// A clean client departure removes the member.
	c := &registry.Client{Frontend: ts.URL, Self: urls[2]}
	if err := c.Deregister(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := srv.Fleet().LiveWorkers(); len(got) != k-1 {
		t.Fatalf("live workers after deregister %v, want %d", got, k-1)
	}
}

// TestFleetRetryMetricsSurface: a mid-solve worker death through the
// full frontend path must bump lpserved_fleet_solve_retries_total,
// report the retry in the job's stats, and leave the victim named in
// the membership view — exactly what the doctor keys on.
func TestFleetRetryMetricsSurface(t *testing.T) {
	m, _ := engine.Lookup("svm")
	const k, victim = 3, 1
	manifest := writeShardedInstance(t, m, 8000, k, 8)
	urls := startKillableFleet(t, manifest, k, victim, 2)
	_, ts := newTestServer(t, Config{FleetWorkers: urls})

	resp, body := postJSON(t, ts.URL+"/v1/solve", map[string]any{
		"fleet": true, "options": map[string]any{"seed": 1, "r": 2},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet solve across a dying worker: HTTP %d: %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Stats == nil || st.Stats.Coordinator == nil || st.Stats.Coordinator.Retries != 1 {
		t.Fatalf("job stats %+v, want Retries 1", st.Stats)
	}

	pm := scrape(t, ts.URL+"/metrics")
	if v, _ := pm.Value("lpserved_fleet_solve_retries_total", nil); v != 1 {
		t.Fatalf("lpserved_fleet_solve_retries_total = %v, want 1", v)
	}
	if v, _ := pm.Value("lpserved_fleet_members", map[string]string{"state": "down"}); v != 1 {
		t.Fatalf("lpserved_fleet_members{state=down} = %v, want 1", v)
	}
	v := getFleet(t, ts.URL)
	var found bool
	for _, w := range v.Workers {
		if w.URL == urls[victim] {
			found = true
			if w.State != "down" || w.LastErr == "" {
				t.Fatalf("victim view %+v, want down with a reason", w)
			}
		}
	}
	if !found || v.Changes == 0 {
		t.Fatalf("membership view does not name the victim: %+v", v)
	}
}

// TestFleetEndpointsBypassGatewayAuth: the fleet control plane is
// operator-side like /metrics — workers hold no tenant keys, so
// registration must work on a gatewayed frontend without a bearer
// token while tenant APIs stay locked.
func TestFleetEndpointsBypassGatewayAuth(t *testing.T) {
	_, ts := newGatewayServer(t, Config{}, tenantsAB())

	resp, body := postJSON(t, ts.URL+"/v1/fleet/register",
		map[string]any{"url": "w1:9", "kind": "lp", "dim": 2, "rows": 10})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unauthenticated register on a gatewayed frontend: HTTP %d: %s", resp.StatusCode, body)
	}
	if v := getFleet(t, ts.URL); len(v.Workers) != 1 {
		t.Fatalf("fleet view %+v, want the registered worker", v)
	}
	// Tenant APIs remain authenticated.
	resp, _ = postJSON(t, ts.URL+"/v1/solve", map[string]any{"fleet": true})
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated solve: HTTP %d, want 401", resp.StatusCode)
	}
}

// TestFleetSweepMarksLapsedWorker: the frontend's background sweeper
// applies the heartbeat TTL end to end — a registered worker that
// stops heartbeating drops out of the live membership.
func TestFleetSweepMarksLapsedWorker(t *testing.T) {
	srv, ts := newTestServer(t, Config{fleetTTL: 50 * time.Millisecond})
	resp, _ := postJSON(t, ts.URL+"/v1/fleet/register", map[string]any{"url": "w1:9"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: HTTP %d", resp.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.Fleet().LiveWorkers()) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("lapsed worker still live after 5s (sweepInterval clamps to 1s; TTL was 50ms)")
		}
		time.Sleep(20 * time.Millisecond)
	}
	down := srv.Fleet().DownMembers()
	if down["http://w1:9"] == "" {
		t.Fatalf("lapsed worker has no recorded reason: %v", down)
	}
}
