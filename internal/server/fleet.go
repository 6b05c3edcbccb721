package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"lowdimlp/internal/comm/registry"
)

// This file is the frontend's fleet control plane: the HTTP face of
// the worker registry (internal/comm/registry). Workers started with
// `lpserved -worker -register http://frontend` announce themselves
// here and heartbeat by re-registering; the solve path asks the same
// registry for the live membership on every fleet solve. The static
// `-workers host1,...` flag still works — it seeds the registry with
// members that never expire — so existing deployments keep their
// behavior while gaining failure reporting and retry.
//
// Endpoints (operator-side, exempt from gateway tenant auth like
// /metrics and /healthz):
//
//	POST /v1/fleet/register    {url, kind, dim, rows} → {epoch, ttl_ms}
//	POST /v1/fleet/deregister  {url} → {removed}
//	POST /v1/fleet/drain       {url} → {draining}   (registry-side mark)
//	GET  /v1/fleet             membership snapshot (epoch, changes, workers)

// fleetMemberView is one registry member on the wire.
type fleetMemberView struct {
	URL      string `json:"url"`
	Kind     string `json:"kind,omitempty"`
	Dim      int    `json:"dim,omitempty"`
	Rows     int    `json:"rows,omitempty"`
	Static   bool   `json:"static,omitempty"`
	State    string `json:"state"`
	LastSeen string `json:"last_seen"`
	LastErr  string `json:"last_err,omitempty"`
}

func (s *Server) handleFleetRegister(w http.ResponseWriter, r *http.Request) {
	var body struct {
		URL  string `json:"url"`
		Kind string `json:"kind"`
		Dim  int    `json:"dim"`
		Rows int    `json:"rows"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad JSON: %w", err))
		return
	}
	if body.URL == "" {
		writeError(w, http.StatusBadRequest, errors.New("register: url is required (the worker's advertised base URL)"))
		return
	}
	epoch, err := s.fleet.Register(body.URL, body.Kind, body.Dim, body.Rows)
	if err != nil {
		// A shard-identity mismatch is a conflict with the live fleet,
		// not a malformed request.
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":  epoch,
		"ttl_ms": s.fleet.TTL().Milliseconds(),
	})
}

func (s *Server) handleFleetDeregister(w http.ResponseWriter, r *http.Request) {
	var body struct {
		URL string `json:"url"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad JSON: %w", err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"removed": s.fleet.Deregister(body.URL),
	})
}

func (s *Server) handleFleetDrain(w http.ResponseWriter, r *http.Request) {
	var body struct {
		URL string `json:"url"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad JSON: %w", err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"draining": s.fleet.Drain(body.URL),
	})
}

func (s *Server) handleFleetList(w http.ResponseWriter, _ *http.Request) {
	members, epoch, changes := s.fleet.Snapshot()
	views := make([]fleetMemberView, len(members))
	for i, m := range members {
		views[i] = fleetMemberView{
			URL:      m.URL,
			Kind:     m.Kind,
			Dim:      m.Dim,
			Rows:     m.Rows,
			Static:   m.Static,
			State:    m.State.String(),
			LastSeen: m.LastSeen.UTC().Format(time.RFC3339Nano),
			LastErr:  m.LastErr,
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":   epoch,
		"changes": changes,
		"workers": views,
	})
}

// fleetSweepLoop expires lapsed dynamic members until Shutdown — the
// registry's counterpart of the instance sweeper, on its own cadence
// derived from the heartbeat TTL.
func (s *Server) fleetSweepLoop() {
	defer close(s.fleetSweepDone)
	t := time.NewTicker(sweepInterval(s.fleet.TTL()))
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.fleet.Sweep()
		case <-s.sweepStop:
			return
		}
	}
}

// Fleet exposes the worker registry (tests, embedding callers).
func (s *Server) Fleet() *registry.Registry { return s.fleet }
