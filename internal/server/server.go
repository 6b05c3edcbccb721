package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"lowdimlp/internal/comm/registry"
	"lowdimlp/internal/dataset"
	"lowdimlp/internal/engine"
	"lowdimlp/internal/gateway"
	// The kind catalog: importing it registers every problem kind the
	// service can solve. The handlers themselves are kind-agnostic.
	_ "lowdimlp/internal/models"
	"lowdimlp/internal/obs"
)

// Config tunes a Server.
type Config struct {
	// Workers is the solver pool size (0 = GOMAXPROCS).
	Workers int
	// CacheSize is the LRU result-cache capacity (0 = 256; < 0
	// disables caching). Warm starts do not depend on it: the basis
	// cache is separate and always on.
	CacheSize int
	// MaxBodyBytes bounds request bodies (0 = 64 MiB).
	MaxBodyBytes int64
	// FleetWorkers is the lpserved worker-process fleet (base URLs,
	// one per shard; worker i = coordinator site i) that serves
	// requests with "fleet": true. The list seeds the worker registry
	// as static members (never expired by heartbeat); workers may also
	// register dynamically at POST /v1/fleet/register. With neither,
	// fleet solves are refused.
	FleetWorkers []string
	// Gateway, when set, puts the multi-tenant front door ahead of the
	// API: bearer-key auth on every /v1/ request, per-tenant rate
	// limits and queue quotas, and tenant-scoped instance/job/trace
	// namespaces. Nil serves unauthenticated exactly as before.
	Gateway *gateway.Gateway

	// The limits below are constants in every deployment (zero means
	// the constant); only in-package tests set them.
	queueDepth   int           // queued-but-not-running jobs (queuePerWorker × Workers)
	maxInstances int           // concurrent chunk uploads (maxInstances)
	fleetTTL     time.Duration // registry heartbeat horizon (registry.DefaultTTL)
}

// Fixed tuning of the frontend. None of these changes an answer or a
// metered cost, and every deployment ran these values when they were
// flags (DESIGN.md §11).
const (
	// queuePerWorker sizes the job queue: a submission finding
	// queuePerWorker × Workers jobs already queued is refused with 503.
	queuePerWorker = 4
	// basisCacheSize is the warm-start basis LRU's capacity.
	basisCacheSize = 256
	// traceRingSize is how many captured traces GET /v1/traces keeps.
	traceRingSize = 128
)

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.queueDepth == 0 {
		c.queueDepth = queuePerWorker * c.Workers
	}
	if c.maxInstances == 0 {
		c.maxInstances = maxInstances
	}
	return c
}

// Server is the lpserved HTTP service: handlers over a job manager,
// an instance store, a result cache and a metrics set.
type Server struct {
	cfg       Config
	manager   *Manager
	instances *InstanceStore
	metrics   *Metrics
	fleet     *registry.Registry
	mux       *http.ServeMux
	sweepOnce sync.Once
	sweepStop chan struct{}
	sweepDone chan struct{}
	// fleetSweepDone closes when the registry sweeper exits (it shares
	// sweepStop with the instance sweeper).
	fleetSweepDone chan struct{}
}

// New assembles a Server (and starts its worker pool and the instance
// idle sweeper).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	metrics := NewMetrics()
	s := &Server{
		cfg:       cfg,
		metrics:   metrics,
		manager:   NewManager(cfg.Workers, cfg.queueDepth, NewCache(cfg.CacheSize), metrics),
		instances: NewInstanceStore(cfg.maxInstances, instanceTTL),
		fleet:     registry.New(cfg.fleetTTL),
		mux:       http.NewServeMux(),
		sweepStop: make(chan struct{}),
		sweepDone: make(chan struct{}),

		fleetSweepDone: make(chan struct{}),
	}
	if cfg.Gateway != nil {
		metrics.Tenants = cfg.Gateway.Metrics()
		s.manager.tenants = metrics.Tenants
	}
	s.fleet.SeedStatic(cfg.FleetWorkers)
	s.manager.fleet = s.fleet
	metrics.FleetRegistry = s.fleet
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/models", s.handleModels)
	s.mux.HandleFunc("POST /v1/instances", s.handleInstanceCreate)
	s.mux.HandleFunc("GET /v1/instances", s.handleInstanceList)
	s.mux.HandleFunc("POST /v1/instances/{id}/rows", s.handleInstanceAppend)
	s.mux.HandleFunc("DELETE /v1/instances/{id}", s.handleInstanceDrop)
	s.mux.HandleFunc("GET /v1/traces", s.handleTraces)
	s.mux.HandleFunc("POST /v1/fleet/register", s.handleFleetRegister)
	s.mux.HandleFunc("POST /v1/fleet/deregister", s.handleFleetDeregister)
	s.mux.HandleFunc("POST /v1/fleet/drain", s.handleFleetDrain)
	s.mux.HandleFunc("GET /v1/fleet", s.handleFleetList)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	go s.sweepLoop()
	go s.fleetSweepLoop()
	return s
}

// sweepLoop periodically reclaims idle chunk uploads until Shutdown.
func (s *Server) sweepLoop() {
	defer close(s.sweepDone)
	t := time.NewTicker(sweepInterval(s.instances.TTL()))
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if n := s.instances.Sweep(); n > 0 {
				s.metrics.InstancesExpired.Add(int64(n))
			}
		case <-s.sweepStop:
			return
		}
	}
}

// Handler returns the root handler — the API wrapped by the gateway
// when multi-tenancy is configured.
func (s *Server) Handler() http.Handler {
	if s.cfg.Gateway != nil {
		return s.cfg.Gateway.Wrap(s.mux)
	}
	return s.mux
}

// Shutdown stops the instance sweeper and drains the worker pool. It
// is safe to call repeatedly, including concurrently.
func (s *Server) Shutdown(ctx context.Context) error {
	s.sweepOnce.Do(func() { close(s.sweepStop) })
	<-s.sweepDone
	<-s.fleetSweepDone
	return s.manager.Shutdown(ctx)
}

// --- request plumbing --------------------------------------------------

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// decodeErrorStatus picks the HTTP status for a request-decoding
// failure: gone instances are 404 and oversized bodies 413 (so
// clients know to switch to chunk upload); everything else is a 400.
func decodeErrorStatus(err error) int {
	var tooBig *http.MaxBytesError
	switch {
	case errors.Is(err, ErrUnknownInstance):
		return http.StatusNotFound
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge
	default:
		return http.StatusBadRequest
	}
}

// decodeRequest parses the JSON body (optional when ?generate= is
// given), overlays the debug/load-testing query parameters, validates,
// resolves chunk-uploaded instances and materializes generators, so
// the caller gets a ready-to-solve request. The second return names
// the chunk-uploaded instance that was consumed, if any, so a failed
// submission can restore it.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (*SolveRequest, string, error) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	raw, err := io.ReadAll(body)
	if err != nil {
		return nil, "", fmt.Errorf("reading body: %w", err)
	}
	req := &SolveRequest{}
	if len(raw) > 0 {
		if err := req.decodeBody(raw); err != nil {
			return nil, "", fmt.Errorf("bad JSON: %w", err)
		}
	}
	req.tenant = gateway.FromContext(r.Context())
	if err := overlayQuery(req, r); err != nil {
		return nil, "", err
	}
	if err := req.Validate(); err != nil {
		return nil, "", err
	}
	taken := ""
	if req.InstanceID != "" {
		data, err := s.instances.Take(req.ns(), req.InstanceID, req.Kind, req.Dim)
		if err != nil {
			return nil, "", err
		}
		taken = req.InstanceID
		req.data = data
		req.InstanceID = ""
	}
	hasRows := len(req.Rows) > 0 || len(req.rawRows) > 0 ||
		(req.data != nil && req.data.Rows() > 0)
	if !hasRows && req.Generate == nil && !req.Fleet {
		// Kinds with a defined empty optimum (LP: the box corner) may
		// run empty; the rest need data. Hand a consumed upload back
		// before failing — the client may still be appending rows.
		m, merr := req.model()
		if merr == nil && !m.AllowsEmpty() {
			if taken != "" {
				s.instances.Restore(req.ns(), taken, req.Kind, req.Dim, req.data)
			}
			return nil, "", fmt.Errorf("empty instance")
		}
	}
	// Generate specs and undecoded inline rows are validated here only
	// structurally; materialization (synthesis, JSON-to-columnar
	// decode, row invariants) happens on the worker pool (Manager.run),
	// so ingestion cost is bounded by Workers rather than by however
	// many handler goroutines are in flight.
	return req, taken, nil
}

// decodeAndSubmit runs the decode→submit pipeline shared by the sync
// and async endpoints, writing the error response itself on failure.
// A consumed chunk-uploaded instance is restored when the queue
// rejects the job, so the client's retry still finds it.
func (s *Server) decodeAndSubmit(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	req, taken, err := s.decodeRequest(w, r)
	if err != nil {
		writeError(w, decodeErrorStatus(err), err)
		return nil, false
	}
	job, err := s.manager.Submit(req)
	if err != nil {
		if taken != "" {
			s.instances.Restore(req.ns(), taken, req.Kind, req.Dim, req.data)
		}
		// Backpressure carries a drain estimate either way; a tenant's
		// quota breach is a 429 so clients can tell it apart from a
		// queue that actually filled (503).
		w.Header().Set("Retry-After", strconv.Itoa(s.manager.RetryAfterSeconds()))
		code := http.StatusServiceUnavailable
		if errors.Is(err, ErrTenantQuota) {
			code = http.StatusTooManyRequests
		}
		writeError(w, code, err)
		return nil, false
	}
	return job, true
}

// overlayQuery maps the ?generate=sphere&n=…&d=…&kind=…&model=…&seed=…
// load-testing parameters onto the request.
func overlayQuery(req *SolveRequest, r *http.Request) error {
	q := r.URL.Query()
	if v := q.Get("kind"); v != "" {
		req.Kind = v
	}
	if v := q.Get("model"); v != "" {
		req.Model = v
	}
	if v := q.Get("generate"); v != "" {
		if req.Generate == nil {
			req.Generate = &GenerateSpec{}
		}
		req.Generate.Family = v
	}
	// Option overrides apply with or without a generate spec — a
	// ?seed= on an inline request must not be silently dropped.
	for name, dst := range map[string]*int{"r": &req.Options.R, "k": &req.Options.K} {
		if v := q.Get(name); v != "" {
			i, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("bad query parameter %s=%q", name, v)
			}
			*dst = i
		}
	}
	if v := q.Get("delta"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return fmt.Errorf("bad query parameter delta=%q", v)
		}
		req.Options.Delta = f
	}
	if v := q.Get("seed"); v != "" {
		u, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return fmt.Errorf("bad query parameter seed=%q", v)
		}
		req.Options.Seed = u
		if req.Generate != nil {
			req.Generate.Seed = u
		}
	}
	if v := q.Get("trace"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return fmt.Errorf("bad query parameter trace=%q", v)
		}
		req.Trace = b
	}
	if req.Generate == nil {
		return nil
	}
	for name, dst := range map[string]*int{"n": &req.Generate.N, "d": &req.Generate.D} {
		if v := q.Get(name); v != "" {
			i, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("bad query parameter %s=%q", name, v)
			}
			*dst = i
		}
	}
	if req.Kind == "" {
		req.Kind = KindLP
	}
	return nil
}

// --- handlers ----------------------------------------------------------

// handleSolve is the synchronous path: the job still flows through
// the pool (so concurrency stays bounded and the cache/metrics see
// it), but the handler waits for completion.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	job, ok := s.decodeAndSubmit(w, r)
	if !ok {
		return
	}
	select {
	case <-job.Done:
	case <-r.Context().Done():
		// Client (or a proxy ahead of it) gave up; the job finishes in
		// the background, so answer with its status — which carries the
		// ID — letting the caller collect the result from /v1/jobs/{id}
		// instead of re-paying the solve.
		writeJSON(w, http.StatusAccepted, job.Status())
		return
	}
	st := job.Status()
	code := http.StatusOK
	if st.State == StateFailed {
		code = http.StatusUnprocessableEntity
	}
	writeJSON(w, code, st)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	job, ok := s.decodeAndSubmit(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusAccepted, job.Status())
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.manager.Get(r.PathValue("id"))
	if !ok || job.tenant != gateway.TenantID(r.Context()) {
		// A job owned by another tenant answers exactly like a job
		// that never existed — IDs are not probeable across tenants.
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

// modelInfo is one registry entry on the wire.
type modelInfo struct {
	Kind      string   `json:"kind"`
	Doc       string   `json:"doc"`
	Row       string   `json:"row"`
	Objective bool     `json:"objective,omitempty"`
	Families  []string `json:"families"`
}

// handleModels lists the registered problem kinds and the backends —
// the service's capability discovery endpoint.
func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) {
	kinds := make([]modelInfo, 0)
	for _, m := range engine.Models() {
		kinds = append(kinds, modelInfo{
			Kind:      m.Kind(),
			Doc:       m.Describe(),
			Row:       m.RowLabel(),
			Objective: m.HasObjective(),
			Families:  m.Families(),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"kinds":  kinds,
		"models": engine.Backends(),
	})
}

// instanceCreateBody opens a chunk upload.
type instanceCreateBody struct {
	Kind string `json:"kind"`
	Dim  int    `json:"dim"`
}

// instanceRef names an instance on the wire.
type instanceRef struct {
	ID   string `json:"id"`
	Rows int    `json:"rows"`
}

func (s *Server) handleInstanceCreate(w http.ResponseWriter, r *http.Request) {
	var body instanceCreateBody
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&body); err != nil {
		// Through the shared status mapper: an oversized body is 413
		// like every other upload path, not a generic 400.
		err = fmt.Errorf("bad JSON: %w", err)
		writeError(w, decodeErrorStatus(err), err)
		return
	}
	probe := SolveRequest{Kind: strings.ToLower(strings.TrimSpace(body.Kind)), Dim: body.Dim}
	if m, err := lookupModel(probe.Kind); err == nil && m.HasObjective() {
		probe.Objective = make([]float64, body.Dim)
	}
	if err := probe.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	id, err := s.instances.Create(gateway.TenantID(r.Context()), probe.Kind, body.Dim)
	if err != nil {
		// Slot exhaustion is backpressure: like every other 429 the
		// service sends, it tells the client when to retry — slots free
		// as solves consume uploads, on the same drain the estimate
		// tracks.
		s.metrics.InstancesRejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(s.manager.RetryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	writeJSON(w, http.StatusCreated, instanceRef{ID: id})
}

// handleInstanceList is the operator view of the open chunk uploads —
// scoped to the caller's namespace, so a tenant lists only its own.
func (s *Server) handleInstanceList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"instances": s.instances.List(gateway.TenantID(r.Context())),
		"limit":     s.instances.max,
		"ttl_ms":    float64(s.instances.TTL()) / float64(time.Millisecond),
	})
}

// instanceAppendBody is one chunk of rows (the client-side shape; the
// handler reads the rows array straight into a columnar store).
type instanceAppendBody struct {
	Rows [][]float64 `json:"rows"`
}

func (s *Server) handleInstanceAppend(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ns := gateway.TenantID(r.Context())
	kind, dim, err := s.instances.Meta(ns, id)
	if err != nil {
		writeError(w, decodeErrorStatus(err), err)
		return
	}
	m, err := lookupModel(kind)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var chunk *dataset.Store
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "application/octet-stream") {
		// Binary append: the body is an LDSET1 block — header plus raw
		// little-endian rows — decoded straight into a columnar chunk.
		// No JSON float parsing anywhere on this path.
		chunk, err = decodeBinaryChunk(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), m, kind, dim)
		if err != nil {
			writeError(w, decodeErrorStatus(err), err)
			return
		}
		s.metrics.BinaryAppends.Add(1)
	} else {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
		if err != nil {
			err = fmt.Errorf("reading body: %w", err)
			writeError(w, decodeErrorStatus(err), err)
			return
		}
		rows, n, err := decodeRowsBody(body, &struct{}{})
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad JSON: %w", err))
			return
		}
		chunk = newKindStore(m, dim)
		if rows != nil {
			if err := decodeRowsJSON(rows, n, m, dim, chunk, MaxInstanceRows); err != nil {
				writeError(w, http.StatusBadRequest, err)
				return
			}
		}
	}
	total, err := s.instances.AppendChunk(ns, id, chunk)
	if err != nil {
		writeError(w, decodeErrorStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, instanceRef{ID: id, Rows: total})
}

func (s *Server) handleInstanceDrop(w http.ResponseWriter, r *http.Request) {
	if !s.instances.Drop(gateway.TenantID(r.Context()), r.PathValue("id")) {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown instance %q", r.PathValue("id")))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleTraces serves the captured-trace ring, newest first — the
// triage view of recent solves that asked for tracing. Under the
// gateway the view is tenant-scoped: each trace is stamped with the
// tenant that ran it (see Manager.run), only the caller's own traces
// come back, and the captured count covers only those — the global
// count would itself leak other tenants' activity.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	traces := s.manager.traces.Snapshot()
	captured := s.manager.traces.Added()
	if ns := gateway.TenantID(r.Context()); ns != "" {
		kept := make([]obs.TraceData, 0, len(traces))
		for _, td := range traces {
			if td.Attrs["tenant"] == ns {
				kept = append(kept, td)
			}
		}
		traces = kept
		captured = int64(len(kept))
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"traces":   traces,
		"captured": captured,
		"limit":    traceRingSize,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.Render(w)
}
