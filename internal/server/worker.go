package server

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lowdimlp/internal/comm"
	"lowdimlp/internal/comm/httptransport"
	"lowdimlp/internal/coordinator"
	"lowdimlp/internal/dataset"
	"lowdimlp/internal/engine"
)

// Worker is lpserved's worker mode: one process owning one LDSET1
// dataset shard, answering the coordinator protocol's round-A/round-B
// frames over a single binary endpoint. k workers plus a coordinator
// (lpsolve -workers, or an lpserved front end with -workers) execute
// Algorithm 1 as a real multi-process distributed solve: the shard is
// opened through the dataset layer (memory-mapped when the host
// allows, streamed otherwise) and never materialized — protocol scans
// run straight over the file, exactly as an in-process coordinator
// site would scan its shard.
//
// Endpoints:
//
//	POST /v1/worker/step   one enveloped protocol frame in, one out
//	GET  /v1/worker/info   shard metadata (operator view, JSON)
//	GET  /metrics          Prometheus-style text metrics
//	GET  /healthz          liveness
//
// Protocol sessions are per-solve state (per-row weights, RNG, pending
// basis; under 24 B per shard row, reported by /v1/worker/info and
// lpserved_worker_session_state_bytes):
// FrameBegin opens one, FrameEnd closes it, and sessions idle past
// the TTL are reclaimed so a crashed coordinator cannot leak them.
type Worker struct {
	cfg     WorkerConfig
	info    dataset.Info
	src     dataset.Source
	host    coordinator.SiteHost
	mux     *http.ServeMux
	metrics WorkerMetrics

	mu       sync.Mutex
	sessions map[uint64]*workerSession
	draining bool // refuse new Begins; existing sessions still step

	// replies holds reply buffers between steps. A ship-all reply on a
	// 20 000-row shard is 640 KB; a buffer that died with its session
	// would make one such garbage per solve, and with it about one
	// collection. At most one buffer per CPU (steps are CPU-bound, so
	// about that many are in flight) of at most maxIdleReplyBytes
	// waits here; a larger reply's buffer is left to the collector.
	replies chan []byte

	sweepOnce sync.Once
	sweepStop chan struct{}
	sweepDone chan struct{}
}

// WorkerConfig tunes a Worker.
type WorkerConfig struct {
	// DataPath is the LDSET1 shard file this worker owns (one shard of
	// a sharded dataset, or a whole single-file dataset for a
	// one-worker fleet).
	DataPath string

	// Constants in every deployment (zero means the constant below);
	// only in-package tests set them.
	maxSessions int
	sessionTTL  time.Duration
}

// A worker holds at most maxSessions open protocol sessions, reclaims
// those idle past sessionTTL, reads request frames of at most
// maxFrameBytes (coordinator requests are a basis or two varints,
// never large) and keeps reply buffers of at most maxIdleReplyBytes
// between steps.
const (
	maxSessions       = 64
	sessionTTL        = 5 * time.Minute
	maxFrameBytes     = 4 << 20
	maxIdleReplyBytes = 8 << 20
)

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.maxSessions == 0 {
		c.maxSessions = maxSessions
	}
	if c.sessionTTL == 0 {
		c.sessionTTL = sessionTTL
	}
	return c
}

// workerSession is one open protocol session. Steps within a session
// are serialized by mu (the coordinator sends one frame at a time per
// site; the lock makes a misbehaving client safe, not fast). closed,
// guarded by mu, marks a session the sweeper or an End reclaimed — a
// step that raced the reclamation and got the pointer before the map
// delete must not execute on the closed site (its cursor would
// silently reopen and leak).
type workerSession struct {
	id      uint64
	site    coordinator.Site
	mu      sync.Mutex
	closed  bool
	touched atomic.Int64 // unix nanos of the last step
	// state is site.StateBytes() as of the last step, kept beside the
	// site so the info and metrics endpoints never wait for a step.
	state atomic.Int64
}

// close releases the session's site exactly once. Caller must not
// hold s.mu.
func (s *workerSession) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		s.site.Close()
		s.state.Store(0)
	}
}

// NewWorker opens the shard and assembles the worker. The shard names
// its own kind/dim/objective; the kind must be registered. The whole
// dataset layer's validation applies: a corrupt or truncated shard is
// an open error here, not a wrong answer mid-protocol.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	cfg = cfg.withDefaults()
	m, info, src, err := engine.OpenDatasetSource(cfg.DataPath)
	if err != nil {
		return nil, err
	}
	if _, sharded := src.(*dataset.ShardedFile); sharded {
		dataset.CloseSource(src)
		return nil, fmt.Errorf("%s: is an LDSETM manifest; a worker owns one LDSET1 shard file — start one worker per shard", cfg.DataPath)
	}
	host, err := m.NewSiteHost(info.Dim, info.Objective, src)
	if err != nil {
		dataset.CloseSource(src)
		return nil, err
	}
	w := &Worker{
		cfg:       cfg,
		info:      info,
		src:       src,
		host:      host,
		mux:       http.NewServeMux(),
		sessions:  make(map[uint64]*workerSession),
		replies:   make(chan []byte, runtime.GOMAXPROCS(0)),
		sweepStop: make(chan struct{}),
		sweepDone: make(chan struct{}),
	}
	w.mux.HandleFunc("POST "+httptransport.StepPath, w.handleStep)
	w.mux.HandleFunc("POST /v1/worker/drain", w.handleDrain)
	w.mux.HandleFunc("GET /v1/worker/info", w.handleInfo)
	w.mux.HandleFunc("GET /metrics", w.handleMetrics)
	w.mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, _ *http.Request) {
		writeJSON(rw, http.StatusOK, map[string]bool{"ok": true})
	})
	go w.sweepLoop()
	return w, nil
}

// Handler returns the root handler.
func (w *Worker) Handler() http.Handler { return w.mux }

// Info returns the shard metadata.
func (w *Worker) Info() dataset.Info { return w.info }

// Close stops the session sweeper, closes every open session, and
// releases the shard.
func (w *Worker) Close() error {
	w.sweepOnce.Do(func() { close(w.sweepStop) })
	<-w.sweepDone
	w.mu.Lock()
	stale := make([]*workerSession, 0, len(w.sessions))
	for id, s := range w.sessions {
		delete(w.sessions, id)
		stale = append(stale, s)
	}
	w.mu.Unlock()
	for _, s := range stale {
		s.close()
	}
	dataset.CloseSource(w.src)
	return nil
}

// StartDrain puts the worker into draining: new protocol sessions are
// refused with a typed 503 while in-flight sessions keep stepping to
// completion — a coordinator mid-round finishes its solve, the next
// solve's Begin lands elsewhere. Draining is one-way; only a process
// restart undrains.
func (w *Worker) StartDrain() {
	w.mu.Lock()
	w.draining = true
	w.mu.Unlock()
}

// Draining reports whether StartDrain was called.
func (w *Worker) Draining() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.draining
}

// OpenSessions returns the number of open protocol sessions.
func (w *Worker) OpenSessions() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.sessions)
}

// gauges returns the live values the info and metrics endpoints show:
// open sessions, the bytes of weight state they hold, and draining.
func (w *Worker) gauges() (open int, stateBytes int64, draining bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, s := range w.sessions {
		stateBytes += s.state.Load()
	}
	return len(w.sessions), stateBytes, w.draining
}

// DrainAndWait starts draining and blocks until every in-flight
// session has ended (FrameEnd or TTL sweep) or the context expires —
// the graceful-shutdown barrier between "stop taking work" and
// "close the listener". Returns the number of sessions still open
// (0 on a clean drain).
func (w *Worker) DrainAndWait(ctx context.Context) int {
	w.StartDrain()
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for {
		if n := w.OpenSessions(); n == 0 {
			return 0
		}
		select {
		case <-ctx.Done():
			return w.OpenSessions()
		case <-t.C:
		}
	}
}

// handleDrain is the operator endpoint behind StartDrain.
func (w *Worker) handleDrain(rw http.ResponseWriter, _ *http.Request) {
	w.StartDrain()
	writeJSON(rw, http.StatusOK, map[string]any{
		"draining": true,
		"sessions": w.OpenSessions(),
	})
}

// sweepLoop reclaims idle sessions until Close.
func (w *Worker) sweepLoop() {
	defer close(w.sweepDone)
	ttl := w.cfg.sessionTTL
	t := time.NewTicker(sweepInterval(ttl))
	defer t.Stop()
	for {
		select {
		case <-t.C:
			cutoff := time.Now().Add(-ttl).UnixNano()
			w.mu.Lock()
			var stale []*workerSession
			for id, s := range w.sessions {
				if s.touched.Load() < cutoff {
					delete(w.sessions, id)
					stale = append(stale, s)
				}
			}
			w.mu.Unlock()
			w.metrics.SessionsExpired.Add(int64(len(stale)))
			for _, s := range stale {
				s.close()
			}
		case <-w.sweepStop:
			return
		}
	}
}

// siteInfo is the shard metadata in protocol form.
func (w *Worker) siteInfo() comm.SiteInfo {
	return comm.SiteInfo{
		Kind:      w.info.Kind,
		Dim:       w.info.Dim,
		Width:     w.info.Width,
		Rows:      w.info.Rows,
		Objective: w.info.Objective,
	}
}

// newSessionID mints an unguessable nonzero session id — the endpoint
// is unauthenticated, so sequential ids would let any client step (and
// corrupt) another coordinator's session.
func newSessionID() uint64 {
	for {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			panic(err) // crypto/rand never fails on supported platforms
		}
		if id := binary.LittleEndian.Uint64(b[:]); id != 0 {
			return id
		}
	}
}

// handleStep is the protocol endpoint: one enveloped frame per POST.
// Malformed envelopes and payloads are 4xx responses (the transport
// client surfaces them as typed errors); only a genuinely broken
// shard read would 500.
func (w *Worker) handleStep(rw http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(rw, r.Body, maxFrameBytes))
	w.metrics.BytesIn.Add(int64(len(body)))
	if err != nil {
		w.metrics.StepErrors.Add(1)
		writeError(rw, decodeErrorStatus(err), fmt.Errorf("reading frame: %w", err))
		return
	}
	f, err := comm.DecodeFrameStrict(body)
	if err != nil {
		w.metrics.FrameDecodeErrors.Add(1)
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	w.metrics.Steps.Add(1)
	reply := func(session uint64, payload []byte) {
		// The header and the payload go out as they lie: no copy of
		// the payload into one frame buffer.
		hdr := comm.AppendFrameHeader(nil, comm.Frame{Type: comm.FrameReply, Session: session, Seq: f.Seq, Payload: payload})
		n := len(hdr) + len(payload)
		w.metrics.BytesOut.Add(int64(n))
		// The declared length lets the transport read the reply into
		// one buffer of its size (httptransport.exchangeTimeout).
		rw.Header().Set("Content-Type", "application/octet-stream")
		rw.Header().Set("Content-Length", strconv.Itoa(n))
		rw.Write(hdr)
		rw.Write(payload)
	}
	switch f.Type {
	case comm.FrameInfo:
		reply(0, comm.AppendSiteInfo(nil, w.siteInfo()))
	case comm.FrameBegin:
		seed, site, mult, err := comm.DecodeBeginPayload(f.Payload)
		if err != nil {
			w.metrics.StepErrors.Add(1)
			writeError(rw, http.StatusBadRequest, err)
			return
		}
		w.mu.Lock()
		if w.draining {
			w.mu.Unlock()
			w.metrics.StepErrors.Add(1)
			writeError(rw, http.StatusServiceUnavailable,
				fmt.Errorf("worker draining: not accepting new protocol sessions"))
			return
		}
		w.mu.Unlock()
		s := &workerSession{id: newSessionID(), site: w.host.NewSession(seed, site, mult)}
		s.touched.Store(time.Now().UnixNano())
		w.mu.Lock()
		// Re-check draining under the same lock that registers the
		// session: a StartDrain between the first check and here must
		// not slip a fresh session past the drain barrier.
		if w.draining {
			w.mu.Unlock()
			s.site.Close()
			w.metrics.StepErrors.Add(1)
			writeError(rw, http.StatusServiceUnavailable,
				fmt.Errorf("worker draining: not accepting new protocol sessions"))
			return
		}
		if len(w.sessions) >= w.cfg.maxSessions {
			w.mu.Unlock()
			s.site.Close()
			w.metrics.StepErrors.Add(1)
			writeError(rw, http.StatusServiceUnavailable,
				fmt.Errorf("too many open protocol sessions (limit %d)", w.cfg.maxSessions))
			return
		}
		w.sessions[s.id] = s
		w.mu.Unlock()
		w.metrics.SessionsOpened.Add(1)
		b := comm.NewBuffer()
		b.PutUvarint(uint64(w.host.Rows()))
		reply(s.id, b.Bytes())
	case comm.FrameEnd:
		w.mu.Lock()
		s, ok := w.sessions[f.Session]
		delete(w.sessions, f.Session)
		w.mu.Unlock()
		if !ok {
			w.metrics.StepErrors.Add(1)
			writeError(rw, http.StatusNotFound, fmt.Errorf("unknown session %d", f.Session))
			return
		}
		s.close()
		reply(f.Session, nil)
	default:
		w.mu.Lock()
		s, ok := w.sessions[f.Session]
		w.mu.Unlock()
		if !ok {
			w.metrics.StepErrors.Add(1)
			writeError(rw, http.StatusNotFound, fmt.Errorf("unknown session %d", f.Session))
			return
		}
		s.mu.Lock()
		if s.closed {
			// The sweeper (or a concurrent End) reclaimed the session
			// between our map lookup and this lock.
			s.mu.Unlock()
			w.metrics.StepErrors.Add(1)
			writeError(rw, http.StatusNotFound, fmt.Errorf("unknown session %d", f.Session))
			return
		}
		s.touched.Store(time.Now().UnixNano())
		// The reply buffer is this handler's alone (the site keeps no
		// reference to it), so it is written out after the session
		// unlocks and then goes back for the next step of any session.
		buf := w.replyBuffer()
		payload, err := s.site.Step(buf, f.Type, f.Payload)
		s.state.Store(int64(s.site.StateBytes()))
		s.mu.Unlock()
		if err != nil {
			w.putReplyBuffer(buf)
			w.metrics.StepErrors.Add(1)
			writeError(rw, http.StatusUnprocessableEntity, err)
			return
		}
		reply(f.Session, payload)
		w.putReplyBuffer(payload)
	}
}

// replyBuffer returns an empty reply buffer, an idle one if there is.
func (w *Worker) replyBuffer() []byte {
	select {
	case b := <-w.replies:
		return b
	default:
		return nil
	}
}

// putReplyBuffer keeps b for a later step if it is not too large and
// the free list has room.
func (w *Worker) putReplyBuffer(b []byte) {
	if cap(b) == 0 || cap(b) > maxIdleReplyBytes {
		return
	}
	select {
	case w.replies <- b[:0]:
	default:
	}
}

// handleInfo is the operator view of the shard.
func (w *Worker) handleInfo(rw http.ResponseWriter, _ *http.Request) {
	open, stateBytes, draining := w.gauges()
	writeJSON(rw, http.StatusOK, map[string]any{
		"kind":                w.info.Kind,
		"dim":                 w.info.Dim,
		"width":               w.info.Width,
		"rows":                w.info.Rows,
		"objective":           w.info.Objective,
		"sessions":            open,
		"session_state_bytes": stateBytes,
		"steps":               w.metrics.Steps.Load(),
		"draining":            draining,
	})
}

// handleMetrics is the worker's Prometheus endpoint — the per-shard
// counterpart of the frontend's /metrics, scraped by lpstat.
func (w *Worker) handleMetrics(rw http.ResponseWriter, _ *http.Request) {
	open, stateBytes, draining := w.gauges()
	rw.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.metrics.Render(rw, open, stateBytes, draining, w.info.Kind, w.info.Dim, w.info.Rows)
}
