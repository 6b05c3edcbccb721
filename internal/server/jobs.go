package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lowdimlp/internal/comm"
	"lowdimlp/internal/comm/httptransport"
	"lowdimlp/internal/comm/registry"
	"lowdimlp/internal/engine"
	"lowdimlp/internal/gateway"
	"lowdimlp/internal/obs"
)

// ErrQueueFull is returned when the job queue is at capacity.
var ErrQueueFull = errors.New("server: job queue full")

// ErrShuttingDown is returned for submissions after Shutdown starts.
var ErrShuttingDown = errors.New("server: shutting down")

// ErrTenantQuota is returned when a submission would push its tenant
// past its own max_active queue quota. It maps to 429 + Retry-After
// (the queue-full 503 is the service's own limit); it counts against
// the tenant's throttle series, and other tenants' submissions are
// unaffected.
var ErrTenantQuota = errors.New("server: tenant queue quota exceeded")

// Job is one solve request moving through the manager. All mutable
// fields are guarded by mu; Done is closed exactly once when the job
// reaches a terminal state, after which Req is released (the rows of
// a large instance should not outlive the solve).
type Job struct {
	ID    string
	Kind  string
	Model string
	N     int
	// tenant is the submitting tenant's ID ("" with the gateway off).
	// Job status lookups from any other tenant 404, and the tenant's
	// active-jobs gauge moves on submit/retire.
	tenant string

	// Done is closed when the job reaches done/failed.
	Done chan struct{}

	// Scheduler-private fields, written once at Submit (cost) or while
	// the job runs on exactly one worker (leadKey) — never read
	// concurrently with those writes.
	cost    int64  // row count, the Retry-After estimate's unit
	leadKey string // in-flight coalescing key this job leads ("" = none)

	mu        sync.Mutex
	req       *SolveRequest // nil once terminal
	state     string
	cached    bool
	warm      bool
	coalesced bool
	elapsed   time.Duration
	result    *SolveResult
	stats     *StatsPayload
	trace     *obs.TraceData
	err       error
}

// Status snapshots the job for the wire.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.ID,
		State:     j.state,
		Kind:      j.Kind,
		Model:     j.Model,
		N:         j.N,
		Cached:    j.cached,
		Warm:      j.warm,
		Coalesced: j.coalesced,
		Result:    j.result,
		Stats:     j.stats,
		Trace:     j.trace,
	}
	if j.state == StateDone || j.state == StateFailed {
		st.ElapsedMS = float64(j.elapsed) / float64(time.Millisecond)
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// Manager owns the job table, the queue, the worker pool, the
// warm-start basis cache and the trace ring. Every job walks one
// road: admit (Submit) → key → (hit | join | warm | solve | fleet) →
// finish.
type Manager struct {
	cache *Cache
	// basis is the warm-start basis cache (basisCacheSize bases).
	basis   *BasisCache
	metrics *Metrics
	// fleet is the worker registry serving Fleet requests: the static
	// -workers list seeds it, dynamically registering workers join it,
	// and the elastic solve driver reads live membership from (and
	// reports failures into) it. Nil or empty means fleet solves are
	// refused. Set before the first job is accepted.
	fleet *registry.Registry
	// traces is the bounded ring of captured execution traces (GET
	// /v1/traces, traceRingSize entries).
	traces *obs.Ring
	// tenants is the gateway's per-tenant metrics set; its active-jobs
	// gauge doubles as the quota counter (reads and moves are
	// serialized under mu, so quota enforcement is exact). Nil when
	// the gateway is off. Set before the first job is accepted.
	tenants *gateway.Metrics

	// pendingRows tracks the cost of every admitted-but-not-terminal
	// job; with rowsPerSec, an EWMA of solver throughput over
	// genuinely executed solves, it feeds the Retry-After estimate.
	pendingRows atomic.Int64

	rateMu     sync.Mutex
	rowsPerSec float64

	// queue is the bounded FIFO between Submit and the pool. Sends and
	// the close both happen under mu, so Submit never sends on a closed
	// channel.
	queue chan *Job
	wg    sync.WaitGroup

	mu       sync.Mutex
	inflight map[string]*Job // digest → running leader (coalescing)
	jobs     map[string]*Job
	finished []string // terminal job IDs, oldest first
	closed   bool
}

// newJobID returns an unguessable job handle — the service is
// unauthenticated, so sequential IDs would let any client enumerate
// everyone else's results.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return "job-" + hex.EncodeToString(b[:])
}

// maxFinished bounds how many terminal jobs stay pollable before the
// oldest are evicted — without it a long-running service accumulates
// every job ever run.
const maxFinished = 4096

// newManagerIdle builds a manager with no workers — tests use it to
// stage a queue deterministically before starting the pool.
func newManagerIdle(queueDepth int, cache *Cache, metrics *Metrics) *Manager {
	if queueDepth < 1 {
		queueDepth = 1
	}
	return &Manager{
		cache:    cache,
		basis:    NewBasisCache(basisCacheSize),
		traces:   obs.NewRing(traceRingSize),
		metrics:  metrics,
		queue:    make(chan *Job, queueDepth),
		inflight: make(map[string]*Job),
		jobs:     make(map[string]*Job),
	}
}

// start launches the worker pool (counts < 1 are raised to 1).
func (m *Manager) start(workers int) {
	if workers < 1 {
		workers = 1
	}
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
}

// NewManager starts a manager with the given worker count and queue
// depth (values < 1 are raised to 1). Callers must Shutdown it.
func NewManager(workers, queueDepth int, cache *Cache, metrics *Metrics) *Manager {
	m := newManagerIdle(queueDepth, cache, metrics)
	m.start(workers)
	return m
}

// Submit checks nothing (Validate checked the request; materialize
// checks its rows on the worker): it assigns an ID and enqueues the
// job. It fails fast — rejecting a tenant over its quota or a full
// queue — rather than blocking the HTTP handler.
func (m *Manager) Submit(req *SolveRequest) (*Job, error) {
	// Size the job before taking the lock: counting undecoded inline
	// rows is an O(body) byte scan, and m.mu serializes every submit
	// and status poll. The size doubles as the job's cost in the
	// Retry-After estimate.
	n := len(req.Rows)
	if req.rawRows != nil {
		// Unconverted inline rows: counted when their grammar was
		// checked, so queued and failed jobs still report the submitted
		// instance size.
		n = req.rawN
	}
	if req.data != nil {
		n = req.data.Rows()
	}
	if req.Generate != nil {
		n = req.Generate.N
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrShuttingDown
	}
	if t := req.tenant; t != nil && m.tenants != nil && t.MaxActive > 0 {
		// Per-tenant queue quota, checked before the queue: a tenant at
		// its own cap is told so (its quota, its throttle series)
		// instead of filling the queue for everyone. Gauge reads and
		// moves both happen under m.mu, so the check is exact, not
		// best-effort.
		if m.tenants.ActiveJobs(t.ID) >= int64(t.MaxActive) {
			m.tenants.Throttled(t.ID)
			return nil, fmt.Errorf("%w: tenant %s at max_active=%d", ErrTenantQuota, t.ID, t.MaxActive)
		}
	}
	if len(m.queue) == cap(m.queue) {
		return nil, ErrQueueFull
	}
	j := &Job{
		ID:     newJobID(),
		Kind:   req.Kind,
		Model:  req.Model,
		N:      n,
		tenant: req.ns(),
		req:    req,
		Done:   make(chan struct{}),
		state:  StateQueued,
		cost:   int64(n),
	}
	if j.tenant != "" && m.tenants != nil {
		m.tenants.JobStarted(j.tenant)
	}
	m.pendingRows.Add(j.cost)
	m.metrics.JobsQueued.Add(1)
	m.jobs[j.ID] = j
	m.metrics.JobsSubmitted.Add(1)
	// Cannot block: every send happens under mu and the queue had room
	// a moment ago (receivers only make more).
	m.queue <- j
	return j, nil
}

// Get returns the job with the given ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// RetryAfterSeconds estimates how long the current backlog needs to
// drain — the Retry-After hint on the queue-full 503 and on every 429. It divides the
// pending rows by the observed solve throughput and runs it through
// the shared gateway.RetryAfterSeconds clamp ([1, 60]s; 1 when no
// throughput has been observed yet), so this path can never emit a
// zero or negative Retry-After no matter what the counters say.
func (m *Manager) RetryAfterSeconds() int {
	pending := m.pendingRows.Load()
	m.rateMu.Lock()
	rate := m.rowsPerSec
	m.rateMu.Unlock()
	if pending <= 0 || rate <= 0 {
		return 1
	}
	return gateway.RetryAfterSeconds(float64(pending) / rate)
}

// observeRate feeds the Retry-After throughput estimate: an EWMA of rows solved per second over genuinely executed solves —
// cache hits, warm starts and coalesced copies say nothing about
// solver speed and are excluded.
func (m *Manager) observeRate(rows int64, elapsed time.Duration) {
	if rows <= 0 || elapsed <= 0 {
		return
	}
	r := float64(rows) / elapsed.Seconds()
	m.rateMu.Lock()
	if m.rowsPerSec == 0 {
		m.rowsPerSec = r
	} else {
		m.rowsPerSec = 0.8*m.rowsPerSec + 0.2*r
	}
	m.rateMu.Unlock()
}

// Shutdown stops accepting jobs, lets queued work drain, and waits
// for the workers up to the context deadline.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	close(m.queue)
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// A completed drain wins over a simultaneously-expired
		// context — an orchestrator watching the exit code must not
		// see a clean shutdown reported as a failure.
		select {
		case <-done:
			return nil
		default:
			return ctx.Err()
		}
	}
}

// worker drains the queue until it is closed.
func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.metrics.JobsQueued.Add(-1)
		m.metrics.JobsRunning.Add(1)
		m.run(j)
		m.metrics.JobsRunning.Add(-1)
	}
}

// outcome is what a solve path hands to finishJob.
type outcome struct {
	result    *SolveResult
	stats     *StatsPayload
	hit       bool // served from the result cache
	warm      bool // served by re-verifying a cached basis
	coalesced bool // copied from an identical in-flight job
	err       error
}

// run walks one job down the road: key → (hit | join | warm | solve |
// fleet) → finish.
func (m *Manager) run(j *Job) {
	j.mu.Lock()
	j.state = StateRunning
	req := j.req
	j.mu.Unlock()

	// Trace requests get a live recorder; everything below instruments
	// through it unconditionally because every obs call no-ops on nil —
	// the untraced path stays allocation-free.
	var tr *obs.Trace
	if req.Trace {
		tr = obs.New(j.Kind + "/" + j.Model)
		tr.Annotate("job", j.ID)
		if j.tenant != "" {
			tr.Annotate("tenant", j.tenant)
		}
		req.trace = tr
	}

	start := time.Now()
	var out outcome
	var fleetKind string
	switch err := req.Options.Check(); {
	case err != nil:
		// Rejected before keying, so a cached answer under the canonical
		// options (ram ignores NetConst) cannot mask a bad request.
		out.err = err
	case req.Fleet:
		// Fleet solves: the instance lives on the worker processes, so
		// there is nothing to materialize and nothing to digest — the
		// cache is skipped (the service cannot see the rows it would
		// key on).
		tr.Annotate("fleet", "true")
		fleetKind, out.result, out.stats, out.err = m.runFleet(req)
	default:
		out = m.runLocal(j, req, tr)
	}
	m.finishJob(j, req, tr, fleetKind, time.Since(start), out)
}

// runLocal is the non-fleet road. The key step runs as soon as the key
// is known: before materialization for generated instances (a hot
// ?generate= workload hits the cache, or joins the in-flight leader,
// without paying synthesis), after it for everything else.
func (m *Manager) runLocal(j *Job, req *SolveRequest, tr *obs.Trace) outcome {
	var (
		key  string
		out  outcome
		done bool
	)
	if req.Generate != nil {
		if key, out, done = m.lookup(j, req, tr); done {
			return out
		}
	}

	// Generated instances are synthesized here, on the worker, so the
	// pool bounds the memory and CPU of the ?generate= path.
	isp := tr.Start("ingest")
	if err := materialize(req); err != nil {
		isp.EndErr(err, "")
		tr.Annotate("cache", "miss")
		return outcome{err: err}
	}
	isp.End()

	if key == "" {
		if key, out, done = m.lookup(j, req, tr); done {
			return out
		}
	}
	m.metrics.CacheMisses.Add(1)
	tr.Annotate("cache", "miss")
	if out, ok := m.tryWarm(req, tr); ok {
		return out
	}

	// The coordinator's own begin/round/merge spans nest inside the
	// solve phase via req.trace.
	sp := tr.Start("solve")
	result, stats, basis, err := runSolve(req)
	if err != nil {
		sp.EndErr(err, comm.ErrorClass(err))
		return outcome{stats: stats, err: err}
	}
	sp.End()
	m.cache.Put(key, result, stats)
	m.putBasis(req, basis)
	return outcome{result: result, stats: stats}
}

// lookup is the key step: digest the request, then serve it from the
// result cache (hit) or from an identical in-flight job (join). done
// reports that out is the job's outcome; otherwise the job now leads
// the key and must solve.
func (m *Manager) lookup(j *Job, req *SolveRequest, tr *obs.Trace) (key string, out outcome, done bool) {
	key = req.Digest()
	if result, stats, ok := m.cache.Get(key); ok {
		m.metrics.CacheHits.Add(1)
		tr.Annotate("cache", "hit")
		return key, outcome{result: result, stats: stats, hit: true}, true
	}
	out, done = m.joinLeader(j, key, tr)
	return key, out, done
}

// joinLeader coalesces duplicate in-flight solves: the first job to
// carry a digest becomes its leader; identical jobs submitted while it
// runs wait for it and copy its outcome — result, stats and the error
// value itself, so a follower's trace classifies a failure exactly as
// its leader's does — instead of re-solving. This closes the window
// the result cache can't — between a solve starting and its Put. The
// copy is bit-identical by construction: equal digests mean equal
// kind, model, canonical options, geometry and instance, and solves
// are deterministic in all of those.
//
// The digest carries no tenant (results are content-addressed), so
// leader and follower may belong to different tenants. A job ID is its
// owner's unguessable handle: the follower's trace names the leader
// only inside one tenant.
func (m *Manager) joinLeader(j *Job, key string, tr *obs.Trace) (outcome, bool) {
	m.mu.Lock()
	leader, ok := m.inflight[key]
	if !ok {
		m.inflight[key] = j
		j.leadKey = key
		m.mu.Unlock()
		return outcome{}, false
	}
	m.mu.Unlock()
	m.metrics.SolveCoalesced.Add(1)
	if leader.tenant == j.tenant {
		tr.Annotate("coalesced", leader.ID)
	} else {
		tr.Annotate("coalesced", "true")
	}
	<-leader.Done
	leader.mu.Lock()
	defer leader.mu.Unlock()
	return outcome{result: leader.result, stats: leader.stats, err: leader.err, coalesced: true}, true
}

// tryWarm attempts a warm start: a cached basis for this exact
// instance (and seed) is re-verified in one scan; if no row violates
// it, the LP-type locality lemma makes its rendering the optimum —
// bit-identical to the cold solve that stored it. A basis that fails
// verification counts a warm miss and falls through to the cold path,
// so warm starts change cost, never answers.
func (m *Manager) tryWarm(req *SolveRequest, tr *obs.Trace) (outcome, bool) {
	b, ok := m.basis.Get(req.warmKey())
	if !ok {
		return outcome{}, false
	}
	mdl, err := req.model()
	if err != nil {
		return outcome{}, false
	}
	sp := tr.Start("warm-verify")
	sol, ok, err := mdl.VerifyBasisSource(req.Dim, req.Objective, req.data, b)
	if err != nil || !ok {
		if err != nil {
			sp.EndErr(err, "")
		} else {
			sp.End()
		}
		m.metrics.WarmMisses.Add(1)
		tr.Annotate("warm", "miss")
		return outcome{}, false
	}
	sp.End()
	m.metrics.WarmHits.Add(1)
	tr.Annotate("warm", "hit")
	return outcome{result: &sol, warm: true}, true
}

// putBasis stores a solve's final basis for future warm starts and
// refreshes the population gauge.
func (m *Manager) putBasis(req *SolveRequest, basis any) {
	if basis == nil {
		return
	}
	m.basis.Put(req.warmKey(), basis)
	m.metrics.BasisEntries.Store(int64(m.basis.Len()))
}

// finishJob records a job's terminal state: latency and throughput
// observation, trace finalization, status fields, instance release
// and coalescing-leader retirement.
func (m *Manager) finishJob(j *Job, req *SolveRequest, tr *obs.Trace, fleetKind string, elapsed time.Duration, out outcome) {
	kindLabel := j.Kind
	if fleetKind != "" {
		// A kind-less fleet request learns its kind from the workers;
		// label the latency series with it rather than "".
		kindLabel = fleetKind
	}
	m.metrics.ObserveSolve(kindLabel, j.Model, elapsed)
	if out.err == nil && !out.hit && !out.warm && !out.coalesced {
		m.observeRate(j.cost, elapsed)
	}

	// Close out the trace: the finalize phase covers post-solve
	// bookkeeping, then the recorder is frozen into wire form and
	// retained in the ring.
	var tdata *obs.TraceData
	if tr != nil {
		fsp := tr.Start("finalize")
		tr.Annotate("kind", kindLabel)
		if out.err != nil {
			tr.Fail(out.err, comm.ErrorClass(out.err))
		}
		fsp.End()
		d := tr.Data()
		tdata = &d
		m.traces.Add(d)
		m.metrics.TracesCaptured.Add(1)
	}

	j.mu.Lock()
	j.cached = out.hit
	j.warm = out.warm
	j.coalesced = out.coalesced
	j.elapsed = elapsed
	j.result, j.stats, j.err = out.result, out.stats, out.err
	j.trace = tdata
	if fleetKind != "" {
		// The fleet's shard headers name the kind; a request that left
		// it blank learns it here.
		j.Kind = fleetKind
	}
	if out.err == nil {
		// Report the true instance size: generators may round the
		// requested n (chebyshev emits constraint pairs), and a fleet
		// solve only learns its size from the workers.
		if req.data != nil {
			j.N = req.data.Rows()
		} else if out.stats != nil && out.stats.Coordinator != nil {
			j.N = out.stats.Coordinator.N
		}
	}
	j.req = nil // release the instance rows
	if out.err != nil {
		j.state = StateFailed
		m.metrics.JobsFailed.Add(1)
	} else {
		j.state = StateDone
		m.metrics.JobsDone.Add(1)
	}
	j.mu.Unlock()
	m.pendingRows.Add(-j.cost)
	m.release(j)
}

// release retires a terminal job: its in-flight leadership (if any)
// ends before Done closes, so a follower that finds the key vacant
// will also find the result already cached or the status terminal.
func (m *Manager) release(j *Job) {
	if j.leadKey != "" {
		m.mu.Lock()
		if m.inflight[j.leadKey] == j {
			delete(m.inflight, j.leadKey)
		}
		m.mu.Unlock()
	}
	close(j.Done)
	m.retire(j)
}

// runFleet solves over the registered worker fleet through the
// elastic engine driver, passing along the request's kind
// expectation. The returned kind is what the fleet actually holds.
// A worker that dies mid-solve is reported down in the registry and
// the protocol retries from the start against the survivors (see
// engine.SolveFleetElastic); retries land on the
// lpserved_fleet_solve_retries_total counter.
func (m *Manager) runFleet(req *SolveRequest) (string, *SolveResult, *StatsPayload, error) {
	if m.fleet == nil || len(m.fleet.LiveWorkers()) == 0 {
		return "", nil, nil, errors.New("no live workers in the fleet registry (start lpserved with -workers, or start workers with -register)")
	}
	m.metrics.FleetSolves.Add(1)
	opt := req.Options
	opt.Trace = req.trace
	// Each attempt dials afresh, deliberately: the k FrameInfo
	// exchanges are cheap next to the protocol rounds, and re-dialing
	// revalidates fleet coherence every time — a worker restarted with
	// a different shard fails the solve at dial, not mid-protocol.
	kind, sol, stats, err := engine.SolveFleetElastic(m.fleet, opt,
		httptransport.Options{Metrics: m.metrics.Fleet}, req.Kind)
	if stats.Coordinator != nil && stats.Coordinator.Retries > 0 {
		m.metrics.FleetRetries.Add(int64(stats.Coordinator.Retries))
	}
	if err != nil {
		if stats.Coordinator == nil {
			// Dial or expectation failure: no protocol ran, report no
			// stats rather than an all-zero block.
			return kind, nil, nil, err
		}
		return kind, nil, &stats, err
	}
	return kind, &sol, &stats, nil
}

// retire records a terminal job, returns its quota slot to the tenant
// and evicts the oldest finished jobs beyond maxFinished so the job
// table stays bounded.
func (m *Manager) retire(j *Job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j.tenant != "" && m.tenants != nil {
		m.tenants.JobFinished(j.tenant)
	}
	m.finished = append(m.finished, j.ID)
	for len(m.finished) > maxFinished {
		delete(m.jobs, m.finished[0])
		m.finished = m.finished[1:]
	}
}
