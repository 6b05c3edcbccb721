package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lowdimlp/internal/comm"
	"lowdimlp/internal/comm/httptransport"
	"lowdimlp/internal/comm/registry"
	"lowdimlp/internal/dataset"
	"lowdimlp/internal/engine"
	"lowdimlp/internal/gateway"
	"lowdimlp/internal/obs"
)

// ErrQueueFull is returned when the job queue is at capacity.
var ErrQueueFull = errors.New("server: job queue full")

// ErrShuttingDown is returned for submissions after Shutdown starts.
var ErrShuttingDown = errors.New("server: shutting down")

// ErrOverloaded is returned when admission control sheds a submission:
// the rows already queued or running exceed the configured budget, so
// accepting more work would only grow latency for everyone. Distinct
// from ErrQueueFull — shedding happens before the queue saturates,
// and the HTTP layer answers 429 with a Retry-After estimate.
var ErrOverloaded = errors.New("server: overloaded, request shed")

// ErrTenantQuota is returned when a submission would push its tenant
// past its own max_active queue quota. Like ErrOverloaded it maps to
// 429 + Retry-After, but it is the tenant hitting its own cap, not the
// service protecting aggregate load — it counts against the tenant's
// throttle series, never against lpserved_jobs_shed_total, and other
// tenants' submissions are unaffected.
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

	// Scheduler-private fields, written once at Submit (shareKey,
	// cost) or while the job runs on exactly one worker (leadKey) —
	// never read concurrently with those writes.
	shareKey string // batch-scheduler grouping key ("" = never batch)
	cost     int64  // row count, the admission controller's unit
	leadKey  string // in-flight coalescing key this job leads ("" = none)

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

// Manager owns the job table, the queue and the worker pool. The
// queue is a slice under mu (not a channel) so a dequeuing worker can
// scoop every queued job that shares the head's instance into one
// scan-shared batch.
type Manager struct {
	cache *Cache
	// basis is the warm-start basis cache; nil disables warm starts.
	// Set before the first job is accepted.
	basis   *BasisCache
	metrics *Metrics
	// fleet is the worker registry serving Fleet requests: the static
	// -workers list seeds it, dynamically registering workers join it,
	// and the elastic solve driver reads live membership from (and
	// reports failures into) it. Nil or empty means fleet solves are
	// refused. Set before the first job is accepted.
	fleet *registry.Registry
	// traces is the bounded ring of captured execution traces (GET
	// /v1/traces); nil disables retention (inline traces still work).
	// Set before the first job is accepted.
	traces *obs.Ring
	// batchMax caps how many same-instance jobs fuse into one
	// scan-shared batch; ≤ 1 disables batching. Set before the first
	// job is accepted.
	batchMax int
	// admitRows (> 0) is the admission budget: total rows queued or
	// running beyond which new submissions are shed. Set before the
	// first job is accepted.
	admitRows int64
	// tenants is the gateway's per-tenant metrics set; its active-jobs
	// gauge doubles as the quota counter (reads and moves are
	// serialized under mu, so quota enforcement is exact). Nil when
	// the gateway is off. Set before the first job is accepted.
	tenants *gateway.Metrics

	// pendingRows tracks the cost of every admitted-but-not-terminal
	// job — the admission controller's load estimate.
	pendingRows atomic.Int64

	// rowsPerSec is an EWMA of solver throughput over genuinely
	// executed solves, feeding the Retry-After estimate.
	rateMu     sync.Mutex
	rowsPerSec float64

	wg sync.WaitGroup

	mu       sync.Mutex
	cond     *sync.Cond // signaled on queue growth and on close
	queue    []*Job     // FIFO; workers pop the head
	queueCap int
	inflight map[string]*Job // digest → running leader (solo coalescing)
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
	m := &Manager{
		cache:    cache,
		metrics:  metrics,
		queueCap: queueDepth,
		inflight: make(map[string]*Job),
		jobs:     make(map[string]*Job),
	}
	m.cond = sync.NewCond(&m.mu)
	return m
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

// Submit validates nothing (the handler already did), assigns an ID
// and enqueues the job. It fails fast — shedding under admission
// pressure, rejecting when the queue is full — rather than blocking
// the HTTP handler.
func (m *Manager) Submit(req *SolveRequest) (*Job, error) {
	// Size the job before taking the lock: counting undecoded inline
	// rows is an O(body) byte scan, and m.mu serializes every submit
	// and status poll. The size doubles as the job's admission cost.
	n := len(req.Rows)
	if req.rawRows != nil {
		// Undecoded inline rows: count without decoding, so queued and
		// failed jobs still report the submitted instance size.
		n = countJSONRows(req.rawRows)
	}
	if req.data != nil {
		n = req.data.Rows()
	}
	if req.Generate != nil {
		n = req.Generate.N
	}
	var share string
	if m.batchMax > 1 {
		share = req.shareKey()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrShuttingDown
	}
	if t := req.tenant; t != nil && m.tenants != nil && t.MaxActive > 0 {
		// Per-tenant queue quota, checked before the global admission
		// budget: a tenant at its own cap is told so (its quota, its
		// throttle series) instead of tripping — or hiding behind — a
		// service-wide shed. Gauge reads and moves both happen under
		// m.mu, so the check is exact, not best-effort.
		if m.tenants.ActiveJobs(t.ID) >= int64(t.MaxActive) {
			m.tenants.Throttled(t.ID)
			return nil, fmt.Errorf("%w: tenant %s at max_active=%d", ErrTenantQuota, t.ID, t.MaxActive)
		}
	}
	if m.admitRows > 0 {
		// Estimated-cost load shedding: refuse when the backlog plus
		// this job would exceed the budget — but never shed into an
		// idle system, however oversized the single request (it would
		// otherwise be undeliverable at any load).
		if pending := m.pendingRows.Load(); pending > 0 && pending+int64(n) > m.admitRows {
			m.metrics.JobsShed.Add(1)
			return nil, ErrOverloaded
		}
	}
	if len(m.queue) >= m.queueCap {
		return nil, ErrQueueFull
	}
	j := &Job{
		ID:       newJobID(),
		Kind:     req.Kind,
		Model:    req.Model,
		N:        n,
		tenant:   req.ns(),
		req:      req,
		Done:     make(chan struct{}),
		state:    StateQueued,
		shareKey: share,
		cost:     int64(n),
	}
	if j.tenant != "" && m.tenants != nil {
		m.tenants.JobStarted(j.tenant)
	}
	m.queue = append(m.queue, j)
	m.pendingRows.Add(j.cost)
	m.metrics.JobsQueued.Add(1)
	m.jobs[j.ID] = j
	m.metrics.JobsSubmitted.Add(1)
	m.cond.Signal()
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
// drain — the Retry-After hint on load-shed responses. It divides the
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

// observeRate feeds the admission controller's throughput estimate:
// an EWMA of rows solved per second over genuinely executed solves —
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
	m.cond.Broadcast()
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

// worker pulls batches off the queue until close-and-drained.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		batch := m.nextBatch()
		if batch == nil {
			return
		}
		m.metrics.JobsRunning.Add(int64(len(batch)))
		if len(batch) == 1 {
			m.run(batch[0])
		} else {
			m.runBatch(batch)
		}
		m.metrics.JobsRunning.Add(int64(-len(batch)))
	}
}

// nextBatch blocks for the queue head, then scoops every queued job
// sharing the head's instance (same shareKey) into one scan-shared
// batch, up to batchMax. Jobs that can't share ride alone. Returns
// nil when the manager is closed and the queue drained.
func (m *Manager) nextBatch() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.queue) == 0 {
		if m.closed {
			return nil
		}
		m.cond.Wait()
	}
	head := m.queue[0]
	m.queue[0] = nil
	m.queue = m.queue[1:]
	batch := []*Job{head}
	if head.shareKey != "" && m.batchMax > 1 {
		kept := m.queue[:0]
		for _, j := range m.queue {
			if len(batch) < m.batchMax && j.shareKey == head.shareKey {
				batch = append(batch, j)
			} else {
				kept = append(kept, j)
			}
		}
		for i := len(kept); i < len(m.queue); i++ {
			m.queue[i] = nil // no stale *Job pins in the backing array
		}
		m.queue = kept
	}
	m.metrics.JobsQueued.Add(int64(-len(batch)))
	return batch
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

// run executes one solo job: cache lookup, in-flight coalescing, warm
// start, solve, cache fill, bookkeeping.
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
	if req.Fleet {
		// Fleet solves: the instance lives on the worker processes, so
		// there is nothing to materialize and nothing to digest — the
		// cache is skipped (the service cannot see the rows it would
		// key on).
		tr.Annotate("fleet", "true")
		fleetKind, out.result, out.stats, out.err = m.runFleet(req)
	} else {
		out = m.runLocal(j, req, tr)
	}
	m.finishJob(j, req, tr, fleetKind, time.Since(start), out, true)
}

// runLocal is the solo non-fleet solve path.
func (m *Manager) runLocal(j *Job, req *SolveRequest, tr *obs.Trace) outcome {
	// solve wraps runSolve in a trace phase; the coordinator's own
	// begin/round/merge spans nest inside it via req.trace.
	solve := func() (*SolveResult, *StatsPayload, any, error) {
		sp := tr.Start("solve")
		result, stats, basis, err := runSolve(req)
		if err != nil {
			sp.EndErr(err, comm.ErrorClass(err))
		} else {
			sp.End()
		}
		return result, stats, basis, err
	}

	digests := m.cache.Enabled() || m.basis.Enabled()
	key := ""
	if req.Generate != nil && digests {
		// Generated instances digest by their spec, before synthesis —
		// a hot ?generate= workload hits the cache (or coalesces onto
		// the in-flight leader) without paying materialization.
		key = req.Digest()
		if out, ok := m.cacheGet(tr, key); ok {
			return out
		}
		if out, joined := m.joinLeader(j, key, tr); joined {
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

	_, spilled := req.data.(interface{ Cleanup() })
	if !digests || spilled {
		// Keying off: hashing a multi-million-row instance for caches
		// that can never hit is pure waste. A spilled instance skips it
		// too: digesting would re-stream the whole on-disk dataset just
		// to key a cache whose hit chance for a one-shot giant upload
		// is nil.
		m.metrics.CacheMisses.Add(1)
		tr.Annotate("cache", "miss")
		result, stats, _, err := solve()
		return outcome{result: result, stats: stats, err: err}
	}
	if key == "" {
		key = req.Digest()
		if out, ok := m.cacheGet(tr, key); ok {
			return out
		}
		if out, joined := m.joinLeader(j, key, tr); joined {
			return out
		}
	}
	m.metrics.CacheMisses.Add(1)
	tr.Annotate("cache", "miss")
	if m.basis.Enabled() {
		if out, ok := m.tryWarm(req, tr); ok {
			return out
		}
	}
	result, stats, basis, err := solve()
	if err == nil {
		m.cache.Put(key, result, stats)
		m.putBasis(req, basis)
	}
	return outcome{result: result, stats: stats, err: err}
}

// cacheGet is the counted, annotated result-cache lookup.
func (m *Manager) cacheGet(tr *obs.Trace, key string) (outcome, bool) {
	result, stats, ok := m.cache.Get(key)
	if !ok {
		return outcome{}, false
	}
	m.metrics.CacheHits.Add(1)
	tr.Annotate("cache", "hit")
	return outcome{result: result, stats: stats, hit: true}, true
}

// joinLeader coalesces duplicate in-flight solves: the first job to
// carry a digest becomes its leader; identical jobs submitted while it
// runs wait for it and copy its outcome instead of re-solving. This
// closes the window the result cache can't — between a solve starting
// and its Put. The copy is bit-identical by construction: equal
// digests mean equal kind, model, canonical options, geometry and
// instance, and solves are deterministic in all of those.
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
	tr.Annotate("coalesced", leader.ID)
	<-leader.Done
	st := leader.Status()
	out := outcome{result: st.Result, stats: st.Stats, coalesced: true}
	if st.Error != "" {
		out.err = errors.New(st.Error)
	}
	return out, true
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
	if basis == nil || !m.basis.Enabled() {
		return
	}
	m.basis.Put(req.warmKey(), basis)
	m.metrics.BasisEntries.Store(int64(m.basis.Len()))
}

// batchUnit is one job moving through runBatch.
type batchUnit struct {
	j      *Job
	req    *SolveRequest
	tr     *obs.Trace
	key    string // result-cache digest ("" when keying is off)
	solver engine.StreamSolver
	span   obs.SpanRef
	dups   []*batchUnit // identical-digest jobs riding this solver
	start  time.Time
}

// runBatch executes a scan-shared batch: jobs over the same instance
// material (equal shareKey) materialize once and stream together —
// each solver iteration of every job rides one shared cursor scan
// (dataset.SharedPass), so k concurrent solves of a hot instance cost
// one materialization and one scan per pass instead of k. Results are
// bit-identical to solo runs: each solver owns its RNG and reservoirs
// and sees the rows in exactly the order a private scan would deliver
// (pinned by TestBatchSharedScanConformance). Jobs whose full digest
// also matches collapse further: one solver runs, the duplicates copy
// its outcome.
func (m *Manager) runBatch(batch []*Job) {
	m.metrics.Batches.Add(1)
	m.metrics.BatchedJobs.Add(int64(len(batch)))

	units := make([]*batchUnit, 0, len(batch))
	for _, j := range batch {
		j.mu.Lock()
		j.state = StateRunning
		req := j.req
		j.mu.Unlock()
		u := &batchUnit{j: j, req: req, start: time.Now()}
		if req.Trace {
			u.tr = obs.New(j.Kind + "/" + j.Model)
			u.tr.Annotate("job", j.ID)
			if j.tenant != "" {
				u.tr.Annotate("tenant", j.tenant)
			}
			u.tr.Annotate("batch", strconv.Itoa(len(batch)))
			req.trace = u.tr
		}
		units = append(units, u)
	}
	digests := m.cache.Enabled() || m.basis.Enabled()

	// Generated instances key by spec, pre-materialization — the same
	// rule the solo path uses, so batch and solo jobs share entries.
	if digests && units[0].req.Generate != nil {
		for _, u := range units {
			u.key = u.req.Digest()
		}
	}

	// The batch leader materializes once; everyone else borrows the
	// columnar store. shareKey equality guarantees the followers'
	// material (same spec or byte-identical rows) would have
	// materialized to the same store.
	lead := units[0]
	isp := lead.tr.Start("ingest")
	if err := materialize(lead.req); err != nil {
		isp.EndErr(err, "")
		for _, u := range units {
			m.finishJob(u.j, u.req, u.tr, "", time.Since(u.start), outcome{err: err}, false)
		}
		return
	}
	isp.End()
	src := lead.req.data
	for _, u := range units[1:] {
		u.tr.Annotate("ingest", "shared")
		u.req.data = src
		u.req.rawRows = nil
		u.req.Rows = nil
		if u.req.Generate != nil {
			u.req.Generate = nil
			u.req.Dim = lead.req.Dim
			u.req.Objective = lead.req.Objective
		}
	}
	if digests {
		// One hash of the store covers the whole batch: seed every
		// follower's instance-digest memo from the leader's.
		rk := lead.req.instanceDigest()
		for _, u := range units {
			u.req.rowsKeyMemo = rk
			if u.key == "" {
				u.key = u.req.Digest()
			}
		}
	}

	// Triage: cache hits finish now, duplicate digests attach to the
	// first job that carries them, the rest get a pass-at-a-time
	// solver. Warm starts are skipped inside batches — the shared scan
	// already amortizes the passes a warm start would save.
	var active []*batchUnit
	seen := make(map[string]*batchUnit)
	for _, u := range units {
		if u.key != "" {
			if out, ok := m.cacheGet(u.tr, u.key); ok {
				m.finishJob(u.j, u.req, u.tr, "", time.Since(u.start), out, false)
				continue
			}
			if first, dup := seen[u.key]; dup {
				m.metrics.SolveCoalesced.Add(1)
				u.tr.Annotate("coalesced", first.j.ID)
				first.dups = append(first.dups, u)
				continue
			}
			seen[u.key] = u
		}
		m.metrics.CacheMisses.Add(1)
		u.tr.Annotate("cache", "miss")
		mdl, err := u.req.model()
		if err != nil {
			m.finishJob(u.j, u.req, u.tr, "", time.Since(u.start), outcome{err: err}, false)
			continue
		}
		solver, err := mdl.NewStreamSolver(u.req.Dim, u.req.Objective, src.Rows(), u.req.Options.lib())
		if err != nil {
			m.finishJob(u.j, u.req, u.tr, "", time.Since(u.start), outcome{err: err}, false)
			continue
		}
		u.solver = solver
		u.span = u.tr.Start("batch")
		active = append(active, u)
	}

	// The shared scan: every still-running solver arms a pass, one
	// cursor sweep feeds them all, and solvers retire as they finish.
	if len(active) > 0 {
		cur := src.NewCursor()
		rows := make([]dataset.Row, dataset.DefaultBatchRows)
		sinks := make([]dataset.BlockSink, 0, len(active))
		running := active
		var scanErr error
		for len(running) > 0 && scanErr == nil {
			sinks = sinks[:0]
			for _, u := range running {
				u.solver.BeginPass()
				sinks = append(sinks, u.solver)
			}
			if _, err := dataset.SharedPass(cur, rows, sinks...); err != nil {
				scanErr = err
				break
			}
			m.metrics.SharedPasses.Add(1)
			next := running[:0]
			for _, u := range running {
				u.solver.EndPass() // terminal errors surface via Result
				if !u.solver.Done() {
					next = append(next, u)
					continue
				}
				m.finishBatchUnit(u)
			}
			running = next
		}
		dataset.CloseCursor(cur)
		if scanErr != nil {
			for _, u := range running {
				u.span.EndErr(scanErr, "")
				m.finishJob(u.j, u.req, u.tr, "", time.Since(u.start), outcome{err: scanErr}, false)
				for _, d := range u.dups {
					m.finishJob(d.j, d.req, d.tr, "", time.Since(d.start), outcome{err: scanErr, coalesced: true}, false)
				}
			}
		}
	}

	// The shared store dies with the batch (spilled sources never
	// batch — uploads are single-use — but stay defensive).
	if c, ok := src.(interface{ Cleanup() }); ok {
		c.Cleanup()
	}
}

// finishBatchUnit renders one finished batch solver, fills the caches
// and terminates the job plus any duplicates riding it.
func (m *Manager) finishBatchUnit(u *batchUnit) {
	sol, stats, err := u.solver.Result()
	out := outcome{err: err}
	if err != nil {
		u.span.EndErr(err, comm.ErrorClass(err))
	} else {
		u.span.End()
		s := sol
		st := stats
		out.result = &s
		out.stats = &st
		if u.key != "" {
			m.cache.Put(u.key, out.result, out.stats)
			m.putBasis(u.req, u.solver.Basis())
		}
	}
	m.finishJob(u.j, u.req, u.tr, "", time.Since(u.start), out, false)
	for _, d := range u.dups {
		dout := outcome{result: out.result, stats: out.stats, err: out.err, coalesced: true}
		m.finishJob(d.j, d.req, d.tr, "", time.Since(d.start), dout, false)
	}
}

// finishJob records a job's terminal state: latency and throughput
// observation, trace finalization, status fields, instance release
// and coalescing-leader retirement.
func (m *Manager) finishJob(j *Job, req *SolveRequest, tr *obs.Trace, fleetKind string, elapsed time.Duration, out outcome, cleanup bool) {
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
		if m.traces != nil {
			m.traces.Add(d)
		}
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
	// A spilled instance owns on-disk shard files; the job is terminal,
	// so nothing will read them again. Batched jobs share their store —
	// runBatch cleans it up once, after every rider finished.
	if cleanup {
		if c, ok := req.data.(interface{ Cleanup() }); ok {
			c.Cleanup()
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
	opt := req.Options.lib()
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
