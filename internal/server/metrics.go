package server

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lowdimlp/internal/comm"
	"lowdimlp/internal/comm/httptransport"
	"lowdimlp/internal/comm/registry"
	"lowdimlp/internal/gateway"
	"lowdimlp/internal/kernel"
)

// solveBuckets are the fixed lpserved_solve_seconds histogram bounds.
// They span sub-millisecond in-memory solves to multi-minute
// out-of-core fleet runs in roughly ×2.5 steps, so a scraper can read
// p99 off the cumulative buckets without the service keeping samples.
var solveBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Metrics aggregates service counters for the /metrics endpoint.
// Counters are atomics; the latency histogram is mutex-guarded.
type Metrics struct {
	JobsSubmitted atomic.Int64
	JobsQueued    atomic.Int64 // gauge: currently waiting
	JobsRunning   atomic.Int64 // gauge: currently executing
	JobsDone      atomic.Int64
	JobsFailed    atomic.Int64
	CacheHits     atomic.Int64
	CacheMisses   atomic.Int64
	// SolveCoalesced counts jobs that copied an identical in-flight
	// job's result instead of solving — distinct from cache hits, which
	// are served from already-completed solves.
	SolveCoalesced atomic.Int64
	// WarmHits and WarmMisses count warm-start verification outcomes:
	// a hit re-verified a cached basis in one scan; a miss is a cached
	// basis that failed re-verification. A simply-absent basis counts
	// neither.
	WarmHits   atomic.Int64
	WarmMisses atomic.Int64
	// BasisEntries gauges the warm-start basis cache population.
	BasisEntries atomic.Int64
	// InstancesExpired counts chunk uploads reclaimed by the idle
	// sweeper.
	InstancesExpired atomic.Int64
	// InstancesRejected counts instance-create refusals at the
	// in-flight upload limit (HTTP 429 + Retry-After).
	InstancesRejected atomic.Int64
	// BinaryAppends counts application/octet-stream chunk appends.
	BinaryAppends atomic.Int64
	// FleetSolves counts solves driven over the worker fleet.
	FleetSolves atomic.Int64
	// FleetRetries counts full protocol restarts after a worker died
	// mid-solve (the elastic failover path). One failed-and-recovered
	// solve adds at least 1; a solve that succeeded first try adds 0.
	FleetRetries atomic.Int64
	// TracesCaptured counts solves that recorded an execution trace.
	TracesCaptured atomic.Int64

	// Fleet collects per-exchange latency/error counters from the
	// worker-fleet transport (runFleet passes it in the transport
	// options); its families render alongside the service's own.
	Fleet *httptransport.Metrics

	// Tenants is the gateway's per-tenant counter set; nil when the
	// gateway is off (the lpserved_tenant_* families are then absent
	// from the exposition entirely, which is how lpstat knows
	// multi-tenancy is not configured).
	Tenants *gateway.Metrics

	// FleetRegistry, when set, renders live fleet-membership gauges
	// (members by state, epoch, membership changes) into the
	// exposition. Nil (a metrics set with no registry) renders the
	// families with zeros so the series stay stable.
	FleetRegistry *registry.Registry

	mu           sync.Mutex
	solveCount   map[string]int64   // kind/model → solves
	solveSeconds map[string]float64 // kind/model → total latency
	solveHist    map[string][]int64 // kind/model → per-bucket counts (non-cumulative)
}

// NewMetrics returns an empty metrics set.
func NewMetrics() *Metrics {
	return &Metrics{
		Fleet:        httptransport.NewMetrics(),
		solveCount:   make(map[string]int64),
		solveSeconds: make(map[string]float64),
		solveHist:    make(map[string][]int64),
	}
}

// ObserveSolve records one completed solve's latency under the
// kind/model label.
func (m *Metrics) ObserveSolve(kind, model string, d time.Duration) {
	key := kind + "/" + model
	s := d.Seconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.solveCount[key]++
	m.solveSeconds[key] += s
	h := m.solveHist[key]
	if h == nil {
		// One extra slot for the +Inf overflow bucket.
		h = make([]int64, len(solveBuckets)+1)
		m.solveHist[key] = h
	}
	i := sort.SearchFloat64s(solveBuckets, s) // first bound ≥ s
	h[i]++
}

// fmtF renders a float sample the way Prometheus expects: shortest
// round-trip decimal ("0.0025", not "2.5e-03").
func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Render writes the metrics in Prometheus text exposition format.
func (m *Metrics) Render(w io.Writer) {
	g := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	c := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	c("lpserved_jobs_submitted_total", "Jobs accepted by the service.", m.JobsSubmitted.Load())
	g("lpserved_jobs_queued", "Jobs waiting in the queue.", m.JobsQueued.Load())
	g("lpserved_jobs_running", "Jobs currently executing.", m.JobsRunning.Load())
	c("lpserved_jobs_done_total", "Jobs completed successfully.", m.JobsDone.Load())
	c("lpserved_jobs_failed_total", "Jobs that ended in an error.", m.JobsFailed.Load())
	c("lpserved_cache_hits_total", "Result-cache hits.", m.CacheHits.Load())
	c("lpserved_cache_misses_total", "Result-cache misses.", m.CacheMisses.Load())
	c("lpserved_solve_coalesced_total", "Jobs that copied an identical in-flight job's result instead of solving.", m.SolveCoalesced.Load())
	c("lpserved_warm_hits_total", "Warm starts that re-verified a cached basis.", m.WarmHits.Load())
	c("lpserved_warm_misses_total", "Cached bases that failed warm-start re-verification.", m.WarmMisses.Load())
	g("lpserved_basis_entries", "Bases currently held by the warm-start cache.", m.BasisEntries.Load())
	c("lpserved_instances_expired_total", "Chunk uploads reclaimed by the idle sweeper.", m.InstancesExpired.Load())
	c("lpserved_instances_rejected_total", "Instance creations refused at the in-flight upload limit (429 + Retry-After).", m.InstancesRejected.Load())
	c("lpserved_binary_appends_total", "Binary (octet-stream) chunk appends.", m.BinaryAppends.Load())
	c("lpserved_fleet_solves_total", "Solves driven over the worker fleet.", m.FleetSolves.Load())
	c("lpserved_traces_captured_total", "Solves that recorded an execution trace.", m.TracesCaptured.Load())

	m.renderKernel(w)
	m.renderFleet(w)
	if m.Tenants != nil {
		m.Tenants.Render(w)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	keys := make([]string, 0, len(m.solveCount))
	for k := range m.solveCount {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// Histogram: cumulative fixed buckets so p99 is scrapeable straight
	// off the text format. It is the one latency family: a histogram may
	// only carry _bucket/_sum/_count samples (strict OpenMetrics parsers
	// reject anything else under the TYPE line), and the buckets already
	// bound the slowest solve.
	fmt.Fprintf(w, "# HELP lpserved_solve_seconds Solve wall-clock latency by kind/model.\n# TYPE lpserved_solve_seconds histogram\n")
	for _, k := range keys {
		kind, model, _ := strings.Cut(k, "/")
		var cum int64
		for i, bound := range solveBuckets {
			cum += m.solveHist[k][i]
			fmt.Fprintf(w, "lpserved_solve_seconds_bucket{kind=%q,model=%q,le=%q} %d\n",
				kind, model, fmtF(bound), cum)
		}
		fmt.Fprintf(w, "lpserved_solve_seconds_bucket{kind=%q,model=%q,le=\"+Inf\"} %d\n",
			kind, model, m.solveCount[k])
		fmt.Fprintf(w, "lpserved_solve_seconds_sum{kind=%q,model=%q} %s\n", kind, model, fmtF(m.solveSeconds[k]))
		fmt.Fprintf(w, "lpserved_solve_seconds_count{kind=%q,model=%q} %d\n", kind, model, m.solveCount[k])
	}
}

// renderKernel writes the block-kernel layer's process-wide counters
// (internal/kernel): block evaluations by kernel class, and rows
// evaluated through block scans. Every class renders from the first
// scrape, zeros included, so scrapers see stable series.
func (m *Metrics) renderKernel(w io.Writer) {
	fmt.Fprintf(w, "# HELP lpserved_kernel_blocks_total Block violation-kernel invocations by kernel class.\n# TYPE lpserved_kernel_blocks_total counter\n")
	for _, c := range kernel.Classes() {
		fmt.Fprintf(w, "lpserved_kernel_blocks_total{kernel=%q} %d\n", c, kernel.Blocks(c))
	}
	fmt.Fprintf(w, "# HELP lpserved_kernel_rows_total Rows evaluated through block violation scans.\n# TYPE lpserved_kernel_rows_total counter\nlpserved_kernel_rows_total %d\n", kernel.Rows())
}

// renderFleet writes the worker-fleet transport families. Error
// counters render one sample per known class, zeros included, so
// scrapers see stable series and rate() works from the first error.
func (m *Metrics) renderFleet(w io.Writer) {
	snap := m.Fleet.Snapshot()
	fmt.Fprintf(w, "# HELP lpserved_fleet_exchanges_total Worker protocol exchanges attempted by the fleet transport.\n# TYPE lpserved_fleet_exchanges_total counter\nlpserved_fleet_exchanges_total %d\n", snap.Exchanges)
	fmt.Fprintf(w, "# HELP lpserved_fleet_exchange_errors_total Failed fleet exchanges by error class.\n# TYPE lpserved_fleet_exchange_errors_total counter\n")
	for _, class := range comm.ErrorClasses() {
		fmt.Fprintf(w, "lpserved_fleet_exchange_errors_total{class=%q} %d\n", class, snap.Errors[class])
	}
	fmt.Fprintf(w, "# HELP lpserved_fleet_exchange_seconds Fleet exchange latency.\n# TYPE lpserved_fleet_exchange_seconds summary\n")
	fmt.Fprintf(w, "lpserved_fleet_exchange_seconds_sum %s\n", fmtF(snap.Seconds))
	fmt.Fprintf(w, "lpserved_fleet_exchange_seconds_count %d\n", snap.Exchanges)
	fmt.Fprintf(w, "# HELP lpserved_fleet_exchange_seconds_max Slowest single fleet exchange.\n# TYPE lpserved_fleet_exchange_seconds_max gauge\nlpserved_fleet_exchange_seconds_max %s\n", fmtF(snap.MaxSeconds))

	fmt.Fprintf(w, "# HELP lpserved_fleet_solve_retries_total Full protocol restarts after a worker died mid-solve.\n# TYPE lpserved_fleet_solve_retries_total counter\nlpserved_fleet_solve_retries_total %d\n", m.FleetRetries.Load())
	var live, draining, down int
	var epoch, changes uint64
	if m.FleetRegistry != nil {
		live, draining, down = m.FleetRegistry.Counts()
		epoch, changes = m.FleetRegistry.Epoch(), m.FleetRegistry.Changes()
	}
	fmt.Fprintf(w, "# HELP lpserved_fleet_members Registered fleet members by state.\n# TYPE lpserved_fleet_members gauge\n")
	fmt.Fprintf(w, "lpserved_fleet_members{state=\"live\"} %d\n", live)
	fmt.Fprintf(w, "lpserved_fleet_members{state=\"draining\"} %d\n", draining)
	fmt.Fprintf(w, "lpserved_fleet_members{state=\"down\"} %d\n", down)
	fmt.Fprintf(w, "# HELP lpserved_fleet_epoch Fleet membership epoch (bumps on every membership change).\n# TYPE lpserved_fleet_epoch gauge\nlpserved_fleet_epoch %d\n", epoch)
	fmt.Fprintf(w, "# HELP lpserved_fleet_membership_changes_total Fleet membership changes (joins, failures, drains, departures).\n# TYPE lpserved_fleet_membership_changes_total counter\nlpserved_fleet_membership_changes_total %d\n", changes)
}
