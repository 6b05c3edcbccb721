package gateway

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Metrics holds the gateway's per-tenant counters. Every configured
// tenant renders from the first scrape, zeros included, so scrapers
// see stable series and the lpstat doctor can key on a tenant before
// it has sent traffic (the repo-wide zero-fill convention).
type Metrics struct {
	// Unauthorized counts requests refused 401 — by definition they
	// carry no (valid) tenant, so the counter is unlabelled.
	Unauthorized atomic.Int64

	mu        sync.Mutex
	requests  map[string]int64 // tenant → authenticated requests
	throttled map[string]int64 // tenant → rate/quota refusals (429)
	active    map[string]int64 // tenant → jobs queued or running (gauge)
	ids       []string
}

// NewMetrics returns a metrics set zero-filled over the given tenant
// universe.
func NewMetrics(ids []string) *Metrics {
	m := &Metrics{
		requests:  make(map[string]int64, len(ids)),
		throttled: make(map[string]int64, len(ids)),
		active:    make(map[string]int64, len(ids)),
		ids:       append([]string(nil), ids...),
	}
	sort.Strings(m.ids)
	for _, id := range m.ids {
		m.requests[id] = 0
		m.throttled[id] = 0
		m.active[id] = 0
	}
	return m
}

// Request counts one authenticated request for tenant id.
func (m *Metrics) Request(id string) {
	m.mu.Lock()
	m.requests[id]++
	m.mu.Unlock()
}

// Throttled counts one per-tenant 429 — a rate-limit or queue-quota
// refusal: one tenant hitting its own cap.
func (m *Metrics) Throttled(id string) {
	m.mu.Lock()
	m.throttled[id]++
	m.mu.Unlock()
}

// JobStarted / JobFinished move the tenant's active-jobs gauge as jobs
// enter and leave the queue+run pipeline.
func (m *Metrics) JobStarted(id string) {
	m.mu.Lock()
	m.active[id]++
	m.mu.Unlock()
}

func (m *Metrics) JobFinished(id string) {
	m.mu.Lock()
	m.active[id]--
	m.mu.Unlock()
}

// ActiveJobs reads the tenant's gauge (used by quota checks).
func (m *Metrics) ActiveJobs(id string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.active[id]
}

// Render writes the tenant families in Prometheus text exposition
// format, matching the server's hand-rendered style.
func (m *Metrics) Render(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	fmt.Fprintf(w, "# HELP lpserved_tenant_requests_total Authenticated API requests by tenant.\n# TYPE lpserved_tenant_requests_total counter\n")
	for _, id := range m.ids {
		fmt.Fprintf(w, "lpserved_tenant_requests_total{tenant=%q} %d\n", id, m.requests[id])
	}
	fmt.Fprintf(w, "# HELP lpserved_tenant_throttled_total Requests refused by per-tenant rate limits or queue quotas (429 + Retry-After).\n# TYPE lpserved_tenant_throttled_total counter\n")
	for _, id := range m.ids {
		fmt.Fprintf(w, "lpserved_tenant_throttled_total{tenant=%q} %d\n", id, m.throttled[id])
	}
	fmt.Fprintf(w, "# HELP lpserved_tenant_active_jobs Jobs queued or running by tenant.\n# TYPE lpserved_tenant_active_jobs gauge\n")
	for _, id := range m.ids {
		fmt.Fprintf(w, "lpserved_tenant_active_jobs{tenant=%q} %d\n", id, m.active[id])
	}
	fmt.Fprintf(w, "# HELP lpserved_tenant_unauthorized_total Requests refused 401 (missing or invalid bearer key).\n# TYPE lpserved_tenant_unauthorized_total counter\nlpserved_tenant_unauthorized_total %d\n", m.Unauthorized.Load())
}
