// Package obs is the zero-dependency observability substrate: a
// span/trace recorder for solve paths and a bounded ring buffer for
// captured traces.
//
// The paper's central object is communication cost, and PR 5 made the
// coordinator a real networked system whose metered bytes are pinned
// to Theorem 2's accounting — but those per-round, per-site numbers
// were invisible at runtime. A Trace makes one solve's execution
// structure visible: phases (ingest, scan, rounds, merge, finalize)
// with wall-clock, per-site exchange spans carrying the exact byte
// counts charged to the comm.Meter, and typed error annotations.
//
// # Zero cost when disabled
//
// A nil *Trace is the disabled recorder: every method is nil-safe and
// returns immediately without allocating, so instrumented code calls
// unconditionally and a solve with tracing off pays nothing
// (TestNilTraceAllocs pins 0 allocs). Tracing never changes what a
// solve computes — instrumentation only observes values that already
// exist (the conformance suite pins bit-identical solutions and
// metered bytes with tracing on).
//
// A Trace is safe for concurrent use: every mutation and Data's
// snapshot take its mutex, so spans may be recorded from several
// goroutines, or a trace rendered while another goroutine still writes
// it, without the caller coordinating. Each solve records from one
// goroutine today, so the lock is uncontended. Rendering (Data)
// produces a plain JSON-marshalable snapshot.
package obs

import (
	"sync"
	"time"
)

// Span is one recorded interval inside a trace. Offsets are
// microseconds from the trace start, so a rendered trace is
// self-contained.
type Span struct {
	// Name labels the span ("ingest", "round-a", "merge", …).
	Name string `json:"name"`
	// Site is the coordinator site index for per-site exchange spans,
	// -1 for phase spans.
	Site int `json:"site"`
	// Round is the 1-based communication round for exchange spans, 0
	// for phase spans.
	Round int `json:"round,omitempty"`
	// StartUS is the span's start offset in microseconds.
	StartUS int64 `json:"start_us"`
	// DurUS is the span's duration in microseconds.
	DurUS int64 `json:"dur_us"`
	// Bytes is the protocol bytes that flew during the span — the same
	// values charged to the comm.Meter, so a trace's per-site totals
	// reconcile with the solve's Stats.
	Bytes int64 `json:"bytes,omitempty"`
	// Err and ErrClass annotate a failed span (ErrClass is a
	// comm.ErrorClass value for transport failures).
	Err      string `json:"error,omitempty"`
	ErrClass string `json:"error_class,omitempty"`
}

// Trace records one solve's spans. The zero value is not usable; use
// New. A nil *Trace is the disabled recorder (all methods no-op).
type Trace struct {
	name  string
	start time.Time

	mu    sync.Mutex
	spans []Span
	err   string
	class string
	attrs map[string]string
}

// SpanRef names an open span inside its trace. The zero value (and
// any ref from a nil trace) is inert.
type SpanRef struct {
	t   *Trace
	idx int
}

// New starts a trace. The name labels what is being traced (a job ID,
// a backend name).
func New(name string) *Trace {
	return &Trace{name: name, start: time.Now()}
}

// Enabled reports whether the trace records anything.
func (t *Trace) Enabled() bool { return t != nil }

// since returns the offset of now from the trace start in µs.
func (t *Trace) since() int64 { return time.Since(t.start).Microseconds() }

// Start opens a phase span (no site, no round).
func (t *Trace) Start(name string) SpanRef { return t.StartSite(name, -1, 0) }

// StartSite opens a per-site exchange span for the given round.
func (t *Trace) StartSite(name string, site, round int) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	start := t.since()
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Site: site, Round: round, StartUS: start})
	idx := len(t.spans) - 1
	t.mu.Unlock()
	return SpanRef{t: t, idx: idx}
}

// End closes the span.
func (s SpanRef) End() { s.close(0, nil, "") }

// EndBytes closes the span recording the protocol bytes it carried.
func (s SpanRef) EndBytes(bytes int64) { s.close(bytes, nil, "") }

// EndErr closes the span recording a failure (class may be empty; use
// a comm.ErrorClass value for transport failures).
func (s SpanRef) EndErr(err error, class string) { s.close(0, err, class) }

func (s SpanRef) close(bytes int64, err error, class string) {
	t := s.t
	if t == nil {
		return
	}
	end := t.since()
	t.mu.Lock()
	sp := &t.spans[s.idx]
	sp.DurUS = end - sp.StartUS
	sp.Bytes += bytes
	if err != nil {
		sp.Err = err.Error()
		sp.ErrClass = class
	}
	t.mu.Unlock()
}

// Fail records the trace-level error (the one the solve returned).
func (t *Trace) Fail(err error, class string) {
	if t == nil || err == nil {
		return
	}
	t.mu.Lock()
	t.err = err.Error()
	t.class = class
	t.mu.Unlock()
}

// Annotate attaches a key/value attribute to the trace (kind, model,
// cache outcome, …).
func (t *Trace) Annotate(key, value string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.attrs == nil {
		t.attrs = make(map[string]string)
	}
	t.attrs[key] = value
	t.mu.Unlock()
}

// SiteBytes is one site's byte totals as seen by the trace's exchange
// spans.
type SiteBytes struct {
	Site  int   `json:"site"`
	Bytes int64 `json:"bytes"`
}

// TraceData is a rendered trace: a plain struct that marshals to the
// wire form served by GET /v1/traces and inlined by ?trace=1.
type TraceData struct {
	Name  string `json:"name"`
	Start string `json:"start"` // RFC 3339 with nanoseconds
	// DurUS is the whole trace's duration at render time.
	DurUS int64  `json:"dur_us"`
	Spans []Span `json:"spans"`
	// PerSite aggregates exchange-span bytes by site — the trace-level
	// view of the comm.Meter's accounting.
	PerSite  []SiteBytes       `json:"per_site,omitempty"`
	Err      string            `json:"error,omitempty"`
	ErrClass string            `json:"error_class,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// Data renders the trace. Safe to call while spans are still being
// recorded (it snapshots under the lock); the usual call is once, when
// the solve finishes. Returns the zero TraceData for a nil trace.
func (t *Trace) Data() TraceData {
	if t == nil {
		return TraceData{}
	}
	dur := t.since()
	t.mu.Lock()
	defer t.mu.Unlock()
	d := TraceData{
		Name:     t.name,
		Start:    t.start.Format(time.RFC3339Nano),
		DurUS:    dur,
		Spans:    append([]Span(nil), t.spans...),
		Err:      t.err,
		ErrClass: t.class,
	}
	if len(t.attrs) > 0 {
		d.Attrs = make(map[string]string, len(t.attrs))
		for k, v := range t.attrs {
			d.Attrs[k] = v
		}
	}
	maxSite := -1
	for _, sp := range t.spans {
		if sp.Site > maxSite {
			maxSite = sp.Site
		}
	}
	if maxSite >= 0 {
		totals := make([]int64, maxSite+1)
		for _, sp := range t.spans {
			if sp.Site >= 0 {
				totals[sp.Site] += sp.Bytes
			}
		}
		d.PerSite = make([]SiteBytes, len(totals))
		for i, b := range totals {
			d.PerSite[i] = SiteBytes{Site: i, Bytes: b}
		}
	}
	return d
}
