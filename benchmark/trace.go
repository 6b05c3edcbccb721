package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"lowdimlp/internal/comm"
	"lowdimlp/internal/engine"
	"lowdimlp/internal/kernel"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/models"
	"lowdimlp/internal/sea"
)

// Outside-in tracing: the benchmark records a span around each call it
// makes into a module's public functions — never from inside the
// program under test. One traced op produces the tree
//
//	op → {open, solve → {Domain.Solve…, scan…, exchange…}}
//
// where "scan" is a run of consecutive ViolatesBlock calls merged into
// one span (a 100k-row pass makes ~400 block calls per stored basis;
// keeping each would bury the file). A merged span keeps the number of
// calls and their summed duration (BusyUS), and self times are taken
// from BusyUS, not from the merged interval, which also contains the
// driver's own work between blocks.

// span is one timed interval of a traced op. Times are microseconds
// since the tracer's epoch.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 = root of its op
	Op      int     `json:"op"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	// BusyUS is the time actually spent inside the traced calls; it
	// equals EndUS−StartUS except for merged "scan" spans.
	BusyUS float64 `json:"busy_us"`
	Calls  int     `json:"calls,omitempty"`
	Items  int64   `json:"items,omitempty"` // constraints (Domain.Solve) or rows (scan)
	Bytes  int64   `json:"bytes,omitempty"` // payload bytes (exchange)
}

// tracer keeps every span of a traced run in memory until dump.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	nextID int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.epoch).Nanoseconds()) / 1e3 }

// add appends a finished span and returns its id.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	s.ID = t.nextID
	t.spans = append(t.spans, s)
	return s.ID
}

// reserve hands out an id for a span that will be added once its
// children are known (parents finish after their children).
func (t *tracer) reserve() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

func (t *tracer) addWithID(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
}

// traceFile is the on-disk form of a traced run.
type traceFile struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Epoch    string   `json:"epoch"`
	Note     string   `json:"note"`
	Ops      []opSelf `json:"ops"`
	Spans    []span   `json:"spans"`
}

// opSelf is one op's self-time breakdown: a layer's self time is its
// span minus the busy time of its children, so the parts sum to the op.
type opSelf struct {
	Op      int                `json:"op"`
	Cell    string             `json:"cell"`
	OpUS    float64            `json:"op_us"`
	SelfUS  map[string]float64 `json:"self_us"`
	SumFrac float64            `json:"sum_over_op"` // Σ self ÷ op span
}

const traceNote = "spans are recorded by the benchmark around its calls into each module " +
	"(outside-in); 'scan' spans merge consecutive ViolatesBlock calls and carry their " +
	"summed duration in busy_us; self time = span busy − Σ children busy"

func (t *tracer) dump(path, workload string, seed uint64, ops []opSelf) error {
	t.mu.Lock()
	tf := traceFile{
		Workload: workload, Seed: seed, Note: traceNote,
		Epoch: t.epoch.Format(time.RFC3339Nano), Ops: ops, Spans: t.spans,
	}
	t.mu.Unlock()
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// opRec accumulates one traced op: the layer totals the per-layer
// metrics are built from, plus the op's spans. Domain calls may arrive
// from several goroutines (coordinator sites under Options.Parallel),
// so every update takes the lock.
type opRec struct {
	t      *tracer
	op     int
	parent int // span id the domain/transport calls hang under

	mu                          sync.Mutex
	scan                        *span // open merged scan span, nil when none
	basisNS, scanNS, exchangeNS int64
	basisCalls, basisItems      int64
	scanBlocks, scanRows        int64
	exchanges, exchangeBytes    int64
	exchangeMS                  []float64
}

func (r *opRec) closeScanLocked() {
	if r.scan != nil {
		r.t.add(*r.scan)
		r.scan = nil
	}
}

func (r *opRec) addSolve(start time.Time, d time.Duration, items int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closeScanLocked()
	r.basisNS += int64(d)
	r.basisCalls++
	r.basisItems += int64(items)
	s := r.t.us(start)
	r.t.add(span{Parent: r.parent, Op: r.op, Name: "Domain.Solve", StartUS: s,
		EndUS: s + float64(d)/1e3, BusyUS: float64(d) / 1e3, Calls: 1, Items: int64(items)})
}

func (r *opRec) addScan(start time.Time, d time.Duration, rows int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.scanNS += int64(d)
	r.scanBlocks++
	r.scanRows += int64(rows)
	s := r.t.us(start)
	if r.scan == nil {
		r.scan = &span{Parent: r.parent, Op: r.op, Name: "scan", StartUS: s}
	}
	r.scan.EndUS = s + float64(d)/1e3
	r.scan.BusyUS += float64(d) / 1e3
	r.scan.Calls++
	r.scan.Items += int64(rows)
}

func (r *opRec) addExchange(name string, start time.Time, d time.Duration, bytes int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closeScanLocked()
	r.exchangeNS += int64(d)
	r.exchanges++
	r.exchangeBytes += int64(bytes)
	r.exchangeMS = append(r.exchangeMS, float64(d)/1e6)
	s := r.t.us(start)
	r.t.add(span{Parent: r.parent, Op: r.op, Name: name, StartUS: s,
		EndUS: s + float64(d)/1e3, BusyUS: float64(d) / 1e3, Calls: 1, Bytes: int64(bytes)})
}

// finish closes any open merged span; call once the op's solve returns.
func (r *opRec) finish() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closeScanLocked()
}

// timedDomain forwards an LP-type domain and times the two primitives
// the paper builds everything from: basis computation (Solve) and
// block violation tests. It forwards RowViolator and BlockViolator, so
// lptype.NewRowAccess selects the domain's block kernels exactly as it
// does for the bare domain. Per-row Violates/ViolatesRow pass through
// untimed: two clock reads per row would cost more than the test.
type timedDomain[C, B any] struct {
	lptype.Domain[C, B]
	block lptype.BlockViolator[B]
	rec   *opRec
}

func (d *timedDomain[C, B]) Solve(cs []C) (B, error) {
	t0 := time.Now()
	b, err := d.Domain.Solve(cs)
	d.rec.addSolve(t0, time.Since(t0), len(cs))
	return b, err
}

func (d *timedDomain[C, B]) ViolatesRow(b B, row []float64) bool {
	return d.block.ViolatesRow(b, row)
}

func (d *timedDomain[C, B]) ViolatesBlock(b B, rows [][]float64, idx []int32) []int32 {
	t0 := time.Now()
	idx = d.block.ViolatesBlock(b, rows, idx)
	d.rec.addScan(t0, time.Since(t0), len(rows))
	return idx
}

func (d *timedDomain[C, B]) BlockKernel() kernel.Class { return d.block.BlockKernel() }

// solveOnlyDomain is the wrapper for a domain without block kernels:
// only Solve is timed, and the type has no ViolatesBlock, so
// NewRowAccess keeps the per-row path it would pick for the bare domain.
type solveOnlyDomain[C, B any] struct {
	lptype.Domain[C, B]
	rec *opRec
}

func (d *solveOnlyDomain[C, B]) Solve(cs []C) (B, error) {
	t0 := time.Now()
	b, err := d.Domain.Solve(cs)
	d.rec.addSolve(t0, time.Since(t0), len(cs))
	return b, err
}

func wrapDomain[C, B any](dom lptype.Domain[C, B], rec *opRec) lptype.Domain[C, B] {
	if bv, ok := dom.(lptype.BlockViolator[B]); ok {
		return &timedDomain[C, B]{Domain: dom, block: bv, rec: rec}
	}
	return &solveOnlyDomain[C, B]{Domain: dom, rec: rec}
}

// timedSpec returns a copy of the kind's registry entry whose domains
// are wrapped: every engine dispatcher (SolveInstance, SolveSource,
// SolveTransport) then runs unchanged — same seeds, same code path as
// engine/dispatch.go — over the timing domain.
func timedSpec[P, C, B any](s *engine.Spec[P, C, B], rec *opRec) engine.Model {
	ts := *s
	ts.NewDomain = func(p P, seed uint64) lptype.Domain[C, B] {
		return wrapDomain(s.NewDomain(p, seed), rec)
	}
	return &ts
}

// timedModel is timedSpec for a kind named at run time.
func timedModel(kind string, rec *opRec) (engine.Model, error) {
	switch kind {
	case "lp":
		return timedSpec(models.LP, rec), nil
	case "svm":
		return timedSpec(models.SVM, rec), nil
	case "meb":
		return timedSpec(models.MEB, rec), nil
	case "sea":
		return timedSpec(sea.Spec, rec), nil
	}
	return nil, fmt.Errorf("lpmark: no timing wrapper for kind %q", kind)
}

// timedTransport forwards a comm.Transport and times every exchange
// the coordinator driver makes with its sites.
type timedTransport struct {
	comm.Transport
	rec *opRec
}

func (t *timedTransport) Begin(seed uint64, mult float64) error {
	t0 := time.Now()
	err := t.Transport.Begin(seed, mult)
	t.rec.addExchange("exchange:begin", t0, time.Since(t0), 0)
	return err
}

func (t *timedTransport) RoundTrip(site int, typ comm.FrameType, payload []byte) ([]byte, error) {
	t0 := time.Now()
	rep, err := t.Transport.RoundTrip(site, typ, payload)
	t.rec.addExchange("exchange", t0, time.Since(t0), len(payload)+len(rep))
	return rep, err
}

func (t *timedTransport) Close() error {
	t0 := time.Now()
	err := t.Transport.Close()
	t.rec.addExchange("exchange:end", t0, time.Since(t0), 0)
	return err
}
