package main

import (
	"encoding/json"
	"time"
)

// The catalogue: every workload and metric lpmark knows, in the order
// they are printed. BENCHMARK.json at the repository root is this
// catalogue rendered by `lpmark manifest` (a test keeps them equal).

const (
	defaultSeed = 20190313
	// runSeconds is the timed part of one run. The acceptance driver
	// makes 4 + 22×4 = 92 runs inside 3420 s, so a run — three set-ups
	// plus the timed part — has to stay near 30 s.
	runSeconds = 20
	// opDeadline: an op still running after this long counts as failed
	// and its child is killed (library solves cannot be cancelled).
	opDeadline = 20 * time.Second
	// setupRepeats: each run sets the workload up this many times and
	// reports the median as setup_s; the last set-up is the one used.
	setupRepeats = 3
	// serveRate is the fixed open-loop arrival rate of serve-open in
	// ops/s: ≈ 30 % of the saturation measured on the 2-CPU dev host
	// (≈ 50 ops/s with both connections always busy). The host slows
	// down by up to 2× for minutes at a time; at 25 ops/s such a spell
	// saturated the service and ops were refused. README "How sizes,
	// rate and bounds were chosen".
	serveRate = 15.0
	// serveP90LimitMS is the latency limit the rate sweep judges
	// server.max_rate_ok against.
	serveP90LimitMS = 400.0
)

type metricDef struct {
	Name, Unit, Better string
	Bound              float64 // end-to-end metrics only
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	loop string
	// minOps is the floor on timed ops (full, quick); answers_digest
	// covers exactly the first minOps ops so it does not depend on how
	// many more a faster host fits into the run.
	minOps, quickMinOps int
}

var workloads = []workloadDef{
	{Name: "scan-sources", loop: "closed, 1 client", minOps: 108, quickMinOps: 36,
		Why: "big n, tiny basis: sampling/stream/lptype/dataset scans carry the op; one row per data path (6 sources x 3 backends)"},
	{Name: "basis-heavy", loop: "closed, 1 client", minOps: 100, quickMinOps: 30,
		Why: "small n, higher d and lifted LP: Domain.Solve (seidel, sea, Wolfe) is most of the op and scans are noise; inverse of scan-sources"},
	{Name: "serve-open", loop: "open, fixed 15 ops/s, 2 connections", minOps: 150, quickMinOps: 30,
		Why: "only workload where server/gateway (queue, JSON wire, caches, uploads, fleet dispatch) matter; open loop at 30% of measured saturation so a slow spell of the host does not saturate it"},
	{Name: "fleet-net", loop: "closed, 1 client", minOps: 120, quickMinOps: 24,
		Why: "same algorithm as scan-sources' coordinator cells but over real worker processes, so comm/httptransport wire cost is the difference"},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// End-to-end metrics: one value per workload, measured with tracing
// off. An op is one solve request as its caller sees it. Bounds are
// the share of the parent's median a metric may worsen by. Every one
// is the contract's maximum: over ten seeds the spreads measured on
// the dev host were 5–15 %, most of it the host's own drift (README).
// failed_frac is not listed: it must stay 0, which a relative bound
// cannot express — it is the failed ÷ attempted of every result line.
// README "End-to-end metrics" says what each one measures.
var e2eMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rows_per_s", Unit: "rows/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

var kindNames = []string{"lp", "svm", "meb", "sea"}
var sourceNames = []string{"slice", "columnar", "file", "mmap", "sharded", "sharded_par"}
var backendNames = []string{"ram", "stream", "coordinator", "mpc"}
var serveClasses = []string{"generated", "inline_json", "repeat", "upload", "fleet"}

// perLayerMetrics builds the per-layer catalogue. Every traced run
// prints every name; a layer the workload never enters reads 0.
func perLayerMetrics() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better})
	}
	for _, k := range kindNames {
		add(k+".basis_ms_per_op", "ms", "lower")
		add(k+".basis_calls_per_op", "count", "lower")
		add(k+".basis_items_per_op", "count", "lower")
		add(k+".basis_share", "ratio", "lower")
		add(k+".scan_ns_per_row", "ns", "lower")
		add(k+".scan_rows_per_op", "count", "lower")
		add(k+".scan_share", "ratio", "lower")
	}
	for _, c := range []string{"d3", "d4", "generic"} {
		add("kernel.blocks_per_op."+c, "count", "lower")
	}
	add("kernel.rowloop_blocks_per_op", "count", "lower")
	add("sampling.offer_ns_per_row.m4k", "ns", "lower")
	add("sampling.offer_ns_per_row.m32k", "ns", "lower")
	add("sampling.est_share", "ratio", "lower")
	add("stream.self_ms_per_op", "ms", "lower")
	add("stream.passes_per_op", "count", "lower")
	add("stream.items_scanned_per_op", "count", "lower")
	add("stream.iter_success_ratio", "ratio", "higher")
	add("stream.net_size", "count", "lower")
	add("stream.peak_space_bits", "bits", "lower")
	add("coordinator.self_ms_per_op", "ms", "lower")
	add("coordinator.rounds_per_op", "count", "lower")
	add("coordinator.bits_per_op", "bits", "lower")
	add("coordinator.messages_per_op", "count", "lower")
	add("mpc.self_ms_per_op", "ms", "lower")
	add("mpc.rounds_per_op", "count", "lower")
	add("mpc.max_load_bits", "bits", "lower")
	add("lptype.viewstore_scan_ns_per_row", "ns", "lower")
	add("lptype.sourcestore_scan_ns_per_row", "ns", "lower")
	add("lptype.weights_ns_per_row", "ns", "lower")
	for _, s := range []string{"mem", "file", "mmap", "sharded", "sharded_par"} {
		add("dataset.cursor_ns_per_row."+s, "ns", "lower")
	}
	add("dataset.write_mb_per_s.single", "MB/s", "higher")
	add("dataset.write_mb_per_s.sharded", "MB/s", "higher")
	add("dataset.open_ms.mmap", "ms", "lower")
	add("dataset.open_ms.sharded", "ms", "lower")
	add("dataset.materialize_ms", "ms", "lower")
	for _, s := range sourceNames {
		add("source."+s+".op_p50_ms", "ms", "lower")
		add("source."+s+".alloc_mb_per_op", "MB", "lower")
	}
	for _, b := range backendNames {
		add("backend."+b+".op_p50_ms", "ms", "lower")
	}
	add("engine.columnar_ms", "ms", "lower")
	add("engine.slice_decode_ms", "ms", "lower")
	add("comm.item_codec_mb_per_s.encode", "MB/s", "higher")
	add("comm.item_codec_mb_per_s.decode", "MB/s", "higher")
	add("comm.frame_ns_per_roundtrip", "ns", "lower")
	add("httptransport.exchange_ms_p50", "ms", "lower")
	add("httptransport.exchange_ms_p90", "ms", "lower")
	add("httptransport.exchanges_per_op", "count", "lower")
	add("httptransport.bytes_per_op", "bytes", "lower")
	add("httptransport.wire_share", "ratio", "lower")
	add("httptransport.dial_ms", "ms", "lower")
	add("worker.steps_per_op", "count", "lower")
	add("worker.bytes_in_per_op", "bytes", "lower")
	add("worker.bytes_out_per_op", "bytes", "lower")
	add("worker.step_errors", "count", "lower")
	add("fleet.overhead_ms_per_op", "ms", "lower")
	add("server.overhead_ms_p50", "ms", "lower")
	add("server.overhead_ms_p90", "ms", "lower")
	add("server.ingest_ms_p50", "ms", "lower")
	add("server.solve_span_ms_p50", "ms", "lower")
	add("server.finalize_ms_p50", "ms", "lower")
	for _, c := range serveClasses {
		add("server.class."+c+".p50_ms", "ms", "lower")
	}
	add("server.upload_rows_per_s.binary", "rows/s", "higher")
	add("server.upload_rows_per_s.json", "rows/s", "higher")
	add("server.cache_hit_ratio", "ratio", "higher")
	add("server.warm_hit_ratio", "ratio", "higher")
	add("server.batched_job_ratio", "ratio", "higher")
	add("server.shared_passes_per_job", "count", "lower")
	add("server.coalesced_total", "count", "higher")
	add("server.shed_total", "count", "lower")
	add("server.queue_full_total", "count", "lower")
	add("gateway.throttled_total", "count", "lower")
	add("server.p90_ms.rate_lo", "ms", "lower")
	add("server.p90_ms.rate_hi", "ms", "lower")
	add("server.max_rate_ok", "1/s", "higher")
	add("loadgen.late_ms_p90", "ms", "lower")
	add("loadgen.max_inflight", "count", "lower")
	add("trace.overhead_frac", "ratio", "lower")
	return out
}

// manifestJSON renders BENCHMARK.json from the catalogue.
func manifestJSON() ([]byte, error) {
	type perLayer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2e         `json:"end_to_end"`
		PerLayer   []perLayer    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
	}
	for _, m := range e2eMetrics {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayerMetrics() {
		doc.PerLayer = append(doc.PerLayer, perLayer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
