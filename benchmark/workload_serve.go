package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"lowdimlp"
	"lowdimlp/internal/dataset"
)

// serve-open: an open-loop traffic mix against a real `lpserved -pool 2
// -tenants …` process with a 3-worker fleet behind it. It is the only
// workload where internal/server and internal/gateway (queue, JSON
// wire, result/basis caches, chunk uploads, fleet dispatch) carry the
// op. Classes:
//
//	generated   35 %  hot generated instance, distinct solver seeds: full solves
//	inline_json 25 %  rows in the body; kinds and models rotate
//	repeat      15 %  4-seed pool on the hot instance: even ops repeat exactly
//	                  (result-cache hit), odd ops nudge net_const (result-cache
//	                  miss, basis-cache hit: one warm-verify scan, no solve)
//	upload      15 %  create + 4 chunk appends (binary LDSET1 / JSON
//	                  alternating) + solve by instance_id
//	fleet       10 %  "fleet": true, solved across the worker processes
var serveMix = []classWeight{
	{"generated", 7}, {"inline_json", 5}, {"repeat", 3}, {"upload", 3}, {"fleet", 2},
}

const (
	serveTenantKey = "lpmark-bench-key"
	serveConns     = 2 // ≤ nproc connections from one load-generating process
	uploadChunks   = 4
)

// serveInst is one instance the load generator sends, with the request
// parts that do not change between ops rendered once at set-up.
type serveInst struct {
	*labInst
	rowsJSON json.RawMessage // inline rows
	chunks   [][]byte        // upload: one body per chunk
	binary   []bool          // upload: chunk i is LDSET1 (else JSON)
}

type serveState struct {
	dir         string
	procs       []*proc // fleet workers, then the frontend
	base        string
	client      *http.Client
	hot         *labInst
	inline      []*serveInst
	upload      *serveInst
	fleet       *labInst
	repeatSeeds []uint64
}

func (st *serveState) teardown() {
	if st == nil {
		return
	}
	if st.client != nil {
		st.client.CloseIdleConnections()
	}
	for i := len(st.procs) - 1; i >= 0; i-- { // frontend first
		st.procs[i].stop(3 * time.Second)
	}
	os.RemoveAll(st.dir)
}

// serveOutcome is what one op's request sequence produced.
type serveOutcome struct {
	N         int
	Err       string // transport error, refusal or failed job
	Status    int
	Answer    string
	Correct   bool
	Why       string
	ElapsedMS float64 // the server's own solve wall (elapsed_ms)
	SpanMS    map[string]float64
	// Upload appends by encoding: rows sent and the requests' wall.
	BinRows, JSONRows int
	BinMS, JSONMS     float64
}

// jobStatus is the part of lpserved's response the benchmark reads.
type jobStatus struct {
	State     string          `json:"state"`
	ElapsedMS float64         `json:"elapsed_ms"`
	Result    json.RawMessage `json:"result"`
	Error     string          `json:"error"`
	Trace     *struct {
		Spans []struct {
			Name  string `json:"name"`
			DurUS int64  `json:"dur_us"`
		} `json:"spans"`
	} `json:"trace"`
}

func newServeInst(sp instSpec) (*serveInst, error) {
	li, err := generate(sp)
	if err != nil {
		return nil, err
	}
	si := &serveInst{labInst: li}
	si.rowsJSON, err = json.Marshal(li.inst.Rows)
	return si, err
}

// renderChunks splits the instance into uploadChunks append bodies,
// alternating binary LDSET1 blocks and JSON.
func (si *serveInst) renderChunks() error {
	rows := si.inst.Rows
	per := (len(rows) + uploadChunks - 1) / uploadChunks
	for c := 0; c < uploadChunks; c++ {
		part := rows[min(c*per, len(rows)):min((c+1)*per, len(rows))]
		if c%2 == 0 {
			st, err := dataset.FromRows(si.model.RowWidth(si.inst.Dim), part)
			if err != nil {
				return err
			}
			var buf bytes.Buffer
			info := dataset.Info{Kind: si.spec.Kind, Dim: si.inst.Dim, Width: st.Width(), Objective: si.inst.Objective, Rows: st.Rows()}
			if err := dataset.EncodeTo(&buf, info, st); err != nil {
				return err
			}
			si.chunks, si.binary = append(si.chunks, buf.Bytes()), append(si.binary, true)
		} else {
			body, err := json.Marshal(map[string]any{"rows": part})
			if err != nil {
				return err
			}
			si.chunks, si.binary = append(si.chunks, body), append(si.binary, false)
		}
	}
	return nil
}

// serveSetUp is one complete set-up: instances and references, shard
// files, three fleet workers, the frontend, and a warm-up request per
// class (which also fills the caches the repeat class relies on).
func serveSetUp(e *env, cfg runConfig) (st *serveState, err error) {
	st = &serveState{}
	defer func() {
		if err != nil {
			st.teardown()
			st = nil
		}
	}()
	if st.dir, err = e.workDir("serve-open"); err != nil {
		return
	}
	gen := newRng(cfg.Seed, "serve-open/gen")
	hot, err := generate(instSpec{ID: "hot", Kind: "meb", Family: "gaussian", N: pick(cfg, 20_000, 4000), D: 3, Seed: solverSeed(gen)})
	if err != nil {
		return
	}
	st.hot = hot
	for _, sp := range []instSpec{
		{ID: "in-lp", Kind: "lp", Family: "sphere", N: pick(cfg, 1500, 300), D: 3},
		{ID: "in-svm", Kind: "svm", Family: "separable", N: pick(cfg, 1500, 300), D: 3},
		{ID: "in-meb", Kind: "meb", Family: "gaussian", N: pick(cfg, 1500, 300), D: 3},
		{ID: "in-sea", Kind: "sea", Family: "ring", N: pick(cfg, 300, 100), D: 3},
	} {
		sp.Seed = solverSeed(gen)
		si, err := newServeInst(sp)
		if err != nil {
			return st, err
		}
		st.inline = append(st.inline, si)
	}
	if st.upload, err = newServeInst(instSpec{ID: "up-lp", Kind: "lp", Family: "sphere", N: pick(cfg, 16_000, 800), D: 3, Seed: solverSeed(gen)}); err != nil {
		return
	}
	if err = st.upload.renderChunks(); err != nil {
		return
	}
	if st.fleet, err = generate(instSpec{ID: "fleet-lp", Kind: "lp", Family: "sphere", N: pick(cfg, 60_000, 3000), D: 3, Seed: solverSeed(gen), Shards: 3}); err != nil {
		return
	}
	shards, err := st.fleet.writeFiles(st.dir, false)
	if err != nil {
		return
	}
	for i := 0; i < 4; i++ {
		st.repeatSeeds = append(st.repeatSeeds, solverSeed(gen))
	}

	workers, urls, err := e.startWorkers(st.dir, "fleet", shards)
	st.procs = workers
	if err != nil {
		return
	}
	tenants := filepath.Join(st.dir, "tenants.json")
	if err = os.WriteFile(tenants, []byte(`{"tenants":[{"id":"lpmark","key":"`+serveTenantKey+`"}]}`), 0o600); err != nil {
		return
	}
	addr, err := freeAddr()
	if err != nil {
		return
	}
	front, err := startProc("frontend", filepath.Join(st.dir, "frontend.log"), e.lpserved,
		"-addr", addr, "-pool", "2", "-tenants", tenants, "-workers", strings.Join(urls, ","))
	if err != nil {
		return
	}
	st.procs = append(st.procs, front)
	if err = waitHealthy(addr, front); err != nil {
		return
	}
	st.base = "http://" + addr
	st.client = &http.Client{
		Timeout:   opDeadline,
		Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns},
	}

	// Warm-up: one request per class and per instance/seed-pool slot.
	// The repeat slots are the even ones — the exact-repeat flavour of
	// every pool seed — so timed repeats find result and basis cached.
	warm := newRng(cfg.Seed, "serve-open/warm")
	warmOps := []arrival{{Class: "generated"}, {Class: "upload"}, {Class: "fleet"}}
	for i := range st.inline {
		warmOps = append(warmOps, arrival{Class: "inline_json", Slot: i})
	}
	for i := range st.repeatSeeds {
		warmOps = append(warmOps, arrival{Class: "repeat", Slot: 2 * i})
	}
	for _, a := range warmOps {
		out := st.do(a, solverSeed(warm), 0, false)
		if out.Err != "" || !out.Correct {
			return st, fmt.Errorf("serve-open: warm-up %s request: %s%s", a.Class, out.Err, out.Why)
		}
	}
	return st, nil
}

// post sends one authenticated request and returns status and body.
func (st *serveState) post(path, contentType string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, st.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Authorization", "Bearer "+serveTenantKey)
	req.Header.Set("Content-Type", contentType)
	resp, err := st.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// do performs one op of the given class: builds its request(s) from
// the arrival's class slot and solver seed, sends them, checks the
// answer. salt keeps the net_const nudges of different segments apart.
func (st *serveState) do(a arrival, seed uint64, salt int, traced bool) serveOutcome {
	var out serveOutcome
	req := map[string]any{}
	opts := map[string]any{"r": 2, "seed": seed}
	var ref *labInst
	switch a.Class {
	case "generated", "repeat":
		ref = st.hot
		if a.Class == "repeat" {
			k := a.Slot / 2
			opts["seed"] = st.repeatSeeds[k%len(st.repeatSeeds)]
			if a.Slot%2 == 1 {
				// A different net_const is a different result-cache key
				// but the same basis-cache key: the server re-verifies
				// the cached basis in one scan instead of solving.
				opts["net_const"] = 0.5 + float64(salt*1_000_000+k+1)*1e-9
			}
		}
		sp := ref.spec
		req["kind"], req["model"] = sp.Kind, "stream"
		req["generate"] = map[string]any{"family": sp.Family, "n": sp.N, "d": sp.D, "seed": sp.Seed}
	case "inline_json":
		si := st.inline[a.Slot%len(st.inline)]
		ref = si.labInst
		req["kind"], req["dim"] = si.spec.Kind, si.inst.Dim
		req["model"] = backendNames[(a.Slot/len(st.inline))%len(backendNames)]
		if si.inst.Objective != nil {
			req["objective"] = si.inst.Objective
		}
		req["rows"] = si.rowsJSON
	case "upload":
		si := st.upload
		ref = si.labInst
		id, err := st.uploadInstance(si, &out)
		if err != nil {
			out.Err = err.Error()
			return out
		}
		req["kind"], req["model"], req["dim"], req["objective"] = si.spec.Kind, "stream", si.inst.Dim, si.inst.Objective
		req["instance_id"] = id
	case "fleet":
		ref = st.fleet
		req["fleet"] = true
	}
	req["options"] = opts
	if traced {
		req["trace"] = true
	}
	out.N = ref.spec.N
	body, err := json.Marshal(req)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	status, data, err := st.post("/v1/solve", "application/json", body)
	out.Status = status
	if err != nil {
		out.Err = err.Error()
		return out
	}
	var js jobStatus
	if err := json.Unmarshal(data, &js); err != nil {
		out.Err = fmt.Sprintf("HTTP %d, undecodable body: %v", status, err)
		return out
	}
	if status != http.StatusOK || js.State != "done" {
		out.Err = fmt.Sprintf("HTTP %d state %q: %s", status, js.State, js.Error)
		return out
	}
	out.ElapsedMS = js.ElapsedMS
	if js.Trace != nil {
		out.SpanMS = map[string]float64{}
		for _, sp := range js.Trace.Spans {
			out.SpanMS[sp.Name] += float64(sp.DurUS) / 1e3
		}
	}
	out.Answer = string(js.Result)
	var sol lowdimlp.Solution
	if err := json.Unmarshal(js.Result, &sol); err != nil {
		out.Why = "result: " + err.Error()
		return out
	}
	got, err := solutionScalar(ref.spec.Kind, sol)
	switch {
	case err != nil:
		out.Why = err.Error()
	case !closeTo(got, ref.refScalar):
		out.Why = fmt.Sprintf("%s %s = %v, RAM reference %v", a.Class, scalarKey[ref.spec.Kind], got, ref.refScalar)
	default:
		out.Correct = true
	}
	return out
}

// uploadInstance creates a chunk-upload instance and appends its rows.
func (st *serveState) uploadInstance(si *serveInst, out *serveOutcome) (string, error) {
	body, _ := json.Marshal(map[string]any{"kind": si.spec.Kind, "dim": si.inst.Dim})
	status, data, err := st.post("/v1/instances", "application/json", body)
	if err != nil {
		return "", err
	}
	var ref struct {
		ID string `json:"id"`
	}
	if status != http.StatusCreated || json.Unmarshal(data, &ref) != nil || ref.ID == "" {
		out.Status = status
		return "", fmt.Errorf("create instance: HTTP %d: %s", status, bytes.TrimSpace(data))
	}
	per := (len(si.inst.Rows) + uploadChunks - 1) / uploadChunks
	for c, chunk := range si.chunks {
		ct := "application/json"
		if si.binary[c] {
			ct = "application/octet-stream"
		}
		t0 := time.Now()
		status, data, err := st.post("/v1/instances/"+ref.ID+"/rows", ct, chunk)
		if err != nil {
			return "", err
		}
		if status != http.StatusOK {
			out.Status = status
			return "", fmt.Errorf("append chunk %d: HTTP %d: %s", c, status, bytes.TrimSpace(data))
		}
		rows := min(per, len(si.inst.Rows)-c*per)
		if si.binary[c] {
			out.BinRows, out.BinMS = out.BinRows+rows, out.BinMS+ms(time.Since(t0))
		} else {
			out.JSONRows, out.JSONMS = out.JSONRows+rows, out.JSONMS+ms(time.Since(t0))
		}
	}
	return ref.ID, nil
}

// segment runs one open-loop stretch at a fixed rate. Each segment
// has its own tag, hence its own schedule and solver seeds: a second
// pass over the same requests would be answered from the result cache.
func (st *serveState) segment(tag string, salt int, cfg runConfig, rate, seconds float64, minOps int, traced bool) ([]openSample, int) {
	arrivals := schedule(newRng(cfg.Seed, "serve-open/"+tag), rate, seconds, minOps, serveMix)
	// Seeds come from their own stream, drawn up front: op i has the
	// same seed however long the schedule is and whatever order ops
	// complete in.
	seedRng := newRng(cfg.Seed, "serve-open/"+tag+"/seeds")
	seeds := make([]uint64, len(arrivals))
	for i := range seeds {
		seeds[i] = solverSeed(seedRng)
	}
	return runOpenLoop(arrivals, func(a arrival) any { return st.do(a, seeds[a.Index], salt, traced) })
}

func runServeOpen(e *env, cfg runConfig) (*workloadResult, error) {
	def, _ := workloadByName("serve-open")
	res := &workloadResult{Name: def.Name, Loop: def.loop, Correct: true, E2E: map[string]float64{}}
	minOps := pick(cfg, def.minOps, def.quickMinOps)
	rate := serveRate
	if cfg.Rate > 0 {
		rate = cfg.Rate
	}

	var st *serveState
	for i := 0; i < setupRepeats; i++ {
		st.teardown()
		t0 := time.Now()
		var err error
		if st, err = serveSetUp(e, cfg); err != nil {
			return nil, err
		}
		res.SetupRuns = append(res.SetupRuns, time.Since(t0).Seconds())
	}
	defer func() { st.teardown() }()

	// A traced run splits its time: the plain stretch (same schedule as
	// an untraced run's start, so the digests agree), the same rate
	// with "trace": true, then the low and high rates of the sweep.
	plainSeconds, plainMin := cfg.Seconds, minOps
	if cfg.Trace {
		plainSeconds, plainMin = 0.35*cfg.Seconds, minOps/3
	}
	res.DigestOps = minOps / 3

	cpu0 := procsCPU(st.procs)
	m0, err := scrape(st.base)
	if err != nil {
		return nil, err
	}
	plain, maxInflight := st.segment("ops", 0, cfg, rate, plainSeconds, plainMin, false)
	cpu := procsCPU(st.procs) - cpu0

	var lat []float64
	var answers []string
	var rows float64
	var first, last time.Duration
	for i, s := range plain {
		o := s.Out.(serveOutcome)
		res.Attempted++
		lat = append(lat, s.latencyMS())
		if i == 0 || s.Due < first {
			first = s.Due
		}
		last = max(last, s.End)
		if len(answers) < res.DigestOps {
			answers = append(answers, o.Answer)
		}
		switch {
		case o.Err != "":
			res.fail(fmt.Sprintf("op %d %s: %s", s.Index, s.Class, o.Err))
		case !o.Correct:
			res.fail(fmt.Sprintf("op %d %s: %s", s.Index, s.Class, o.Why))
		case s.latencyMS() > ms(opDeadline):
			res.fail(fmt.Sprintf("op %d %s: %.0f ms, past the op deadline", s.Index, s.Class, s.latencyMS()))
		default:
			rows += float64(o.N)
		}
	}
	res.Correct = res.Failed == 0
	res.AnswersDigest = digest(answers)
	res.Samples = len(lat)
	res.E2E["setup_s"] = median(res.SetupRuns)
	res.E2E["op_p50_ms"] = median(lat)
	res.E2E["op_p90_ms"], res.Beyond = percentile(lat, 90)
	res.E2E["rows_per_s"] = ratio(rows, (last - first).Seconds())
	res.E2E["cpu_ms_per_op"] = ratio(cpu, float64(len(plain)))
	for _, p := range st.procs {
		res.E2E["peak_rss_mb"] += p.peakRSSMB()
	}
	if !cfg.Trace {
		return res, nil
	}

	// Traced run: per-layer metrics.
	L := map[string]float64{}
	res.Layers = L
	traced, _ := st.segment("ops-traced", 1, cfg, rate, 0.35*cfg.Seconds, minOps/3, true)
	m1, err := scrape(st.base)
	if err != nil {
		return nil, err
	}
	var overhead, late []float64
	classLat := map[string][]float64{}
	spanMS := map[string][]float64{}
	var binRows, jsonRows, binMS, jsonMS, queueFull float64
	for _, s := range traced {
		o := s.Out.(serveOutcome)
		if o.Status == http.StatusServiceUnavailable {
			queueFull++
		}
		if o.Err != "" {
			res.fail(fmt.Sprintf("traced op %d %s: %s", s.Index, s.Class, o.Err))
			continue
		}
		overhead = append(overhead, s.latencyMS()-o.ElapsedMS)
		late = append(late, s.lateMS())
		classLat[s.Class] = append(classLat[s.Class], s.latencyMS())
		for name, v := range o.SpanMS {
			spanMS[name] = append(spanMS[name], v)
		}
		binRows, binMS = binRows+float64(o.BinRows), binMS+o.BinMS
		jsonRows, jsonMS = jsonRows+float64(o.JSONRows), jsonMS+o.JSONMS
	}
	res.Correct = res.Failed == 0
	L["server.overhead_ms_p50"] = median(overhead)
	L["server.overhead_ms_p90"], _ = percentile(overhead, 90)
	L["server.ingest_ms_p50"] = median(spanMS["ingest"])
	L["server.solve_span_ms_p50"] = median(spanMS["solve"])
	L["server.finalize_ms_p50"] = median(spanMS["finalize"])
	for _, c := range serveClasses {
		L["server.class."+c+".p50_ms"] = median(classLat[c])
	}
	L["server.upload_rows_per_s.binary"] = ratio(binRows, binMS/1e3)
	L["server.upload_rows_per_s.json"] = ratio(jsonRows, jsonMS/1e3)
	d := func(series string) float64 { return m1[series] - m0[series] }
	L["server.cache_hit_ratio"] = ratio(d("lpserved_cache_hits_total"), d("lpserved_cache_hits_total")+d("lpserved_cache_misses_total"))
	L["server.warm_hit_ratio"] = ratio(d("lpserved_warm_hits_total"), d("lpserved_warm_hits_total")+d("lpserved_warm_misses_total"))
	L["server.batched_job_ratio"] = ratio(d("lpserved_batched_jobs_total"), d("lpserved_jobs_done_total"))
	L["server.shared_passes_per_job"] = ratio(d("lpserved_shared_passes_total"), d("lpserved_batched_jobs_total"))
	L["server.coalesced_total"] = d("lpserved_solve_coalesced_total")
	L["server.shed_total"] = d("lpserved_jobs_shed_total")
	L["server.queue_full_total"] = queueFull
	for series, v := range m1 {
		if strings.HasPrefix(series, "lpserved_tenant_throttled_total") {
			L["gateway.throttled_total"] += v - m0[series]
		}
	}
	L["loadgen.late_ms_p90"], _ = percentile(late, 90)
	L["loadgen.max_inflight"] = float64(maxInflight)
	// Tracing overhead, class by class (the mix is bimodal, so the two
	// stretches' overall medians are not comparable), weighted by share.
	plainLat := map[string][]float64{}
	for _, s := range plain {
		plainLat[s.Class] = append(plainLat[s.Class], s.latencyMS())
	}
	for _, c := range serveMix {
		if p := median(plainLat[c.Class]); p > 0 && len(classLat[c.Class]) > 0 {
			L["trace.overhead_frac"] += float64(c.Weight) / 20 * (median(classLat[c.Class])/p - 1)
		}
	}

	// Rate sweep: three fixed rates; a rate is ok when its p90 meets
	// the limit and the generator's backlog is not growing (ops in the
	// last third wait no longer for a connection than in the first).
	sweep := map[float64][]openSample{rate: plain}
	lo, hi := 0.5*rate, 1.5*rate
	sweep[lo], _ = st.segment("rate-lo", 2, cfg, lo, 0.15*cfg.Seconds, minOps/6, false)
	sweep[hi], _ = st.segment("rate-hi", 3, cfg, hi, 0.15*cfg.Seconds, minOps/6, false)
	for _, r := range []float64{lo, rate, hi} {
		var l []float64
		failed := 0
		for _, s := range sweep[r] {
			l = append(l, s.latencyMS())
			if o := s.Out.(serveOutcome); o.Err != "" || !o.Correct {
				failed++
			}
		}
		p90, _ := percentile(l, 90)
		switch r {
		case lo:
			L["server.p90_ms.rate_lo"] = p90
		case hi:
			L["server.p90_ms.rate_hi"] = p90
		}
		third := len(l) / 3
		growing := third > 0 && median(l[len(l)-third:]) > 2*median(l[:third])+serveP90LimitMS/4
		if failed == 0 && p90 <= serveP90LimitMS && !growing {
			L["server.max_rate_ok"] = r
		}
	}

	res.TraceFile = filepath.Join(e.outDir, "trace-serve-open.json")
	if err := writeServeTrace(res.TraceFile, cfg.Seed, traced); err != nil {
		return nil, err
	}
	return res, nil
}

// writeServeTrace renders the traced stretch as spans: one root per op
// (due → last response, as the client saw it) with the server's own
// phase spans as children. The server reports durations, not start
// times, so children carry busy_us only.
func writeServeTrace(path string, seed uint64, traced []openSample) error {
	t := newTracer()
	var selfs []opSelf
	for _, s := range traced {
		o := s.Out.(serveOutcome)
		root := t.add(span{Op: s.Index, Name: "op:" + s.Class, StartUS: us(s.Due), EndUS: us(s.End), BusyUS: us(s.End - s.Due), Calls: 1})
		self := map[string]float64{}
		covered := 0.0
		for name, v := range o.SpanMS {
			t.add(span{Parent: root, Op: s.Index, Name: "server:" + name, BusyUS: v * 1e3, Calls: 1})
			self["server:"+name] = v * 1e3
			covered += v * 1e3
		}
		// What the server's spans do not cover: generator lateness,
		// waiting for a connection, HTTP, JSON, queueing, uploads.
		self["client+wire+queue"] = us(s.End-s.Due) - covered
		selfs = append(selfs, opSelf{Op: s.Index, Cell: s.Class, OpUS: us(s.End - s.Due), SelfUS: self, SumFrac: 1})
	}
	return t.dump(path, "serve-open", seed, selfs)
}
