package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"time"

	"lowdimlp"
)

// closedWorkload describes a closed-loop, one-client workload whose
// ops run in the workload child: scan-sources, basis-heavy and (with
// worker processes beside the child) fleet-net.
type closedWorkload struct {
	def   workloadDef
	insts []instSpec
	// fleet starts one `lpserved -worker` per shard of every instance
	// after the child's set-up.
	fleet bool
	// warmRounds is how many untimed warm-up ops each cell gets in a
	// set-up (0 means 1).
	warmRounds int
	// cells lists the distinct cells (one op template each); urls maps
	// an instance to its workers' base URLs (fleet workloads).
	cells func(urls map[string][]string) []opRequest
}

// closedState is one set-up of a closedWorkload.
type closedState struct {
	dir     string
	child   *child
	workers []*proc
	urls    []string // every worker's base URL
	setup   labSetup
	cells   []opRequest
}

func (st *closedState) teardown() {
	if st == nil {
		return
	}
	st.child.quit()
	for _, w := range st.workers {
		w.stop(3 * time.Second)
	}
	os.RemoveAll(st.dir)
}

// respawn replaces a killed child. The dataset files are reused, not
// rewritten: fleet workers hold them mapped.
func (st *closedState) respawn(e *env) error {
	c, err := e.startChild(filepath.Join(st.dir, "child-respawn.log"))
	if err != nil {
		return err
	}
	setup := st.setup
	setup.Reuse = true
	if _, err := c.call(childReq{Cmd: "setup", Setup: &setup}, 2*time.Minute); err != nil {
		return err
	}
	st.child = c
	return nil
}

// setUp performs one complete set-up: scratch directory, child,
// instances and files, workers, and one untimed warm-up op per cell.
func (w *closedWorkload) setUp(e *env, warmRng *rand.Rand) (st *closedState, err error) {
	st = &closedState{}
	defer func() {
		if err != nil {
			st.teardown()
			st = nil
		}
	}()
	if st.dir, err = e.workDir(w.def.Name); err != nil {
		return
	}
	if st.child, err = e.startChild(filepath.Join(st.dir, "child.log")); err != nil {
		return
	}
	st.setup = labSetup{Dir: st.dir, Insts: w.insts}
	rep, err := st.child.call(childReq{Cmd: "setup", Setup: &st.setup}, 2*time.Minute)
	if err != nil {
		return st, fmt.Errorf("%s: child set-up: %w", w.def.Name, err)
	}
	urls := map[string][]string{}
	if w.fleet {
		for _, in := range w.insts {
			procs, u, err := e.startWorkers(st.dir, in.ID, rep.Setup.ShardPaths[in.ID])
			st.workers = append(st.workers, procs...)
			if err != nil {
				return st, err
			}
			urls[in.ID] = u
			st.urls = append(st.urls, u...)
		}
	}
	st.cells = w.cells(urls)
	for round := 0; round < max(1, w.warmRounds); round++ {
		for _, cell := range st.cells {
			op := cell
			op.ID, op.Seed = -1, solverSeed(warmRng)
			rep, err := st.child.call(childReq{Cmd: "op", Op: &op}, opDeadline)
			if err != nil {
				return st, fmt.Errorf("%s: warm-up of %s: %w", w.def.Name, op.cell(), err)
			}
			if r := rep.Op; r.Err != "" || !r.Correct {
				return st, fmt.Errorf("%s: warm-up of %s (seed %d): %s%s", w.def.Name, op.cell(), op.Seed, r.Err, r.Why)
			}
		}
	}
	return st, nil
}

// sample is one timed op and what came back.
type sample struct {
	req opRequest
	res *opResult
}

// run executes the workload: setupRepeats set-ups (the last is kept),
// then ops round after round — every cell once per round, in a seeded
// shuffle, each with a fresh solver seed — until both the run time and
// the op floor are reached. A traced run executes every op twice, once
// plain and once through the timing wrappers, and requires identical
// answers and stats from the two.
func (w *closedWorkload) run(e *env, cfg runConfig) (*workloadResult, error) {
	res := &workloadResult{Name: w.def.Name, Loop: w.def.loop, Correct: true, E2E: map[string]float64{}}
	minOps := w.def.minOps
	if cfg.Quick {
		minOps = w.def.quickMinOps
	}
	res.DigestOps = minOps

	var st *closedState
	for i := 0; i < setupRepeats; i++ {
		st.teardown()
		t0 := time.Now()
		var err error
		// Every set-up draws the same warm-up seeds: repeats time the
		// same work.
		if st, err = w.setUp(e, newRng(cfg.Seed, w.def.Name+"/warm")); err != nil {
			return nil, err
		}
		res.SetupRuns = append(res.SetupRuns, time.Since(t0).Seconds())
	}
	defer func() { st.teardown() }()

	rng := newRng(cfg.Seed, w.def.Name+"/ops")
	var plain, traced []sample
	var answers []string
	workerCPU0 := procsCPU(st.workers)
	workerMetrics0, err := scrapeSum(st.urls)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	limit := time.Duration(cfg.Seconds * float64(time.Second))
	const hardStop = 140 * time.Second // the driver allows a run 180 s in all
	nextID := 0
	exec := func(op opRequest) *opResult {
		if st.child == nil {
			if err := st.respawn(e); err != nil {
				return &opResult{ID: op.ID, Err: "respawn after a deadline kill: " + err.Error()}
			}
		}
		rep, err := st.child.call(childReq{Cmd: "op", Op: &op}, opDeadline)
		if err != nil {
			// Either the op passed its deadline (child killed) or the
			// child died; both cost this op and force a respawn.
			st.child = nil
			return &opResult{ID: op.ID, Err: err.Error(), MS: ms(opDeadline)}
		}
		return rep.Op
	}
loop:
	for {
		round := append([]opRequest(nil), st.cells...)
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		for _, op := range round {
			elapsed := time.Since(start)
			if (elapsed >= limit && len(plain) >= minOps) || elapsed >= hardStop {
				break loop
			}
			op.ID, op.Seed = nextID, solverSeed(rng)
			nextID++
			res.Attempted++
			var p, t *opResult
			if cfg.Trace {
				top := op
				top.Traced = true
				if op.ID%2 == 0 { // alternate which goes first: neither always runs on warmed caches
					p, t = exec(op), exec(top)
				} else {
					t, p = exec(top), exec(op)
				}
			} else {
				p = exec(op)
			}
			plain = append(plain, sample{op, p})
			if len(answers) < minOps {
				answers = append(answers, p.Answer)
			}
			switch {
			case p.Err != "":
				res.fail(fmt.Sprintf("op %d %s seed %d: %s", op.ID, op.cell(), op.Seed, p.Err))
			case !p.Correct:
				res.fail(fmt.Sprintf("op %d %s seed %d: %s", op.ID, op.cell(), op.Seed, p.Why))
			case t != nil && t.Err != "":
				res.fail(fmt.Sprintf("op %d %s seed %d (traced): %s", op.ID, op.cell(), op.Seed, t.Err))
			case t != nil && (t.Answer != p.Answer || string(t.Stats) != string(p.Stats)):
				res.fail(fmt.Sprintf("op %d %s seed %d: timing wrappers changed the result: %s %s vs %s %s",
					op.ID, op.cell(), op.Seed, t.Answer, t.Stats, p.Answer, p.Stats))
			}
			if t != nil {
				traced = append(traced, sample{op, t})
			}
		}
	}
	res.Correct = res.Failed == 0
	res.AnswersDigest = digest(answers)

	// End-to-end metrics, from the plain ops only.
	var opMS []float64
	var rows, cpu, wallMS float64
	for _, s := range plain {
		opMS = append(opMS, s.res.MS)
		wallMS += s.res.MS
		cpu += s.res.CPUMS
		if s.res.Err == "" && s.res.Correct {
			rows += float64(s.res.N)
		}
	}
	bySlow := append([]sample(nil), plain...)
	sort.Slice(bySlow, func(i, j int) bool { return bySlow[i].res.MS > bySlow[j].res.MS })
	for _, s := range bySlow[:min(3, len(bySlow))] {
		res.Slowest = append(res.Slowest, fmt.Sprintf("op %d %s seed %d: %.1f ms", s.req.ID, s.req.cell(), s.req.Seed, s.res.MS))
	}
	workerCPU := procsCPU(st.workers) - workerCPU0
	if cfg.Trace {
		// Workers served the traced twin and the reference of every op
		// too; only the per-op CPU the child reports is attributable.
		workerCPU = 0
	}
	res.Samples = len(opMS)
	res.E2E["setup_s"] = median(res.SetupRuns)
	res.E2E["op_p50_ms"] = median(opMS)
	res.E2E["op_p90_ms"], res.Beyond = percentile(opMS, 90)
	res.E2E["rows_per_s"] = ratio(rows, wallMS/1e3)
	res.E2E["cpu_ms_per_op"] = ratio(cpu+workerCPU, float64(len(plain)))
	if w.fleet {
		for _, p := range st.workers {
			res.E2E["peak_rss_mb"] += p.peakRSSMB()
		}
	} else if st.child != nil {
		res.E2E["peak_rss_mb"] = st.child.peakRSSMB()
	}

	if cfg.Trace {
		res.Layers = closedLayers(w, plain, traced)
		if err := w.extraLayers(st, res, traced); err != nil {
			return nil, err
		}
		if w.fleet {
			// Worker-side counters, from the workers' own /metrics. The
			// workers served the plain and the traced twin of every op.
			m1, err := scrapeSum(st.urls)
			if err != nil {
				return nil, err
			}
			served := 2 * float64(len(traced))
			for metric, series := range map[string]string{
				"worker.steps_per_op":     "lpserved_worker_steps_total",
				"worker.bytes_in_per_op":  "lpserved_worker_bytes_in_total",
				"worker.bytes_out_per_op": "lpserved_worker_bytes_out_total",
			} {
				res.Layers[metric] = ratio(m1[series]-workerMetrics0[series], served)
			}
			res.Layers["worker.step_errors"] = m1["lpserved_worker_step_errors_total"] - workerMetrics0["lpserved_worker_step_errors_total"]
		}
		res.TraceFile = filepath.Join(e.outDir, "trace-"+w.def.Name+".json")
		if st.child != nil {
			dump := &dumpReq{Path: res.TraceFile, Workload: w.def.Name, Seed: cfg.Seed}
			if _, err := st.child.call(childReq{Cmd: "dump", Dump: dump}, time.Minute); err != nil {
				return nil, fmt.Errorf("%s: writing the trace: %w", w.def.Name, err)
			}
		}
	}
	return res, nil
}

func procsCPU(ps []*proc) float64 {
	t := 0.0
	for _, p := range ps {
		t += p.cpuMS()
	}
	return t
}

// statsOf decodes an op's resource report.
func statsOf(r *opResult) lowdimlp.SolveStats {
	var s lowdimlp.SolveStats
	json.Unmarshal(r.Stats, &s)
	return s
}
