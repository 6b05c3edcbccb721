package main

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"lowdimlp"
	"lowdimlp/internal/comm/httptransport"
	"lowdimlp/internal/dataset"
	"lowdimlp/internal/engine"
	"lowdimlp/internal/kernel"
)

// lab is the child-side state of a library or fleet workload: the
// generated instances in every form a source needs, their RAM
// references, and (in a traced run) the span recorder.
type lab struct {
	insts  map[string]*labInst
	tracer *tracer
	selfs  []opSelf
}

type labInst struct {
	spec      instSpec
	model     lowdimlp.ProblemModel
	inst      lowdimlp.Instance
	store     *dataset.Store
	single    string  // LDSET1 path ("" when not written)
	manifest  string  // LDSETM path
	refScalar float64 // the RAM reference's scalar (scalarKey)
}

// scalarKey names the one number of a kind's solution the RAM
// reference is compared on (relative 1e-9).
var scalarKey = map[string]string{"lp": "value", "svm": "norm2", "meb": "radius", "sea": "width"}

func solutionScalar(kind string, sol lowdimlp.Solution) (float64, error) {
	key, ok := scalarKey[kind]
	if !ok {
		return 0, fmt.Errorf("no reference scalar for kind %q", kind)
	}
	v, ok := sol.Scalar(key)
	if !ok {
		return 0, fmt.Errorf("%s solution has no %q field", kind, key)
	}
	return v, nil
}

// closeTo is the reference check: relative 1e-9, absolute near zero.
func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

// generate builds one instance and its RAM reference — shared by the
// child (library workloads) and the supervisor (serve-open, which has
// no child).
func generate(sp instSpec) (*labInst, error) {
	m, ok := lowdimlp.LookupKind(sp.Kind)
	if !ok {
		return nil, fmt.Errorf("unknown kind %q", sp.Kind)
	}
	inst, err := m.Generate(sp.Family, lowdimlp.GenParams{N: sp.N, D: sp.D, Seed: sp.Seed})
	if err != nil {
		return nil, err
	}
	// The reference seed is fixed: the RAM answer is the instance's
	// optimum whatever the seed (randomness moves resources, never
	// answers), and a fixed seed keeps set-up time comparable.
	ref, _, err := lowdimlp.SolveInstance(sp.Kind, "ram", inst, lowdimlp.Options{Seed: 1})
	if err != nil {
		return nil, fmt.Errorf("%s: RAM reference: %w", sp.ID, err)
	}
	li := &labInst{spec: sp, model: m, inst: inst}
	if li.refScalar, err = solutionScalar(sp.Kind, ref); err != nil {
		return nil, err
	}
	return li, nil
}

// writeFiles writes the instance as a single file and a sharded
// manifest under dir (unless reuse says they are already there) and
// returns the shard paths in site order.
func (li *labInst) writeFiles(dir string, reuse bool) ([]string, error) {
	sp := li.spec
	li.single = filepath.Join(dir, sp.ID+".lds")
	li.manifest = filepath.Join(dir, sp.ID+".ldm")
	if !reuse {
		if err := lowdimlp.WriteDatasetFile(li.single, sp.Kind, li.inst); err != nil {
			return nil, err
		}
		if err := lowdimlp.WriteShardedDatasetFile(li.manifest, sp.Kind, li.inst, sp.Shards); err != nil {
			return nil, err
		}
	}
	paths := make([]string, sp.Shards)
	for j := range paths {
		paths[j] = filepath.Join(dir, dataset.ShardName(li.manifest, j))
	}
	return paths, nil
}

func (l *lab) setup(s *labSetup) (*setupReply, error) {
	l.insts = make(map[string]*labInst, len(s.Insts))
	rep := &setupReply{ShardPaths: map[string][]string{}}
	for _, sp := range s.Insts {
		li, err := generate(sp)
		if err != nil {
			return nil, err
		}
		if li.store, err = engine.Columnar(li.model, li.inst); err != nil {
			return nil, err
		}
		if sp.Shards > 0 {
			paths, err := li.writeFiles(s.Dir, s.Reuse)
			if err != nil {
				return nil, err
			}
			rep.ShardPaths[sp.ID] = paths
		}
		l.insts[sp.ID] = li
	}
	return rep, nil
}

func libOptions(req *opRequest) lowdimlp.Options {
	return lowdimlp.Options{R: req.R, K: req.K, Seed: req.Seed, Parallel: req.Source == "sharded_par"}
}

func engineOptions(o lowdimlp.Options) engine.Options {
	return engine.Options{R: o.R, K: o.K, Seed: o.Seed, Parallel: o.Parallel}
}

// solvePlain runs one op the way a user of the library would: through
// the root package's entry points (and the registry model for a
// columnar store), with no benchmark code on the solve path.
func (l *lab) solvePlain(req *opRequest, li *labInst) (lowdimlp.Solution, lowdimlp.SolveStats, error) {
	opt := libOptions(req)
	switch req.Source {
	case "slice":
		return lowdimlp.SolveInstance(li.spec.Kind, req.Backend, li.inst, opt)
	case "columnar":
		return li.model.SolveSource(req.Backend, li.inst.Dim, li.inst.Objective, li.store, engineOptions(opt))
	case "file":
		m, f, err := engine.OpenDatasetFile(li.single)
		if err != nil {
			return lowdimlp.Solution{}, lowdimlp.SolveStats{}, err
		}
		defer f.Close()
		return m.SolveSource(req.Backend, f.Info().Dim, f.Info().Objective, f, engineOptions(opt))
	case "mmap":
		return lowdimlp.SolveDatasetFile(li.single, req.Backend, opt)
	case "sharded", "sharded_par":
		return lowdimlp.SolveDatasetFile(li.manifest, req.Backend, opt)
	case "fleet":
		_, sol, stats, err := lowdimlp.SolveFleet(req.Workers, opt)
		return sol, stats, err
	}
	return lowdimlp.Solution{}, lowdimlp.SolveStats{}, fmt.Errorf("unknown source %q", req.Source)
}

// solveTraced runs the same op with the timing wrappers in place of
// the kind's domain (and, for fleet ops, of the transport). The calls
// are the ones solvePlain's entry points make internally.
func (l *lab) solveTraced(req *opRequest, li *labInst, rec *opRec, lay *opLayers) (lowdimlp.Solution, lowdimlp.SolveStats, error) {
	var zero lowdimlp.Solution
	var zs lowdimlp.SolveStats
	opt := engineOptions(libOptions(req))
	tm, err := timedModel(li.spec.Kind, rec)
	if err != nil {
		return zero, zs, err
	}
	t := l.tracer
	root := rec.parent
	solveID := t.reserve()
	rec.parent = solveID
	// timeSolve wraps the backend driver call in the "solve" span.
	timeSolve := func(f func() (lowdimlp.Solution, lowdimlp.SolveStats, error)) (lowdimlp.Solution, lowdimlp.SolveStats, error) {
		t0 := time.Now()
		sol, stats, err := f()
		d := time.Since(t0)
		rec.finish()
		lay.SolveMS = ms(d)
		s := t.us(t0)
		t.addWithID(span{ID: solveID, Parent: root, Op: rec.op, Name: "solve:" + req.Backend,
			StartUS: s, EndUS: s + us(d), BusyUS: us(d), Calls: 1})
		return sol, stats, err
	}
	// timeOpen records the "open" span of a file-backed source.
	timeOpen := func(t0 time.Time) {
		d := time.Since(t0)
		lay.OpenMS = ms(d)
		s := t.us(t0)
		t.add(span{Parent: root, Op: rec.op, Name: "open:" + req.Source, StartUS: s, EndUS: s + us(d), BusyUS: us(d), Calls: 1})
	}
	switch req.Source {
	case "slice":
		return timeSolve(func() (lowdimlp.Solution, lowdimlp.SolveStats, error) {
			return tm.SolveInstance(req.Backend, li.inst, opt)
		})
	case "columnar":
		return timeSolve(func() (lowdimlp.Solution, lowdimlp.SolveStats, error) {
			return tm.SolveSource(req.Backend, li.inst.Dim, li.inst.Objective, li.store, opt)
		})
	case "file":
		t0 := time.Now()
		_, f, err := engine.OpenDatasetFile(li.single)
		if err != nil {
			return zero, zs, err
		}
		defer f.Close()
		timeOpen(t0)
		return timeSolve(func() (lowdimlp.Solution, lowdimlp.SolveStats, error) {
			return tm.SolveSource(req.Backend, f.Info().Dim, f.Info().Objective, f, opt)
		})
	case "mmap", "sharded", "sharded_par":
		path := li.single
		if req.Source != "mmap" {
			path = li.manifest
		}
		t0 := time.Now()
		_, info, src, err := engine.OpenDatasetSource(path)
		if err != nil {
			return zero, zs, err
		}
		defer dataset.CloseSource(src)
		timeOpen(t0)
		return timeSolve(func() (lowdimlp.Solution, lowdimlp.SolveStats, error) {
			return tm.SolveSource(req.Backend, info.Dim, info.Objective, src, opt)
		})
	case "fleet":
		t0 := time.Now()
		fleet, err := httptransport.Dial(req.Workers, httptransport.Options{})
		if err != nil {
			return zero, zs, err
		}
		lay.DialMS = ms(time.Since(t0))
		timeOpen(t0)
		info := fleet.Info()
		return timeSolve(func() (lowdimlp.Solution, lowdimlp.SolveStats, error) {
			tr := &timedTransport{Transport: fleet.Run(), rec: rec}
			defer tr.Close()
			return tm.SolveTransport(info.Dim, info.Objective, tr, opt)
		})
	}
	return zero, zs, fmt.Errorf("unknown source %q", req.Source)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// cpuMS is the user+sys CPU this process has used so far.
func cpuMS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// runOp executes one op, checks its answer, and reports it.
func (l *lab) runOp(req *opRequest) *opResult {
	res := &opResult{ID: req.ID}
	li, ok := l.insts[req.Inst]
	if !ok {
		res.Err = fmt.Sprintf("unknown instance %q", req.Inst)
		return res
	}
	res.N = li.spec.N
	// Collect the previous op's garbage outside the timed region: each
	// op then pays for its own allocations only, and the heap's
	// high-water mark (peak_rss_mb) stops depending on where in a cycle
	// the collector happened to be.
	runtime.GC()

	var (
		sol   lowdimlp.Solution
		stats lowdimlp.SolveStats
		err   error
	)
	if !req.Traced {
		c0, t0 := cpuMS(), time.Now()
		sol, stats, err = l.solvePlain(req, li)
		res.MS, res.CPUMS = ms(time.Since(t0)), cpuMS()-c0
	} else {
		lay := &opLayers{KernelBlock: map[string]int64{}}
		rootID := l.tracer.reserve()
		rec := &opRec{t: l.tracer, op: req.ID, parent: rootID}
		before := map[kernel.Class]int64{}
		for _, c := range kernel.Classes() {
			before[c] = kernel.Blocks(c)
		}
		a0, c0, t0 := heapAllocBytes(), cpuMS(), time.Now()
		sol, stats, err = l.solveTraced(req, li, rec, lay)
		d := time.Since(t0)
		res.MS, res.CPUMS = ms(d), cpuMS()-c0
		lay.AllocMB = float64(heapAllocBytes()-a0) / (1 << 20)
		for _, c := range kernel.Classes() {
			if n := kernel.Blocks(c) - before[c]; n > 0 {
				lay.KernelBlock[c.String()] = n
			}
		}
		lay.BasisMS, lay.BasisCalls, lay.BasisItems = float64(rec.basisNS)/1e6, rec.basisCalls, rec.basisItems
		lay.ScanMS, lay.ScanBlocks, lay.ScanRows = float64(rec.scanNS)/1e6, rec.scanBlocks, rec.scanRows
		lay.ExchangeMS, lay.Exchanges, lay.Bytes = float64(rec.exchangeNS)/1e6, rec.exchanges, rec.exchangeBytes
		lay.EachExchMS = rec.exchangeMS
		res.Layers = lay
		s := l.tracer.us(t0)
		l.tracer.addWithID(span{ID: rootID, Op: req.ID, Name: "op:" + req.cell(), StartUS: s, EndUS: s + us(d), BusyUS: us(d), Calls: 1})
		l.selfs = append(l.selfs, selfTimes(req, res.MS, lay))
	}
	if err != nil {
		res.Err = err.Error()
		return res
	}
	l.check(req, li, sol, stats, res)
	return res
}

// selfTimes splits an op's span into layer self times: each layer's
// busy time minus its children's, so the parts sum to the op. Scans of
// coordinator sites running on goroutines (sharded_par) overlap, so
// the driver's remainder is floored at zero there.
func selfTimes(req *opRequest, opMS float64, lay *opLayers) opSelf {
	driver := math.Max(0, lay.SolveMS-lay.BasisMS-lay.ScanMS-lay.ExchangeMS)
	self := map[string]float64{
		"open":                  lay.OpenMS * 1e3,
		"driver:" + req.Backend: driver * 1e3,
		"Domain.Solve":          lay.BasisMS * 1e3,
		"scan":                  lay.ScanMS * 1e3,
		"exchange":              lay.ExchangeMS * 1e3,
		"op":                    math.Max(0, opMS-lay.OpenMS-lay.SolveMS) * 1e3,
	}
	total := 0.0
	for _, v := range self {
		total += v
	}
	return opSelf{Op: req.ID, Cell: req.cell(), OpUS: opMS * 1e3, SelfUS: self, SumFrac: ratio(total, opMS*1e3)}
}

// check compares the op's answer with the RAM reference and, for a
// fleet op, with the in-process coordinator over the same manifest:
// solution, rounds and metered bits must be identical.
func (l *lab) check(req *opRequest, li *labInst, sol lowdimlp.Solution, stats lowdimlp.SolveStats, res *opResult) {
	ans, err := json.Marshal(sol)
	if err != nil {
		res.Why = "render: " + err.Error()
		return
	}
	res.Answer = string(ans)
	res.Stats, _ = json.Marshal(stats)
	got, err := solutionScalar(li.spec.Kind, sol)
	if err != nil {
		res.Why = err.Error()
		return
	}
	if !closeTo(got, li.refScalar) {
		res.Why = fmt.Sprintf("%s = %v, RAM reference %v", scalarKey[li.spec.Kind], got, li.refScalar)
		return
	}
	if req.Source == "fleet" {
		opt := libOptions(req)
		opt.K = len(req.Workers)
		t0 := time.Now()
		refSol, refStats, err := lowdimlp.SolveDatasetFile(li.manifest, "coordinator", opt)
		res.RefMS = ms(time.Since(t0))
		if err != nil {
			res.Why = "in-process coordinator: " + err.Error()
			return
		}
		refAns, _ := json.Marshal(refSol)
		refSt, _ := json.Marshal(refStats)
		if string(refAns) != res.Answer {
			res.Why = fmt.Sprintf("fleet answer %s, in-process coordinator %s", res.Answer, refAns)
			return
		}
		if string(refSt) != string(res.Stats) {
			res.Why = fmt.Sprintf("fleet stats %s, in-process coordinator %s", res.Stats, refSt)
			return
		}
	}
	res.Correct = true
}
