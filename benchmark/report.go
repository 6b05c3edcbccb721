package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand/v2"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// runConfig is one invocation's settings.
type runConfig struct {
	Seed    uint64
	Seconds float64
	Trace   bool
	// Quick shrinks every instance and op floor so all four workloads
	// finish in seconds; it exists for the smoke test only and its
	// numbers mean nothing.
	Quick bool
	// Rate overrides serve-open's fixed arrival rate (ops/s). It exists
	// to measure saturation when the fixed rate has to be re-derived
	// for a new host; results taken with it are not comparable.
	Rate float64
}

// workloadResult is everything one run of one workload produced.
type workloadResult struct {
	Name      string `json:"name"`
	Loop      string `json:"loop"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Correct   bool   `json:"correct"`
	// Samples is the number of timed ops behind op_p50_ms/op_p90_ms;
	// Beyond is how many of them lie above the reported p90.
	Samples int `json:"samples"`
	Beyond  int `json:"beyond_p90"`
	// AnswersDigest hashes the rendered solution of the first DigestOps
	// timed ops in op order; equal seeds must give equal digests, on
	// any host, traced or not.
	AnswersDigest string             `json:"answers_digest"`
	DigestOps     int                `json:"digest_ops"`
	SetupRuns     []float64          `json:"setup_runs_s"`
	E2E           map[string]float64 `json:"end_to_end"`
	Layers        map[string]float64 `json:"per_layer,omitempty"`
	Failures      []string           `json:"failures,omitempty"`
	// Slowest names the three slowest timed ops: with mean-based metrics
	// (rows_per_s, cpu_ms_per_op) one runaway solve can carry a run.
	Slowest   []string `json:"slowest,omitempty"`
	TraceFile string   `json:"trace_file,omitempty"`
}

// fail records one failed op (first few reasons are kept for the report).
func (r *workloadResult) fail(why string) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, why)
	}
}

// hostBlock names the machine a result was taken on.
type hostBlock struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func hostInfo(root string) hostBlock {
	h := hostBlock{
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GoVersion: runtime.Version(),
		Commit: "unknown",
	}
	// The acceptance driver's checkout is not a git repository; there
	// the commit stays "unknown".
	git := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	git.Dir = root
	if out, err := git.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// artifact is the JSON file `lpmark run` writes and `lpmark compare`
// reads: each workload's results, once per repeat.
type artifact struct {
	Tool      string             `json:"tool"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Host      hostBlock          `json:"host"`
	Bounds    map[string]float64 `json:"bounds"`
	Workloads []artifactWorkload `json:"workloads"`
}

type artifactWorkload struct {
	Name string           `json:"name"`
	Runs []workloadResult `json:"runs"`
}

// newRng derives an independent deterministic stream from the
// benchmark seed and a purpose tag.
func newRng(seed uint64, tag string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(tag))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// solverSeed draws one solver/generator seed (48 bits: readable in
// logs and exact in every JSON number representation).
func solverSeed(rng *rand.Rand) uint64 { return rng.Uint64() >> 16 }

// digest hashes answers in op order.
func digest(answers []string) string {
	h := sha256.New()
	for _, a := range answers {
		io.WriteString(h, a)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// driverLine renders the one-line JSON result the acceptance driver
// reads: end-to-end metrics for an untraced run, per-layer for a
// traced one.
func driverLine(res *workloadResult, traced bool) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	if traced {
		for _, m := range perLayerMetrics() {
			metrics[m.Name] = mv{res.Layers[m.Name], m.Unit}
		}
	} else {
		for _, m := range e2eMetrics {
			metrics[m.Name] = mv{res.E2E[m.Name], m.Unit}
		}
	}
	attempted := res.Attempted
	if attempted < 1 {
		attempted = 1
	}
	out, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, attempted, res.Failed, metrics})
	return string(out), err
}

// printResult writes one workload's metrics by name with unit, bound
// and sample count.
func printResult(w io.Writer, res *workloadResult, traced bool) {
	fmt.Fprintf(w, "\n== %s (%s) ==\n", res.Name, res.Loop)
	fmt.Fprintf(w, "ops attempted %d, failed %d (failed_frac %.4f), correct %v; answers_digest %s over the first %d ops\n",
		res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)), res.Correct, res.AnswersDigest, res.DigestOps)
	for _, why := range res.Failures {
		fmt.Fprintf(w, "  failure: %s\n", why)
	}
	for _, op := range res.Slowest {
		fmt.Fprintf(w, "  slowest: %s\n", op)
	}
	if !traced {
		fmt.Fprintf(w, "%-16s %14s %-7s %7s  %s\n", "end-to-end", "value", "unit", "bound", "samples")
		for _, m := range e2eMetrics {
			samples := fmt.Sprintf("%d ops", res.Samples)
			switch m.Name {
			case "setup_s":
				samples = fmt.Sprintf("%d set-ups", len(res.SetupRuns))
			case "op_p90_ms":
				samples = fmt.Sprintf("%d ops, %d beyond", res.Samples, res.Beyond)
				if res.Beyond < minBeyond {
					samples += " (too few: not a reportable percentile)"
				}
			case "peak_rss_mb":
				samples = "1 reading"
			}
			fmt.Fprintf(w, "%-16s %14.4f %-7s %6.0f%%  %s\n", m.Name, res.E2E[m.Name], m.Unit, m.Bound*100, samples)
		}
		return
	}
	fmt.Fprintf(w, "%-40s %16s %s\n", "per-layer (traced run)", "value", "unit")
	names := make([]string, 0, len(res.Layers))
	units := map[string]string{}
	for _, m := range perLayerMetrics() {
		units[m.Name] = m.Unit
		if v, ok := res.Layers[m.Name]; ok && v != 0 {
			names = append(names, m.Name)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-40s %16.4f %s\n", n, res.Layers[n], units[n])
	}
	if res.TraceFile != "" {
		fmt.Fprintf(w, "spans: %s\n", res.TraceFile)
	}
}
