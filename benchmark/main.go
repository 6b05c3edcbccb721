// Command lpmark is the repository's benchmark: four workloads, six
// bounded end-to-end metrics (plus the failed ÷ attempted count) and,
// in a separate traced run, ~120 per-layer metrics taken by timing the
// calls into each module's public functions from the outside. See
// README.md in this directory.
//
//	lpmark run [-workload names] [-seed n] [-seconds s] [-trace 0|1] [-repeat k] [-out file]
//	lpmark compare A.json B.json
//	lpmark --workload name --seed n --seconds s --trace 0|1     (acceptance-driver form)
//	lpmark manifest                                             (prints BENCHMARK.json)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	switch args[0] {
	case "child":
		os.Exit(childMain())
	case "run":
		os.Exit(runMain(args[1:]))
	case "compare":
		os.Exit(compareMain(args[1:]))
	case "manifest":
		out, err := manifestJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(out)
	default:
		if strings.HasPrefix(args[0], "-") && args[0] != "-h" && args[0] != "-help" && args[0] != "--help" {
			os.Exit(runMain(args)) // the driver passes flags only
		}
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  lpmark run [-workload a,b] [-seed n] [-seconds s] [-trace 0|1] [-repeat k] [-quick] [-rate r] [-out file]
  lpmark compare A.json B.json
  lpmark manifest`)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lpmark:", err)
	os.Exit(1)
}

// runWorkload dispatches one workload by name.
func runWorkload(e *env, name string, cfg runConfig) (*workloadResult, error) {
	switch name {
	case "scan-sources":
		return scanSources(cfg).run(e, cfg)
	case "basis-heavy":
		return basisHeavy(cfg).run(e, cfg)
	case "fleet-net":
		return fleetNet(cfg).run(e, cfg)
	case "serve-open":
		return runServeOpen(e, cfg)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("lpmark run", flag.ExitOnError)
	var (
		names   = fs.String("workload", "", "comma-separated workloads (default: all four)")
		seed    = fs.Uint64("seed", defaultSeed, "benchmark seed: derives every generator and solver seed")
		seconds = fs.Float64("seconds", runSeconds, "timed part of each workload")
		trace   = fs.Int("trace", 0, "1 = traced run: per-layer metrics and a span file instead of end-to-end metrics")
		repeat  = fs.Int("repeat", 1, "runs per workload (compare needs ≥ 2 to judge the spread)")
		quick   = fs.Bool("quick", false, "tiny instances: a smoke run whose numbers mean nothing")
		rate    = fs.Float64("rate", 0, "override serve-open's arrival rate in ops/s (to re-measure saturation on a new host)")
		outPath = fs.String("out", "", "write the run artifact here (default benchmark/out/run-<time>.json when several workloads run)")
	)
	fs.Parse(args)
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "lpmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "lpmark: -trace takes 0 or 1")
		return 2
	}
	var selected []string
	if *names == "" {
		for _, w := range workloads {
			selected = append(selected, w.Name)
		}
	} else {
		for _, n := range strings.Split(*names, ",") {
			if _, ok := workloadByName(n); !ok {
				fmt.Fprintf(os.Stderr, "lpmark: unknown workload %q\n", n)
				return 2
			}
			selected = append(selected, n)
		}
	}
	cfg := runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Quick: *quick, Rate: *rate}

	needServer := false
	for _, n := range selected {
		needServer = needServer || n == "serve-open" || n == "fleet-net"
	}
	e, err := newEnv(needServer)
	if err != nil {
		fatal(err)
	}
	art := artifact{Tool: "lpmark", Seed: cfg.Seed, Seconds: cfg.Seconds, Traced: cfg.Trace,
		Host: hostInfo(e.root), Bounds: map[string]float64{}}
	for _, m := range e2eMetrics {
		art.Bounds[m.Name] = m.Bound
	}
	h := art.Host
	fmt.Printf("lpmark: seed %d, %.0f s per workload, trace %d; host: %d CPUs, GOMAXPROCS %d, %s/%s, %s, commit %s\n",
		cfg.Seed, cfg.Seconds, *trace, h.CPUs, h.GOMAXPROCS, h.GOOS, h.GOARCH, h.GoVersion, h.Commit)

	var last *workloadResult
	for _, name := range selected {
		aw := artifactWorkload{Name: name}
		for i := 0; i < *repeat; i++ {
			res, err := runWorkload(e, name, cfg)
			if err != nil {
				fatal(err)
			}
			printResult(os.Stdout, res, cfg.Trace)
			aw.Runs = append(aw.Runs, *res)
			last = res
		}
		art.Workloads = append(art.Workloads, aw)
	}

	if *outPath == "" && (len(selected) > 1 || *repeat > 1) {
		*outPath = filepath.Join(e.outDir, "run-"+time.Now().Format("20060102-150405")+".json")
	}
	if *outPath != "" {
		data, err := json.MarshalIndent(art, "", " ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*outPath, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("\nartifact: %s\n", *outPath)
	}
	if len(selected) == 1 {
		// The acceptance driver reads the last line of stdout.
		line, err := driverLine(last, cfg.Trace)
		if err != nil {
			fatal(err)
		}
		fmt.Println(line)
	}
	return 0
}
