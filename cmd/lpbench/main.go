// Command lpbench runs the reproduction experiment suite (DESIGN.md §1,
// results recorded in EXPERIMENTS.md) and prints the paper-shaped
// tables.
//
// Usage:
//
//	lpbench [-experiment all|E1|E2|...|F2|A1] [-quick] [-seed N]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"lowdimlp/internal/experiments"
)

func main() {
	var (
		exp   = flag.String("experiment", "all", "experiment id (E1..E8, F1, F2, A1) or 'all'")
		quick = flag.Bool("quick", false, "shrink parameter sweeps (CI-sized run)")
		seed  = flag.Uint64("seed", 20190313, "random seed (default: the paper's arXiv date)")
	)
	flag.Parse()

	cfg := experiments.Config{Quick: *quick, Seed: *seed}
	if strings.EqualFold(*exp, "all") {
		if err := experiments.RunAll(os.Stdout, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "lpbench:", err)
			os.Exit(1)
		}
		return
	}
	e, ok := experiments.Lookup(strings.ToUpper(*exp))
	if !ok {
		fmt.Fprintf(os.Stderr, "lpbench: unknown experiment %q; available:\n", *exp)
		for _, e := range experiments.All() {
			fmt.Fprintf(os.Stderr, "  %s  %s\n", e.ID, e.Title)
		}
		os.Exit(2)
	}
	if err := experiments.RunOne(os.Stdout, e, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "lpbench:", err)
		os.Exit(1)
	}
}
