package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// compareMain prints one row per workload × end-to-end metric of two
// run artifacts (A = before, B = after) and exits non-zero when any
// metric worsens past its bound, failures rise, or the answers differ.
// A row whose run-to-run spread is wider than its bound is
// `unresolved`, not `unchanged` — unless every run of B reads better
// than every run of A.
func compareMain(args []string) int {
	if len(args) != 2 {
		usage()
		return 2
	}
	a, err := readArtifact(args[0])
	if err != nil {
		fatal(err)
	}
	b, err := readArtifact(args[1])
	if err != nil {
		fatal(err)
	}
	fmt.Printf("A: %s  seed %d  commit %s  (%d CPUs, %s)\n", args[0], a.Seed, a.Host.Commit, a.Host.CPUs, a.Host.GoVersion)
	fmt.Printf("B: %s  seed %d  commit %s  (%d CPUs, %s)\n", args[1], b.Seed, b.Host.Commit, b.Host.CPUs, b.Host.GoVersion)
	fmt.Printf("%-13s %-14s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "A median", "B median", "change", "spread", "bound", "verdict")
	bad := 0
	for _, wa := range a.Workloads {
		wb, ok := findWorkload(b, wa.Name)
		if !ok {
			fmt.Printf("%-13s missing from B\n", wa.Name)
			bad++
			continue
		}
		for _, m := range e2eMetrics {
			va, vb := values(wa, m.Name), values(wb, m.Name)
			row := judge(m, va, vb)
			fmt.Printf("%-13s %-14s %12.4f %12.4f %+7.1f%% %6.1f%% %6.0f%%  %s\n", wa.Name, m.Name,
				median(va), median(vb), row.change*100, row.spread*100, m.Bound*100, row.verdict)
			if row.verdict == "REGRESSED" {
				bad++
			}
		}
		fa, fb := failedFrac(wa), failedFrac(wb)
		verdict := "unchanged"
		if fb > fa {
			verdict = "REGRESSED"
			bad++
		}
		fmt.Printf("%-13s %-14s %12.4f %12.4f %37s\n", wa.Name, "failed_frac", fa, fb, verdict)
		if a.Seed == b.Seed {
			da, db := wa.Runs[0].AnswersDigest, wb.Runs[0].AnswersDigest
			verdict = "identical"
			if da != db {
				verdict = "DIFFERENT"
				bad++
			}
			fmt.Printf("%-13s %-14s %12.12s %12.12s %37s\n", wa.Name, "answers_digest", da, db, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("%d row(s) failed\n", bad)
		return 1
	}
	return 0
}

func readArtifact(path string) (*artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if a.Tool != "lpmark" || len(a.Workloads) == 0 {
		return nil, fmt.Errorf("%s: not an lpmark run artifact", path)
	}
	if a.Traced {
		return nil, fmt.Errorf("%s: a traced run carries no end-to-end metrics; compare untraced runs", path)
	}
	return &a, nil
}

func findWorkload(a *artifact, name string) (artifactWorkload, bool) {
	for _, w := range a.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return artifactWorkload{}, false
}

func values(w artifactWorkload, metric string) []float64 {
	var out []float64
	for _, r := range w.Runs {
		out = append(out, r.E2E[metric])
	}
	return out
}

func failedFrac(w artifactWorkload) float64 {
	var failed, attempted float64
	for _, r := range w.Runs {
		failed += float64(r.Failed)
		attempted += float64(r.Attempted)
	}
	return ratio(failed, attempted)
}

type verdictRow struct {
	change, spread float64
	verdict        string
}

// judge applies the bound to one metric: change is how much worse B's
// median is than A's (positive = worse) as a share of A's.
func judge(m metricDef, a, b []float64) verdictRow {
	ma, mb := median(a), median(b)
	change := ratio(mb-ma, ma)
	if m.Better == "higher" {
		change = -change
	}
	row := verdictRow{change: change, spread: max(spread(a), spread(b))}
	switch {
	case row.spread > m.Bound && !allBetter(m, a, b):
		row.verdict = "unresolved"
	case change > m.Bound:
		row.verdict = "REGRESSED"
	case change < -m.Bound:
		row.verdict = "improved"
	default:
		row.verdict = "unchanged"
	}
	return row
}

// allBetter reports whether every run of b reads better than every
// run of a.
func allBetter(m metricDef, a, b []float64) bool {
	sa, sb := sorted(a), sorted(b)
	if len(sa) == 0 || len(sb) == 0 {
		return false
	}
	if m.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}
