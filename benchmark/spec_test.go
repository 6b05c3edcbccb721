package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json is the catalogue rendered; regenerate it with
// `go run . manifest > ../BENCHMARK.json` after changing spec.go.
func TestManifestMatchesCatalogue(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("BENCHMARK.json is stale: run `go run . manifest > ../BENCHMARK.json` in benchmark/")
	}
}

// The limits the acceptance driver enforces before it runs anything.
func TestCatalogueWithinContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	layers := perLayerMetrics()
	if len(layers) < 1 || len(layers) > 128 || len(e2eMetrics) > 16 || len(workloads) < 2 || len(workloads) > 8 {
		t.Fatalf("%d per-layer, %d end-to-end metrics, %d workloads", len(layers), len(e2eMetrics), len(workloads))
	}
	hasSetup := false
	for _, m := range e2eMetrics {
		check(m.Name)
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %+v breaks the contract", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) is missing")
	}
	for _, m := range layers {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("per-layer metric %+v has a malformed unit", m)
		}
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
}

// The driver's result line carries exactly the metrics of its mode.
func TestDriverLine(t *testing.T) {
	res := &workloadResult{Correct: true, Attempted: 5, E2E: map[string]float64{"op_p50_ms": 1.5}, Layers: map[string]float64{"lp.basis_share": 0.5}}
	for _, traced := range []bool{false, true} {
		line, err := driverLine(res, traced)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatal(err)
		}
		want := len(e2eMetrics)
		if traced {
			want = len(perLayerMetrics())
		}
		if len(got.Metrics) != want || !got.Correct || got.Attempted != 5 {
			t.Errorf("traced=%v: %d metrics (want %d), line %s", traced, len(got.Metrics), want, line)
		}
	}
}
