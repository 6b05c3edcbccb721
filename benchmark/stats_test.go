package main

import (
	"math"
	"testing"
)

// The "ten samples beyond" rule: a percentile is reported only when at
// least ten samples lie above its rank, which is why every workload
// times at least 100 ops for its p90.
func TestTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	p90, beyond := percentile(xs, 90)
	if p90 != 90 || beyond != 10 {
		t.Fatalf("p90 of 1..100 = %v with %d beyond, want 90 with 10", p90, beyond)
	}
	if _, beyond := percentile(xs[:99], 90); beyond != 9 {
		t.Fatalf("99 samples leave %d beyond p90, want 9", beyond)
	}
	for _, w := range workloads {
		if w.minOps-int(math.Ceil(0.9*float64(w.minOps))) < minBeyond {
			t.Errorf("%s: an op floor of %d leaves fewer than %d samples beyond p90", w.Name, w.minOps, minBeyond)
		}
	}
	if v, b := percentile(nil, 90); v != 0 || b != 0 {
		t.Errorf("empty percentile = %v, %d", v, b)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// the rule the acceptance check applies to ten runs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{2, 4}, 1.5, 4.5}, // two values: the cut points extrapolate
		{[]float64{5, 1, 3}, 1, 5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{9, 10, 11, 10, 10, 9, 11, 10, 10, 10}); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("spread = %v, want 0.05", got)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
}
