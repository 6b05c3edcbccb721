package lowdimlp

import (
	"errors"
	"math"
	"testing"

	"lowdimlp/internal/numeric"
	"lowdimlp/internal/workload"
)

func TestPublicLPAllModels(t *testing.T) {
	p, cons := workload.SphereLP(3, 30000, 101)
	want, err := SolveLP(p, cons, 1)
	if err != nil {
		t.Fatal(err)
	}
	// r = 3: at r = 2 the default net covers 30 000 rows (n ≤ 2m+1) and
	// the input ships whole, in one pass.
	opt := Options{R: 3, Seed: 7}

	ssol, sstats, err := SolveLPStreaming(p, NewSliceStream(cons), len(cons), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.ApproxEqualTol(ssol.Value, want.Value, 1e-6) {
		t.Fatalf("streaming %v vs ram %v", ssol.Value, want.Value)
	}
	if sstats.Passes < 2 {
		t.Error("streaming must report passes")
	}

	csol, cstats, err := SolveLPCoordinator(p, Partition(cons, 8), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.ApproxEqualTol(csol.Value, want.Value, 1e-6) {
		t.Fatalf("coordinator %v vs ram %v", csol.Value, want.Value)
	}
	if cstats.TotalBits == 0 {
		t.Error("coordinator must meter communication")
	}

	msol, mstats, err := SolveLPMPC(p, cons, Options{Seed: 7, Delta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.ApproxEqualTol(msol.Value, want.Value, 1e-6) {
		t.Fatalf("mpc %v vs ram %v", msol.Value, want.Value)
	}
	if mstats.Machines < 2 {
		t.Error("mpc must use multiple machines at this size")
	}
}

func TestPublicSVMAllModels(t *testing.T) {
	d := 3
	exs, _ := workload.SeparableSVM(d, 30000, 0.3, 103)
	want, err := SolveSVM(d, exs)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{R: 2, Seed: 9}

	s, _, err := SolveSVMStreaming(d, NewSliceStream(exs), len(exs), opt)
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := SolveSVMCoordinator(d, Partition(exs, 4), opt)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := SolveSVMMPC(d, exs, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range []SVMSolution{s, c, m} {
		if !numeric.ApproxEqualTol(got.Norm2, want.Norm2, 1e-5) {
			t.Fatalf("svm model solve %v vs ram %v", got.Norm2, want.Norm2)
		}
	}
}

func TestPublicSVMNotSeparable(t *testing.T) {
	exs := []SVMExample{
		{X: []float64{1, 1}, Y: 1},
		{X: []float64{1, 1}, Y: -1},
	}
	if _, err := SolveSVM(2, exs); !errors.Is(err, ErrNotSeparable) {
		t.Fatalf("expected ErrNotSeparable, got %v", err)
	}
}

func TestPublicMEBAllModels(t *testing.T) {
	d := 3
	pts := workload.MEBCloud(workload.MEBGaussian, d, 30000, 107)
	want, err := SolveMEB(pts)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{R: 2, Seed: 11}

	s, _, err := SolveMEBStreaming(d, NewSliceStream(pts), len(pts), opt)
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := SolveMEBCoordinator(d, Partition(pts, 4), opt)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := SolveMEBMPC(d, pts, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range []MEBBall{s, c, m} {
		if !numeric.ApproxEqualTol(got.R2, want.R2, 1e-6) {
			t.Fatalf("meb model solve %v vs ram %v", got.R2, want.R2)
		}
	}
}

func TestPublicFuncStream(t *testing.T) {
	// Million-constraint generated stream through the public API.
	if testing.Short() {
		t.Skip("large stream")
	}
	d, n := 2, 1_000_000
	p, _ := workload.SphereLP(d, 1, 109) // objective only
	st := NewFuncStream(n, func(i int) Halfspace { return workload.SphereLPAt(d, 109, i) })
	sol, stats, err := SolveLPStreaming(p, st, n, Options{R: 3, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	// Optimum of dense tangent constraints approaches the unit sphere:
	// objective value → −‖c‖.
	wantVal := -numeric.Norm2(p.Objective)
	if math.Abs(sol.Value-wantVal) > 1e-3*(math.Abs(wantVal)+1) {
		t.Fatalf("value %v, want ≈ %v", sol.Value, wantVal)
	}
	if stats.NetSize >= n/10 {
		t.Error("net must be far smaller than the stream")
	}
}

func TestPartition(t *testing.T) {
	parts := Partition([]int{1, 2, 3, 4, 5}, 2)
	if len(parts) != 2 || len(parts[0]) != 3 || len(parts[1]) != 2 {
		t.Fatalf("partition = %v", parts)
	}
}

func TestOptionsDefaults(t *testing.T) {
	co := Options{}.core()
	if co.R != 2 || co.NetConst != 0 {
		t.Fatalf("defaults: %+v", co)
	}
	co = Options{R: 5, NetConst: 2}.core()
	if co.R != 5 || co.NetConst != 2 {
		t.Fatalf("overrides: %+v", co)
	}
}
