package lowdimlp

import (
	"errors"
	"math"
	"path/filepath"
	"testing"

	"lowdimlp/internal/dataset"
	"lowdimlp/internal/numeric"
	"lowdimlp/internal/workload"
)

// generate draws an instance from a registered kind's generator family.
func generate(t testing.TB, kind, family string, p GenParams) Instance {
	t.Helper()
	m, ok := LookupKind(kind)
	if !ok {
		t.Fatalf("kind %q not registered", kind)
	}
	inst, err := m.Generate(family, p)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// solve runs SolveInstance and fails the test on an error.
func solve(t testing.TB, kind, backend string, inst Instance, opt Options) (Solution, SolveStats) {
	t.Helper()
	sol, stats, err := SolveInstance(kind, backend, inst, opt)
	if err != nil {
		t.Fatalf("%s on %s: %v", kind, backend, err)
	}
	return sol, stats
}

func scalar(sol Solution, key string) float64 {
	v, _ := sol.Scalar(key)
	return v
}

func TestPublicLPAllModels(t *testing.T) {
	inst := generate(t, "lp", "sphere", GenParams{N: 30000, D: 3, Seed: 101})
	want, _ := solve(t, "lp", "ram", inst, Options{Seed: 1})
	// r = 3: at r = 2 the default net covers 30 000 rows (n ≤ 2m+1) and
	// the input ships whole, in one pass.
	opt := Options{R: 3, Seed: 7, K: 8}

	ssol, sstats := solve(t, "lp", "stream", inst, opt)
	if !numeric.ApproxEqualTol(scalar(ssol, "value"), scalar(want, "value"), 1e-6) {
		t.Fatalf("streaming %v vs ram %v", scalar(ssol, "value"), scalar(want, "value"))
	}
	if sstats.Stream.Passes < 2 {
		t.Error("streaming must report passes")
	}

	csol, cstats := solve(t, "lp", "coordinator", inst, opt)
	if !numeric.ApproxEqualTol(scalar(csol, "value"), scalar(want, "value"), 1e-6) {
		t.Fatalf("coordinator %v vs ram %v", scalar(csol, "value"), scalar(want, "value"))
	}
	if cstats.Coordinator.TotalBits == 0 {
		t.Error("coordinator must meter communication")
	}

	msol, mstats := solve(t, "lp", "mpc", inst, Options{Seed: 7, Delta: 0.5})
	if !numeric.ApproxEqualTol(scalar(msol, "value"), scalar(want, "value"), 1e-6) {
		t.Fatalf("mpc %v vs ram %v", scalar(msol, "value"), scalar(want, "value"))
	}
	if mstats.MPC.Machines < 2 {
		t.Error("mpc must use multiple machines at this size")
	}
}

func TestPublicSVMAllModels(t *testing.T) {
	inst := generate(t, "svm", "separable", GenParams{N: 30000, D: 3, Seed: 103, Margin: 0.3})
	want, _ := solve(t, "svm", "ram", inst, Options{})
	opt := Options{R: 2, Seed: 9, K: 4}

	s, _ := solve(t, "svm", "stream", inst, opt)
	c, _ := solve(t, "svm", "coordinator", inst, opt)
	m, _ := solve(t, "svm", "mpc", inst, Options{Seed: 9})
	for _, got := range []Solution{s, c, m} {
		if !numeric.ApproxEqualTol(scalar(got, "norm2"), scalar(want, "norm2"), 1e-5) {
			t.Fatalf("svm model solve %v vs ram %v", scalar(got, "norm2"), scalar(want, "norm2"))
		}
	}
}

// TestPublicSVMNotSeparable: the typed solve errors reach a
// SolveInstance caller on every backend, testable with errors.Is and
// the package's own error values.
func TestPublicSVMNotSeparable(t *testing.T) {
	infeasible := Instance{Dim: 1, Objective: []float64{1}}
	for i := 0; i < 2000; i++ { // x ≥ 5 and x ≤ 3
		infeasible.Rows = append(infeasible.Rows, []float64{-1, -5}, []float64{1, 3})
	}
	for _, c := range []struct {
		kind string
		inst Instance
		want error
	}{
		{"svm", Instance{Dim: 2, Rows: [][]float64{{1, 1, 1}, {1, 1, -1}}}, ErrNotSeparable},
		{"lp", infeasible, ErrInfeasible},
	} {
		for _, backend := range Backends() {
			_, _, err := SolveInstance(c.kind, backend, c.inst, Options{R: 2, Seed: 5})
			if !errors.Is(err, c.want) {
				t.Errorf("%s on %s: error %v, want %v", c.kind, backend, err, c.want)
			}
		}
	}
}

func TestPublicMEBAllModels(t *testing.T) {
	inst := generate(t, "meb", "gaussian", GenParams{N: 30000, D: 3, Seed: 107})
	want, _ := solve(t, "meb", "ram", inst, Options{})
	opt := Options{R: 2, Seed: 11, K: 4}

	s, _ := solve(t, "meb", "stream", inst, opt)
	c, _ := solve(t, "meb", "coordinator", inst, opt)
	m, _ := solve(t, "meb", "mpc", inst, Options{Seed: 11})
	for _, got := range []Solution{s, c, m} {
		if !numeric.ApproxEqualTol(scalar(got, "radius"), scalar(want, "radius"), 1e-6) {
			t.Fatalf("meb model solve %v vs ram %v", scalar(got, "radius"), scalar(want, "radius"))
		}
	}
}

// genSource is a dataset.Source of n rows, each generated on demand by
// fill into the cursor's batch arena: the rows are never materialized.
type genSource struct {
	n, width int
	fill     func(row []float64, i int)
}

func (s genSource) Width() int                { return s.width }
func (s genSource) Rows() int                 { return s.n }
func (s genSource) NewCursor() dataset.Cursor { return &genCursor{src: s} }

type genCursor struct {
	src   genSource
	pos   int
	arena []float64
}

func (c *genCursor) Reset() error { c.pos = 0; return nil }

func (c *genCursor) Next(batch []dataset.Row) (int, error) {
	w := c.src.width
	if len(c.arena) < len(batch)*w {
		c.arena = make([]float64, len(batch)*w)
	}
	k := 0
	for ; k < len(batch) && c.pos < c.src.n; k++ {
		row := c.arena[k*w : (k+1)*w : (k+1)*w]
		c.src.fill(row, c.pos)
		batch[k] = row
		c.pos++
	}
	return k, nil
}

// TestPublicFuncStream: a million generated constraints, written to a
// dataset file one row at a time and solved out of core through the
// public API.
func TestPublicFuncStream(t *testing.T) {
	if testing.Short() {
		t.Skip("large stream")
	}
	d, n := 2, 1_000_000
	p, _ := workload.SphereLP(d, 1, 109) // objective only
	path := filepath.Join(t.TempDir(), "sphere.lds")
	src := genSource{n: n, width: d + 1, fill: func(row []float64, i int) {
		h := workload.SphereLPAt(d, 109, i)
		copy(row, h.A)
		row[d] = h.B
	}}
	info := dataset.Info{Kind: "lp", Dim: d, Width: d + 1, Objective: p.Objective, Rows: n}
	if err := dataset.WriteFile(path, info, src); err != nil {
		t.Fatal(err)
	}
	sol, stats, err := SolveDatasetFile(path, "stream", Options{R: 3, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	// Optimum of dense tangent constraints approaches the unit sphere:
	// objective value → −‖c‖.
	wantVal := -numeric.Norm2(p.Objective)
	if v := scalar(sol, "value"); math.Abs(v-wantVal) > 1e-3*(math.Abs(wantVal)+1) {
		t.Fatalf("value %v, want ≈ %v", v, wantVal)
	}
	if stats.Stream.NetSize >= n/10 {
		t.Error("net must be far smaller than the stream")
	}
}

func TestOptionsDefaults(t *testing.T) {
	co := Options{}.Core()
	if co.R != 2 || co.NetConst != 0 {
		t.Fatalf("defaults: %+v", co)
	}
	co = Options{R: 5, NetConst: 2}.Core()
	if co.R != 5 || co.NetConst != 2 {
		t.Fatalf("overrides: %+v", co)
	}
}
