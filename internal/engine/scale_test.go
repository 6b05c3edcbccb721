package engine_test

import (
	"testing"

	"lowdimlp/internal/engine"
)

// TestLPScaledRowsKeepTheirOptimum solves min −x − y/2 subject to
// x ≥ −1 and y ≥ −1, both rows multiplied by 1e300 (and, separately,
// by 1e-300), and x + y ≤ 3, on every backend at seeds 1–3. Scaling a
// row by s > 0 does not change what it means, so every solve must
// return the unscaled optimum (4, −1): Seidel equilibrates such rows by
// an exact power of two when it loads them.
func TestLPScaledRowsKeepTheirOptimum(t *testing.T) {
	m, _ := engine.Lookup("lp")
	for _, s := range []float64{1, 1e300, 1e-300} {
		inst := engine.Instance{Dim: 2, Objective: []float64{-1, -0.5}, Rows: [][]float64{
			{-s, 0, s}, {0, -s, s}, {1, 1, 3},
		}}
		for _, b := range engine.Backends() {
			for seed := uint64(1); seed <= 3; seed++ {
				sol, _, err := m.SolveInstance(b, inst, engine.Options{Seed: seed})
				if err != nil {
					t.Fatalf("scale %g, %s, seed %d: %v", s, b, seed, err)
				}
				if x, _ := sol.Vector("x"); x[0] != 4 || x[1] != -1 {
					t.Errorf("scale %g, %s, seed %d: x* = %v, want [4 -1]", s, b, seed, x)
				}
			}
		}
	}
}
