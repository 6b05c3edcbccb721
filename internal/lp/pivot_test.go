package lp

import (
	"errors"
	"math"
	"testing"

	"lowdimlp/internal/numeric"
)

// relDiff returns max_i |got_i − want_i| / max(1, max_i |want_i|).
func relDiff(got, want []float64) float64 {
	scale, diff := 1.0, 0.0
	for i, w := range want {
		scale = max(scale, math.Abs(w))
		diff = max(diff, math.Abs(got[i]-w))
	}
	return diff / scale
}

// TestPivotMatchesSeidelRef: Domain.Solve, lptype.SolvePivot over
// Seidel, returns seidelRef's answer within 1e-12 relative on every
// family of TestSeidelMatchesReference, or the same typed error.
func TestPivotMatchesSeidelRef(t *testing.T) {
	for family := range numFamilies {
		t.Run(familyNames[family], func(t *testing.T) {
			worst := 0.0
			for d := 1; d <= 6; d++ {
				for _, m := range []int{0, 1, d, 50, 700} {
					for seed := uint64(0); seed < 5; seed++ {
						p, cons := refInstance(family, d, m, seed+uint64(100*d+m))
						want, werr := seidelRef(p, cons, numeric.NewRand(seed, 77))
						got, gerr := NewDomain(p, seed).Solve(cons)
						if werr != nil || gerr != nil {
							if !errors.Is(gerr, werr) || !errors.Is(werr, gerr) {
								t.Fatalf("d=%d m=%d seed %d: error %v, reference %v", d, m, seed, gerr, werr)
							}
							continue
						}
						diff := relDiff(append([]float64{got.Sol.Value}, got.Sol.X...), append([]float64{want.Value}, want.X...))
						if worst = max(worst, diff); diff > 1e-12 {
							t.Fatalf("d=%d m=%d seed %d: x = %v, reference %v (%.2g relative)", d, m, seed, got.Sol.X, want.X, diff)
						}
					}
				}
			}
			t.Logf("largest relative difference %.2g", worst)
		})
	}
}
