package lp

import (
	"errors"
	"math"
	"slices"
	"testing"

	"lowdimlp/internal/lptype"
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
// family of TestSeidelMatchesReference, or the same typed error; at
// d ≥ 5 also on 3 000 rows (two seeds), where the pivot loop solves
// its sample by itself twice over before the first Seidel call.
func TestPivotMatchesSeidelRef(t *testing.T) {
	for family := range numFamilies {
		t.Run(familyNames[family], func(t *testing.T) {
			worst := 0.0
			for d := 1; d <= 6; d++ {
				ms := []int{0, 1, d, 50, 700}
				if d >= 5 {
					ms = append(ms, 3000)
				}
				for _, m := range ms {
					seeds := uint64(5)
					if m > 700 {
						seeds = 2 // seidelRef over 3 000 rows is slow
					}
					for seed := range seeds {
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

// TestSolvePivotSmallSolvesStaySmall: the pivot loop solves its sample
// by SolvePivot itself, so no Seidel call of Domain.Solve takes more
// than (2ν+1)² rows on lp/sphere at lpmark's sizes.
func TestSolvePivotSmallSolvesStaySmall(t *testing.T) {
	for _, c := range []struct{ d, n int }{{3, 60_000}, {5, 6_000}} {
		p, cons := refInstance(famSphere, c.d, c.n, 1)
		var sizes []int
		if _, err := lptype.SolvePivot[Halfspace, Basis](counting{NewDomain(p, 1).call(), &sizes}, cons); err != nil {
			t.Fatal(err)
		}
		nu := c.d + 1
		if most := slices.Max(sizes); most > (2*nu+1)*(2*nu+1) {
			t.Errorf("d=%d n=%d: a Seidel call on %d rows, more than (2ν+1)² = %d", c.d, c.n, most, (2*nu+1)*(2*nu+1))
		}
	}
}
