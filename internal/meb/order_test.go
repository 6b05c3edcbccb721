package meb_test

import (
	"math"
	"math/bits"
	"slices"
	"testing"

	"lowdimlp/internal/lptype"
	"lowdimlp/internal/meb"
	"lowdimlp/internal/workload"
)

// counting counts the small solves of one lptype.SolvePivot run.
type counting struct {
	*meb.Domain
	calls *int
}

func (c counting) SolveSmall(pts []meb.Point) (meb.Basis, error) {
	*c.calls++
	return c.Domain.SolveSmall(pts)
}

// TestSolveOrderFree solves gaussian and shell clouds in generator,
// reversed and sorted order: the balls agree within 1e-12, every point
// passes, and each run stays under ν²·⌈log₂(n+1)⌉ small solves.
func TestSolveOrderFree(t *testing.T) {
	for _, kind := range []workload.MEBKind{workload.MEBGaussian, workload.MEBShell} {
		for _, d := range []int{2, 3, 5} {
			pts := workload.MEBCloud(kind, d, 40_000, 7)
			rev := slices.Clone(pts)
			slices.Reverse(rev)
			sorted := slices.Clone(pts)
			slices.SortStableFunc(sorted, func(a, b meb.Point) int { return cmpFloat(a[0], b[0]) })
			var want meb.Ball
			for k, order := range [][]meb.Point{pts, rev, sorted} {
				calls := 0
				b, err := lptype.SolvePivot[meb.Point, meb.Basis](counting{meb.NewDomain(d), &calls}, order)
				if err != nil {
					t.Fatal(err)
				}
				if i := lptype.Verify[meb.Point, meb.Basis](meb.NewDomain(d), order, b); i >= 0 {
					t.Fatalf("kind %d d=%d order %d: point %d outside", kind, d, k, i)
				}
				if bound := (d + 1) * (d + 1) * bits.Len(uint(len(order))); calls > bound {
					t.Fatalf("kind %d d=%d order %d: %d small solves, bound %d", kind, d, k, calls, bound)
				}
				if k == 0 {
					want = b.B
					continue
				}
				for i, c := range want.Center {
					if math.Abs(b.B.Center[i]-c) > 1e-12*want.Radius() || math.Abs(b.B.R2-want.R2) > 1e-12*want.R2 {
						t.Errorf("kind %d d=%d order %d: %v, generator order %v", kind, d, k, b.B, want)
					}
				}
			}
		}
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}
