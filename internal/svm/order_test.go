package svm_test

import (
	"math"
	"math/bits"
	"slices"
	"testing"

	"lowdimlp/internal/lptype"
	"lowdimlp/internal/svm"
	"lowdimlp/internal/workload"
)

// counting counts the small solves of one lptype.SolvePivot run.
type counting struct {
	*svm.Domain
	calls *int
}

func (c counting) SolveSmall(exs []svm.Example) (svm.Basis, error) {
	*c.calls++
	return c.Domain.SolveSmall(exs)
}

// solveChecked solves exs, checks the answer against every example and
// the small-solve count against ν²·⌈log₂(n+1)⌉, and returns it.
func solveChecked(t *testing.T, d int, exs []svm.Example) svm.Basis {
	t.Helper()
	calls := 0
	b, err := lptype.SolvePivot[svm.Example, svm.Basis](counting{svm.NewDomain(d), &calls}, exs)
	if err != nil {
		t.Fatal(err)
	}
	if i := lptype.Verify[svm.Example, svm.Basis](svm.NewDomain(d), exs, b); i >= 0 {
		t.Fatalf("example %d violates the answer", i)
	}
	if bound := (d + 1) * (d + 1) * bits.Len(uint(len(exs))); calls > bound {
		t.Fatalf("%d small solves, bound %d", calls, bound)
	}
	return b
}

// TestSolveStuckSeeds solves the separable instances (d = 3, n = 100 000,
// margin 0.5) on which Wolfe's loop, the solver before lptype.SolvePivot,
// never returned.
func TestSolveStuckSeeds(t *testing.T) {
	for _, seed := range []uint64{23, 24, 36} {
		exs, _ := workload.SeparableSVM(3, 100_000, 0.5, seed)
		solveChecked(t, 3, exs)
	}
}

// TestSolveOrderFree solves one instance in generator, reversed and
// sorted order: the answers agree within 1e-12 and each run stays
// under the pivot bound.
func TestSolveOrderFree(t *testing.T) {
	for _, d := range []int{2, 3, 5} {
		exs, _ := workload.SeparableSVM(d, 40_000, 0.5, 7)
		want := solveChecked(t, d, exs)
		rev := slices.Clone(exs)
		slices.Reverse(rev)
		sorted := slices.Clone(exs)
		slices.SortStableFunc(sorted, func(a, b svm.Example) int { return cmpFloat(a.X[0], b.X[0]) })
		for name, order := range map[string][]svm.Example{"reversed": rev, "sorted": sorted} {
			got := solveChecked(t, d, order)
			for i, u := range want.Sol.U {
				if math.Abs(got.Sol.U[i]-u) > 1e-12*math.Sqrt(want.Sol.Norm2) {
					t.Errorf("d=%d %s: u = %v, generator order %v", d, name, got.Sol.U, want.Sol.U)
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
