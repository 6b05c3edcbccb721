package lptype

import (
	"errors"
	"math"
	"slices"
	"testing"

	"lowdimlp/internal/numeric"
)

// maxDomain is the simplest LP-type problem: constraints are numbers,
// f(A) = max(A) (with f(∅) = -∞), a basis is the single maximum
// element, and c violates B iff c > max(B). Combinatorial dimension 1,
// VC dimension 1 (rays on a line).
type maxDomain struct{}

type maxBasis struct {
	val   float64
	empty bool
}

func (maxDomain) Solve(cs []float64) (maxBasis, error) {
	if len(cs) == 0 {
		return maxBasis{empty: true}, nil
	}
	b := maxBasis{val: cs[0]}
	for _, c := range cs[1:] {
		if c > b.val {
			b.val = c
		}
	}
	return b, nil
}

func (maxDomain) Basis(b maxBasis) []float64 {
	if b.empty {
		return nil
	}
	return []float64{b.val}
}

func (maxDomain) Violates(b maxBasis, c float64) bool {
	return b.empty || c > b.val
}

func (maxDomain) CombinatorialDim() int { return 1 }
func (maxDomain) VCDim() int            { return 1 }

func (d maxDomain) SolveSmall(cs []float64) (maxBasis, error) { return d.Solve(cs) }

func (d maxDomain) FirstViolator(b maxBasis, cs []float64) int {
	return slices.IndexFunc(cs, func(c float64) bool { return d.Violates(b, c) })
}

// MaxSmall is ν+1: the loop pivots over its sample.
func (maxDomain) MaxSmall() int { return 2 }

func (maxDomain) Less(a, b maxBasis) bool {
	f := func(b maxBasis) float64 {
		if b.empty {
			return math.Inf(-1)
		}
		return b.val
	}
	return f(a) < f(b)
}

func TestVerify(t *testing.T) {
	dom := maxDomain{}
	s := []float64{3, 1, 4, 1, 5}
	b, err := dom.Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := Verify[float64, maxBasis](dom, s, b); got != -1 {
		t.Errorf("Verify = %d, want -1", got)
	}
	bad, _ := dom.Solve(s[:2]) // max = 3
	if got := Verify[float64, maxBasis](dom, s, bad); got != 2 {
		t.Errorf("Verify = %d, want 2 (first violator)", got)
	}
}

func TestBruteForceMax(t *testing.T) {
	dom := maxDomain{}
	s := []float64{2, 9, 4}
	b, err := BruteForce[float64, maxBasis](dom, s)
	if err != nil {
		t.Fatal(err)
	}
	if b.val != 9 {
		t.Errorf("brute force basis %v, want 9", b.val)
	}
	// Empty set: the empty basis (every element violates it) cannot be
	// certified, so brute force must find the singleton {9}.
	if _, err := BruteForce[float64, maxBasis](dom, nil); err != nil {
		t.Errorf("empty input must succeed with the empty basis: %v", err)
	}
}

func TestSolvePivotMax(t *testing.T) {
	dom := maxDomain{}
	rng := numeric.NewRand(1, 2)
	s := make([]float64, 500)
	for i := range s {
		s[i] = rng.Float64() * 100
	}
	s[137] = 1000
	b, err := SolvePivot[float64, maxBasis](dom, s)
	if err != nil {
		t.Fatal(err)
	}
	if b.val != 1000 {
		t.Errorf("pivot basis %v, want 1000", b.val)
	}
	// Sorted input, ascending and descending, and the empty set.
	slices.Sort(s)
	if b, err := SolvePivot[float64, maxBasis](dom, s); err != nil || b.val != 1000 {
		t.Errorf("ascending input: %v %v", b.val, err)
	}
	slices.Reverse(s)
	if b, err := SolvePivot[float64, maxBasis](dom, s); err != nil || b.val != 1000 {
		t.Errorf("descending input: %v %v", b.val, err)
	}
	if b, err := SolvePivot[float64, maxBasis](dom, nil); err != nil || !b.empty {
		t.Errorf("empty input: %v %v", b, err)
	}
}

// wholeDomain is maxDomain with a small solve that takes any number
// of constraints, counting the size of each call.
type wholeDomain struct {
	maxDomain
	sizes *[]int
}

func (wholeDomain) MaxSmall() int { return math.MaxInt }

func (d wholeDomain) SolveSmall(cs []float64) (maxBasis, error) {
	*d.sizes = append(*d.sizes, len(cs))
	return d.Solve(cs)
}

// TestSolvePivotStart pins where the loop starts: SolvePivot solves a
// sample of ν·⌈√n⌉ rows by itself, level below level, until the sample
// would be at least half of the set (at ν = 1: 500 → 23 → 5 rows, and
// 60 000 → 245 → 16 → 4). There a small solve that takes the whole set
// solves it in one call, and one that takes ν+1 rows starts from ∅.
// No small solve takes more than (2ν+1)² rows.
func TestSolvePivotStart(t *testing.T) {
	s := make([]float64, 60_000)
	for i := range s {
		s[i] = float64(i % 97)
	}
	for _, c := range []struct {
		n     int
		whole bool
		first int
	}{
		{500, true, 5}, {60_000, true, 4}, {3, true, 3},
		{500, false, 0}, {3, false, 0}, {2, false, 2},
	} {
		var sizes []int
		var dom Small[float64, maxBasis] = countingMax{maxDomain{}, &sizes}
		if c.whole {
			dom = wholeDomain{maxDomain{}, &sizes}
		}
		b, err := SolvePivot(dom, s[:c.n])
		if err != nil || b.val != float64(min(c.n, 97)-1) {
			t.Fatalf("n=%d whole=%v: basis %v, err %v", c.n, c.whole, b.val, err)
		}
		if sizes[0] != c.first {
			t.Errorf("n=%d whole=%v: first small solve of %d rows, want %d", c.n, c.whole, sizes[0], c.first)
		}
		if most := slices.Max(sizes); most > 9 {
			t.Errorf("n=%d whole=%v: a small solve of %d rows, more than (2ν+1)² = 9", c.n, c.whole, most)
		}
	}
}

// countingMax is maxDomain counting the size of each small solve.
type countingMax struct {
	maxDomain
	sizes *[]int
}

func (d countingMax) SolveSmall(cs []float64) (maxBasis, error) {
	*d.sizes = append(*d.sizes, len(cs))
	return d.Solve(cs)
}

// fallingDomain is maxDomain with f reversed: every pivot lowers it,
// so the loop must end in ErrCycling instead of pivoting on.
type fallingDomain struct{ maxDomain }

func (fallingDomain) Less(a, b maxBasis) bool { return maxDomain{}.Less(b, a) }

// stuckDomain's small solve leaves out the violator it is given: f
// stays where it was and the violator stays violated, so the loop
// counts it satisfied and keeps its basis.
type stuckDomain struct{ maxDomain }

func (d stuckDomain) SolveSmall(cs []float64) (maxBasis, error) {
	return d.Solve(cs[:max(len(cs)-1, 0)])
}

// swapDomain is LP-type in nothing: each row is violated by every basis
// but its own, and the small solve answers with the violator alone, at
// the same f. Every pivot satisfies its violator and undoes the last,
// so the loop must stop after n such pivots.
type swapDomain struct{ maxDomain }

func (swapDomain) Less(maxBasis, maxBasis) bool { return false }

func (swapDomain) SolveSmall(cs []float64) (maxBasis, error) {
	if len(cs) == 0 {
		return maxBasis{empty: true}, nil
	}
	return maxBasis{val: cs[len(cs)-1]}, nil
}

func (swapDomain) FirstViolator(b maxBasis, cs []float64) int {
	return slices.IndexFunc(cs, func(c float64) bool { return b.empty || c != b.val })
}

func TestSolvePivotCycling(t *testing.T) {
	s := []float64{1, 2, 3}
	if _, err := SolvePivot[float64, maxBasis](fallingDomain{}, s); !errors.Is(err, ErrCycling) {
		t.Errorf("falling f: err = %v, want ErrCycling", err)
	}
	if b, err := SolvePivot[float64, maxBasis](stuckDomain{}, s); err != nil || !b.empty {
		t.Errorf("stuck small solve: basis %v, err %v; want the basis of ∅", b, err)
	}
	if _, err := SolvePivot[float64, maxBasis](swapDomain{}, s); !errors.Is(err, ErrCycling) {
		t.Errorf("swapping bases: err = %v, want ErrCycling", err)
	}
}

// TestGramEnumeration pins the order Gram.Solve tries subsets in when
// the active-set path gives up at once (its first entering constraint,
// the least margin, is already in the start subset): largest first,
// then in increasing mask order within a size, stopping at the first
// certified feasible candidate.
func TestGramEnumeration(t *testing.T) {
	var got []uint64
	// Four unit margins on one vector in R^2: every subset of two is
	// dependent, every single one has the same point.
	g := Gram{V: []float64{1, 0, 1, 0, 1, 0, 1, 0}, D: 2, R: []float64{1, 1, 1, 1}, Start: 0b0001,
		Feasible: func(x []float64, mask uint64) (float64, bool) {
			got = append(got, mask)
			return x[0], mask == 0b1000
		}}
	mask, x, f := g.Solve()
	want := []uint64{0b0001, 0b0001, 0b0010, 0b0100, 0b1000}
	if !slices.Equal(got, want) || mask != 0b1000 || x[0] != 1 || f != 1 {
		t.Fatalf("tried %b, answer %b %v %v; want %b, 1000 [1 0] 1", got, mask, x, f, want)
	}
}

// errDomain fails on every solve with a designated error.
type errDomain struct{ err error }

func (d errDomain) Solve([]float64) (maxBasis, error) { return maxBasis{}, d.err }
func (d errDomain) Basis(maxBasis) []float64          { return nil }
func (d errDomain) Violates(maxBasis, float64) bool   { return false }
func (d errDomain) CombinatorialDim() int             { return 1 }
func (d errDomain) VCDim() int                        { return 1 }
func (d errDomain) SolveSmall([]float64) (maxBasis, error) {
	return maxBasis{}, d.err
}
func (d errDomain) MaxSmall() int                         { return 2 }
func (d errDomain) Less(maxBasis, maxBasis) bool          { return false }
func (d errDomain) FirstViolator(maxBasis, []float64) int { return -1 }

func TestErrorPropagation(t *testing.T) {
	dom := errDomain{err: ErrInfeasible}
	if _, err := SolvePivot[float64, maxBasis](dom, []float64{1, 2}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("pivot: %v", err)
	}
	if _, err := BruteForce[float64, maxBasis](dom, []float64{1, 2}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("brute force: %v", err)
	}
}
