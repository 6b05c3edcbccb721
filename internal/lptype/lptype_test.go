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

func (maxDomain) Value(b maxBasis) float64 {
	if b.empty {
		return math.Inf(-1)
	}
	return b.val
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

// flatDomain is maxDomain whose small solve never raises f: the loop
// must end in ErrCycling instead of pivoting forever.
type flatDomain struct{ maxDomain }

func (flatDomain) Value(maxBasis) float64 { return 0 }

func TestSolvePivotCycling(t *testing.T) {
	if _, err := SolvePivot[float64, maxBasis](flatDomain{}, []float64{1, 2, 3}); !errors.Is(err, ErrCycling) {
		t.Fatalf("err = %v, want ErrCycling", err)
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
func (d errDomain) Value(maxBasis) float64                { return 0 }
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
