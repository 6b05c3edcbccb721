package lptype

import (
	"errors"
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
	b, err := SolvePivot[float64, maxBasis](dom, s, rng)
	if err != nil {
		t.Fatal(err)
	}
	if b.val != 1000 {
		t.Errorf("pivot basis %v, want 1000", b.val)
	}
	// nil rng (deterministic scan) works too.
	b, err = SolvePivot[float64, maxBasis](dom, s, nil)
	if err != nil || b.val != 1000 {
		t.Errorf("pivot with nil rng: %v %v", b.val, err)
	}
}

// errDomain fails on every solve with a designated error.
type errDomain struct{ err error }

func (d errDomain) Solve([]float64) (maxBasis, error) { return maxBasis{}, d.err }
func (d errDomain) Basis(maxBasis) []float64          { return nil }
func (d errDomain) Violates(maxBasis, float64) bool   { return false }
func (d errDomain) CombinatorialDim() int             { return 1 }
func (d errDomain) VCDim() int                        { return 1 }

func TestErrorPropagation(t *testing.T) {
	dom := errDomain{err: ErrInfeasible}
	if _, err := SolvePivot[float64, maxBasis](dom, []float64{1, 2}, nil); !errors.Is(err, ErrInfeasible) {
		t.Errorf("pivot: %v", err)
	}
	if _, err := BruteForce[float64, maxBasis](dom, []float64{1, 2}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("brute force: %v", err)
	}
}
