package lp

import (
	"math"
	"math/rand/v2"
	"slices"
	"sync/atomic"

	"lowdimlp/internal/lptype"
	"lowdimlp/internal/numeric"
)

// Basis is the LP-type basis produced by Domain.Solve: the
// lexicographically smallest optimal point of the solved subset,
// together with the subset's tight constraints.
//
// The violation test (property (P2) of the paper) needs only the point
// X: a constraint violates the basis iff X fails to satisfy it. The
// tight constraints are a determining set — re-solving on them alone
// reproduces X — and are what gets stored or shipped when a "basis"
// must be represented by constraints (e.g. lptype.SolvePivot).
type Basis struct {
	Sol   Solution
	Tight []Halfspace
}

// Own returns b with its tight constraints copied into one allocation
// of their own. A constraint decoded from a wire row aliases that row,
// so a basis kept past its solve (a warm-start cache entry) would
// otherwise keep the whole input it was solved from alive. The copy is
// exact.
func (b Basis) Own() Basis {
	b.Tight = numeric.CloneRows(b.Tight, func(h *Halfspace) *[]float64 { return &h.A })
	return b
}

// Domain adapts a linear program to the lptype.Domain interface,
// providing the Tb (basis computation) and Tv (violation test)
// primitives of Proposition 4.1. It is safe for concurrent use: Solve
// derives a private shuffle stream per call.
type Domain struct {
	Prob Problem
	// Seed drives the per-call shuffle streams.
	Seed uint64

	calls atomic.Uint64
}

// NewDomain returns an LP domain for the problem with the given seed.
func NewDomain(p Problem, seed uint64) *Domain {
	return &Domain{Prob: p, Seed: seed}
}

// Solve computes the basis of the constraint subset (Tb) by
// lptype.SolvePivot over Seidel. The empty subset yields the
// objective-optimal box corner (f(∅)).
func (d *Domain) Solve(cons []Halfspace) (Basis, error) {
	return lptype.SolvePivot[Halfspace, Basis](d.call(), cons)
}

// solveCall is one Solve call of d: its small solves draw their
// shuffles from one private stream, in the order the loop makes them.
type solveCall struct {
	*Domain
	rng *rand.Rand
}

func (d *Domain) call() solveCall {
	return solveCall{d, numeric.NewRand(d.Seed, d.calls.Add(1))}
}

// SolveSmall is Seidel on cons, any number of them, with the tight set
// as the basis's determining set.
func (c solveCall) SolveSmall(cons []Halfspace) (Basis, error) {
	sol, err := Seidel(c.Prob, cons, c.rng)
	if err != nil {
		return Basis{}, err
	}
	return Basis{Sol: sol, Tight: tightSet(cons, sol.X)}, nil
}

// MaxSmall reports that Seidel takes any number of constraints.
func (d *Domain) MaxSmall() int { return math.MaxInt }

// Less orders bases by f, the lexicographic (Objective·x, x), beyond
// rounding (LexLess).
func (d *Domain) Less(a, b Basis) bool {
	w := 0.0
	for _, c := range d.Prob.Objective {
		w += math.Abs(c)
	}
	return LexLess(a.Sol.Value, b.Sol.Value, w, a.Sol.X, b.Sol.X)
}

// lexTol is LexLess's rounding band, relative to the largest
// coordinate: a hundredth of seidelTol, and a hundred times the 1e-14
// by which Seidel solves of one LP were seen to differ.
const lexTol = 1e-12

// LexLess reports whether (fb, b) exceeds (fa, a) lexicographically by
// more than rounding, where f is an objective value with |f| ≤ w·max|x|
// and a and b are the points. A Seidel point is accurate relative to
// its largest coordinate, not coordinate by coordinate: every row test
// sums that coordinate's term. So with S = 1 + max(|a_i|, |b_i|), the
// first component that differs by more than lexTol·S (lexTol·(1+w·S)
// for f) decides, and points equal within that are not ordered.
func LexLess(fa, fb, w float64, a, b []float64) bool {
	s := 1.0
	for i := range a {
		s = max(s, 1+math.Abs(a[i]), 1+math.Abs(b[i]))
	}
	if d := fb - fa; math.Abs(d) > lexTol*(1+w*s) {
		return d > 0
	}
	for i := range a {
		if d := b[i] - a[i]; math.Abs(d) > lexTol*s {
			return d > 0
		}
	}
	return false
}

// FirstViolator returns the index of the first constraint of cons that
// b's point violates by Seidel's own row test, or -1. A row of the
// wrong length counts as violated, so that the small solve reports it.
func (d *Domain) FirstViolator(b Basis, cons []Halfspace) int {
	x := b.Sol.X
	return slices.IndexFunc(cons, func(h Halfspace) bool { return len(h.A) != len(x) || RowViolates(h.A, h.B, x) })
}

// Basis returns the tight constraints of b.
func (d *Domain) Basis(b Basis) []Halfspace { return b.Tight }

// Violates reports whether c violates b: f(B ∪ {c}) > f(B), which by
// property (P2) holds exactly when b's solution point fails to satisfy
// c (Tv).
func (d *Domain) Violates(b Basis, c Halfspace) bool {
	return !c.Satisfied(b.Sol.X)
}

// ViolatesRow is the columnar violation test: the constraint is read
// straight from its wire row a_1…a_d b (no halfspace materialized).
// The value-typed Halfspace view aliases the row on the stack, so this
// is allocation-free and bit-identical to Violates over Item(row).
func (d *Domain) ViolatesRow(b Basis, row []float64) bool {
	dim := d.Prob.Dim
	return !(Halfspace{A: row[:dim], B: row[dim]}).Satisfied(b.Sol.X)
}

// CombinatorialDim returns ν = d+1 (Matoušek–Sharir–Welzl bound for
// linear programming, quoted in §4.1).
func (d *Domain) CombinatorialDim() int { return d.Prob.Dim + 1 }

// VCDim returns λ = d+1 (halfspaces in R^d, quoted in §4.1).
func (d *Domain) VCDim() int { return d.Prob.Dim + 1 }

// tightSet returns the constraints tight at x. The tight set is always
// a determining set for the lexicographic optimum: any point that is
// feasible for it and lexicographically smaller would, by convexity,
// yield a feasible improvement for the full subset as well.
func tightSet(cons []Halfspace, x []float64) []Halfspace {
	var out []Halfspace
	for _, h := range cons {
		e := h.Eval(x)
		if math.Abs(e) <= 64*violationSlack(h, x) {
			out = append(out, h)
		}
	}
	return out
}
