package lp

import (
	"math"
	"sync/atomic"

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

// Solve computes the basis of the constraint subset (Tb). The empty
// subset yields the objective-optimal box corner (f(∅)).
func (d *Domain) Solve(cons []Halfspace) (Basis, error) {
	rng := numeric.NewRand(d.Seed, d.calls.Add(1))
	sol, err := Seidel(d.Prob, cons, rng)
	if err != nil {
		return Basis{}, err
	}
	return Basis{Sol: sol, Tight: tightSet(cons, sol.X)}, nil
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
