package lp

import (
	"math"
	"math/big"
	"testing"

	"lowdimlp/internal/numeric"
)

// boxRows is the box |x_i| ≤ box written out as 2d explicit rows.
func boxRows(d int, box float64) []Halfspace {
	rows := make([]Halfspace, 0, 2*d)
	for i := 0; i < d; i++ {
		for _, s := range []float64{1, -1} {
			a := make([]float64, d)
			a[i] = s
			rows = append(rows, Halfspace{A: a, B: box})
		}
	}
	return rows
}

// ratValue solves p over cons with RatSeidel in input order and
// returns the objective value of its answer, rounded to float64.
func ratValue(t *testing.T, p Problem, cons []Halfspace) float64 {
	t.Helper()
	obj := make([]*big.Rat, p.Dim)
	for i, c := range p.Objective {
		obj[i] = new(big.Rat).SetFloat64(c)
	}
	rcons := make([]RatHalfspace, len(cons))
	for i, h := range cons {
		rcons[i] = NewRatHalfspace(h)
	}
	x, err := RatSeidel(obj, rcons, new(big.Rat).SetFloat64(p.box()), nil)
	if err != nil {
		t.Fatalf("RatSeidel: %v", err)
	}
	v := new(big.Rat)
	for i := range x {
		v.Add(v, new(big.Rat).Mul(obj[i], x[i]))
	}
	f, _ := v.Float64()
	return f
}

// TestSeidelKeepsItsBox: Seidel's answer is the optimum over its box.
// A level's corner puts each remaining coordinate on the box, and a
// coordinate that a violation eliminates keeps its box as two rows in
// front of the next level's prefix, so every level sees the whole box.
// Without those rows the answer left the box (the first case: every
// solver returned x = (−2·10⁹, 10⁹, 10⁹), value −10⁹), and explicit
// box rows in the input did not cure it (the second case: a level's
// subproblem holds only the rows before the violated one, and the
// recursion settled on a feasible vertex of value −4.0097·10⁹ in input
// order and in 617 of 2 000 shuffles). RatSeidel, in exact arithmetic,
// shares the box rows, so it answers the same. The oracle is the
// test-only simplex given the box as explicit rows.
func TestSeidelKeepsItsBox(t *testing.T) {
	// d = 3, objective (1, ½, ½), the one row −x₁−x₂−x₃ ≤ 0: the
	// boxed optimum is −5·10⁸.
	minimal := NewProblem([]float64{1, 0.5, 0.5})
	minimalRows := []Halfspace{hs(0, -1, -1, -1)}

	// d = 6: the 12 box rows, then 4 rows tangent to the unit sphere.
	// The boxed optimum is −4.0186·10⁹ (vertex enumeration agrees).
	sixD, sphere := randomFeasibleLP(6, 4, 320)
	sixDRows := append(boxRows(6, DefaultBox), sphere...)

	for _, c := range []struct {
		name string
		p    Problem
		cons []Halfspace
	}{
		{"minimal d=3", minimal, minimalRows},
		{"explicit box rows d=6", sixD, sixDRows},
	} {
		want, err := SimplexValue(c.p, append(boxRows(c.p.Dim, c.p.box()), c.cons...))
		if err != nil {
			t.Fatalf("%s: oracle: %v", c.name, err)
		}
		same := func(v float64) bool { return math.Abs(v-want) <= 1e-9*math.Abs(want) }
		check := func(solver string, sol Solution, err error) {
			t.Helper()
			if err != nil {
				t.Errorf("%s: %s: %v", c.name, solver, err)
				return
			}
			out := false
			for _, x := range sol.X {
				out = out || math.Abs(x) > c.p.box()
			}
			if !same(sol.Value) || out {
				t.Errorf("%s: %s returned x = %v, value %.6g; the boxed optimum is %.6g", c.name, solver, sol.X, sol.Value, want)
			}
		}
		sol, err := Seidel(c.p, c.cons, nil)
		check("Seidel in input order", sol, err)
		sol, err = seidelRef(c.p, c.cons, nil)
		check("seidelRef in input order", sol, err)
		if v := ratValue(t, c.p, c.cons); !same(v) {
			t.Errorf("%s: RatSeidel in input order returned value %.6g; the boxed optimum is %.6g", c.name, v, want)
		}
		wrong := 0
		for s := uint64(0); s < 2000; s++ {
			sol, err := Seidel(c.p, c.cons, numeric.NewRand(s, 3))
			if err != nil || !same(sol.Value) {
				wrong++
			}
		}
		if wrong > 0 {
			t.Errorf("%s: %d of 2000 shuffles missed the boxed optimum", c.name, wrong)
		}
	}
}
