package lp

import (
	"math/big"
	"math/rand/v2"

	"lowdimlp/internal/lptype"
)

// This file is the exact-arithmetic twin of seidel.go: Seidel's
// randomized incremental algorithm over big.Rat, with the same
// lexicographic objective and conceptual bounding box. It exists for
// adversarial inputs where float64 would mis-resolve the basis — the
// TCI-derived LPs of §5 grow coefficients as N^{O(r)} — and as a
// differential-testing oracle for the float solver. It is
// polynomially slower (big.Rat arithmetic), so the model algorithms
// default to the float64 solver.

// RatHalfspace is an exact linear constraint A·x ≤ B.
type RatHalfspace struct {
	A []*big.Rat
	B *big.Rat
}

// NewRatHalfspace converts a float64 halfspace exactly (every float64
// is a rational).
func NewRatHalfspace(h Halfspace) RatHalfspace {
	out := RatHalfspace{A: make([]*big.Rat, len(h.A)), B: new(big.Rat)}
	for i, a := range h.A {
		out.A[i] = new(big.Rat).SetFloat64(a)
	}
	out.B.SetFloat64(h.B)
	return out
}

// Satisfied reports whether x satisfies the constraint exactly.
func (h RatHalfspace) Satisfied(x []*big.Rat) bool {
	lhs := new(big.Rat)
	var t big.Rat
	for i, a := range h.A {
		t.Mul(a, x[i])
		lhs.Add(lhs, &t)
	}
	return lhs.Cmp(h.B) <= 0
}

// RatSeidel solves min lex(objective, x) subject to cons and the box
// |x_i| ≤ box, exactly: like Seidel it starts from the box's corner
// and gives each level the box rows of the coordinate it eliminates, in
// the same order (the package comment, "Bounding box"). Returns
// lptype.ErrInfeasible on empty regions. rng shuffles the processing
// order (nil = input order).
func RatSeidel(objective []*big.Rat, cons []RatHalfspace, box *big.Rat, rng *rand.Rand) ([]*big.Rat, error) {
	d := len(objective)
	rows := make([][]*big.Rat, 0, d+1)
	obj := make([]*big.Rat, d)
	for i, c := range objective {
		obj[i] = new(big.Rat).Set(c)
	}
	rows = append(rows, obj)
	for i := 0; i < d; i++ {
		e := make([]*big.Rat, d)
		for j := range e {
			e[j] = new(big.Rat)
		}
		e[i].SetInt64(1)
		rows = append(rows, e)
	}
	work := make([]ratCon, len(cons))
	for i, h := range cons {
		a := make([]*big.Rat, d)
		for j, v := range h.A {
			a[j] = new(big.Rat).Set(v)
		}
		work[i] = ratCon{a: a, b: new(big.Rat).Set(h.B)}
	}
	if rng != nil {
		rng.Shuffle(len(work), func(i, j int) { work[i], work[j] = work[j], work[i] })
	}
	return ratSeidelRec(rows, work, box)
}

type ratCon struct {
	a []*big.Rat
	b *big.Rat
}

func (c ratCon) violated(x []*big.Rat) bool {
	lhs := new(big.Rat)
	var t big.Rat
	for i, a := range c.a {
		t.Mul(a, x[i])
		lhs.Add(lhs, &t)
	}
	return lhs.Cmp(c.b) > 0
}

func ratSeidelRec(rows [][]*big.Rat, cons []ratCon, box *big.Rat) ([]*big.Rat, error) {
	d := 0
	if len(rows) > 0 {
		d = len(rows[0])
	}
	if d == 0 {
		for _, c := range cons {
			if c.b.Sign() < 0 {
				return nil, lptype.ErrInfeasible
			}
		}
		return []*big.Rat{}, nil
	}
	x := ratCorner(rows, d, box)
	for i := range cons {
		h := cons[i]
		if !h.violated(x) {
			continue
		}
		k := ratPivot(h.a)
		if k < 0 {
			if h.b.Sign() < 0 {
				return nil, lptype.ErrInfeasible
			}
			continue
		}
		// Substitution x_k = (b − Σ_{j≠k} a_j x_j)/a_k.
		inv := new(big.Rat).Inv(h.a[k])
		sub := make([]*big.Rat, d)
		for j := 0; j < d; j++ {
			if j != k {
				sub[j] = new(big.Rat).Mul(h.a[j], inv)
				sub[j].Neg(sub[j])
			}
		}
		sb := new(big.Rat).Mul(h.b, inv)

		// The box of x_k, |sb + Σ_{j≠k} sub_j·x_j| ≤ box, as two rows in
		// front of the eliminated prefix.
		up, dn := make([]*big.Rat, 0, d-1), make([]*big.Rat, 0, d-1)
		for j := 0; j < d; j++ {
			if j != k {
				up, dn = append(up, sub[j]), append(dn, new(big.Rat).Neg(sub[j]))
			}
		}
		subCons := make([]ratCon, 0, i+2)
		subCons = append(subCons,
			ratCon{a: up, b: new(big.Rat).Sub(box, sb)},
			ratCon{a: dn, b: new(big.Rat).Add(box, sb)})
		var t big.Rat
		for _, g := range cons[:i] {
			na := make([]*big.Rat, 0, d-1)
			for j := 0; j < d; j++ {
				if j == k {
					continue
				}
				v := new(big.Rat).Set(g.a[j])
				t.Mul(g.a[k], sub[j])
				v.Add(v, &t)
				na = append(na, v)
			}
			nb := new(big.Rat).Set(g.b)
			t.Mul(g.a[k], sb)
			nb.Sub(nb, &t)
			subCons = append(subCons, ratCon{a: na, b: nb})
		}
		subRows := make([][]*big.Rat, len(rows))
		for r, row := range rows {
			nr := make([]*big.Rat, 0, d-1)
			for j := 0; j < d; j++ {
				if j == k {
					continue
				}
				v := new(big.Rat).Set(row[j])
				t.Mul(row[k], sub[j])
				v.Add(v, &t)
				nr = append(nr, v)
			}
			subRows[r] = nr
		}
		y, err := ratSeidelRec(subRows, subCons, box)
		if err != nil {
			return nil, err
		}
		x = make([]*big.Rat, d)
		yi := 0
		for j := 0; j < d; j++ {
			if j == k {
				continue
			}
			x[j] = y[yi]
			yi++
		}
		xk := new(big.Rat).Set(sb)
		for j := 0; j < d; j++ {
			if j != k {
				t.Mul(sub[j], x[j])
				xk.Add(xk, &t)
			}
		}
		x[k] = xk
	}
	return x, nil
}

func ratPivot(a []*big.Rat) int {
	best := -1
	var bestAbs big.Rat
	var abs big.Rat
	for i, v := range a {
		if v.Sign() == 0 {
			continue
		}
		abs.Abs(v)
		if best < 0 || abs.Cmp(&bestAbs) > 0 {
			best = i
			bestAbs.Set(&abs)
		}
	}
	return best
}

func ratCorner(rows [][]*big.Rat, d int, box *big.Rat) []*big.Rat {
	x := make([]*big.Rat, d)
	neg := new(big.Rat).Neg(box)
	for i := 0; i < d; i++ {
		x[i] = new(big.Rat).Set(neg)
		for _, row := range rows {
			s := row[i].Sign()
			if s == 0 {
				continue
			}
			if s < 0 {
				x[i].Set(box)
			}
			break
		}
	}
	return x
}
