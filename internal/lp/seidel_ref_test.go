package lp

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"

	"lowdimlp/internal/lptype"
	"lowdimlp/internal/numeric"
)

// --- the reference: the recursive slice-of-slices Seidel ---------------
//
// seidelRef is the solver as it stood before the flat workspace
// (DESIGN.md §7), kept verbatim as the differential oracle: it
// allocates a fresh sub-problem at every violation, which makes every
// intermediate value easy to see and impossible to alias. The workspace
// solver must reproduce its X and Value bit for bit.

func seidelRef(p Problem, cons []Halfspace, rng *rand.Rand) (Solution, error) {
	box := p.box()
	work := make([]subCon, len(cons))
	for i, h := range cons {
		a := append([]float64(nil), h.A...)
		work[i] = subCon{a: a, b: equilibrateRef(a, h.B)}
		for _, v := range a {
			work[i].m = math.Max(work[i].m, math.Abs(v))
		}
	}
	if rng != nil {
		rng.Shuffle(len(work), func(i, j int) { work[i], work[j] = work[j], work[i] })
	}
	x, err := seidelRec(objRows(p), work, box)
	if err != nil {
		return Solution{}, err
	}
	for _, h := range cons {
		if h.Eval(x) > 1e3*violationSlack(h, x) {
			return Solution{}, lptype.ErrCycling
		}
	}
	return Solution{X: x, Value: dotOrZero(p.Objective, x)}, nil
}

// equilibrateRef is the row equilibration, written out again: a row
// whose largest |coefficient| (b included) lies outside [2^−64, 2^64]
// is multiplied by 2^−e, where that coefficient is f·2^e with
// f ∈ [½, 1).
func equilibrateRef(a []float64, b float64) float64 {
	mx := math.Abs(b)
	for _, v := range a {
		if math.Abs(v) > mx {
			mx = math.Abs(v)
		}
	}
	if mx == 0 || (mx >= math.Ldexp(1, -64) && mx <= math.Ldexp(1, 64)) {
		return b
	}
	_, e := math.Frexp(mx)
	for i := range a {
		a[i] *= math.Ldexp(1, -e)
	}
	return b * math.Ldexp(1, -e)
}

// objRows builds the lexicographic objective: the objective vector
// followed by the identity rows e_1..e_d.
func objRows(p Problem) [][]float64 {
	rows := make([][]float64, 0, p.Dim+1)
	rows = append(rows, append([]float64(nil), p.Objective...))
	for i := 0; i < p.Dim; i++ {
		e := make([]float64, p.Dim)
		e[i] = 1
		rows = append(rows, e)
	}
	return rows
}

// subCon is a constraint in the (possibly variable-eliminated)
// subproblem coordinates: a·x ≤ b.
type subCon struct {
	a []float64
	b float64
	m float64 // the largest |term| a was summed from
}

func (c subCon) slack(x []float64) float64 {
	scale := math.Abs(c.b) + 1
	v := -c.b
	for i, ai := range c.a {
		v += ai * x[i]
		scale += math.Abs(ai * x[i])
	}
	return v / scale
}

func seidelRec(rows [][]float64, cons []subCon, box float64) ([]float64, error) {
	d := 0
	if len(rows) > 0 {
		d = len(rows[0])
	}
	if d == 0 {
		for _, c := range cons {
			if c.b < -zeroTol(c.b) {
				return nil, lptype.ErrInfeasible
			}
		}
		return []float64{}, nil
	}
	x := cornerByObjRef(rows, d, box)
	for i := range cons {
		h := cons[i]
		if h.slack(x) <= seidelTol {
			continue
		}
		k := pivotCoordRef(h.a)
		if k < 0 || math.Abs(h.a[k]) <= zeroRel*h.m {
			if h.b < -zeroTol(h.b) {
				return nil, lptype.ErrInfeasible
			}
			continue
		}
		sub := make([]float64, d)
		for j := 0; j < d; j++ {
			if j != k {
				sub[j] = -h.a[j] / h.a[k]
			}
		}
		sb := h.b / h.a[k]

		// The box of x_k, |sb + Σ_{j≠k} sub_j·x_j| ≤ box, as two rows in
		// front of the eliminated prefix.
		up, dn := make([]float64, 0, d-1), make([]float64, 0, d-1)
		for j := 0; j < d; j++ {
			if j != k {
				up, dn = append(up, sub[j]), append(dn, -sub[j])
			}
		}
		subCons := make([]subCon, 0, i+2)
		subCons = append(subCons, subCon{a: up, b: box - sb, m: 1}, subCon{a: dn, b: box + sb, m: 1})
		for _, g := range cons[:i] {
			na := make([]float64, 0, d-1)
			fk := g.a[k]
			for j := 0; j < d; j++ {
				if j == k {
					continue
				}
				na = append(na, g.a[j]+fk*sub[j])
			}
			subCons = append(subCons, subCon{a: na, b: g.b - fk*sb, m: g.m + math.Abs(fk)})
		}
		subRows := make([][]float64, len(rows))
		for r, row := range rows {
			nr := make([]float64, 0, d-1)
			fk := row[k]
			for j := 0; j < d; j++ {
				if j == k {
					continue
				}
				nr = append(nr, row[j]+fk*sub[j])
			}
			subRows[r] = nr
		}
		y, err := seidelRec(subRows, subCons, box)
		if err != nil {
			return nil, err
		}
		x = make([]float64, d)
		xi := 0
		for j := 0; j < d; j++ {
			if j == k {
				continue
			}
			x[j] = y[xi]
			xi++
		}
		xk := sb
		for j := 0; j < d; j++ {
			if j != k {
				xk += sub[j] * x[j]
			}
		}
		x[k] = xk
	}
	return x, nil
}

// pivotCoordRef is the two-pass pivotCoord, dead check included.
func pivotCoordRef(a []float64) int {
	best, bestV := -1, 0.0
	mx := 0.0
	for _, v := range a {
		if av := math.Abs(v); av > mx {
			mx = av
		}
	}
	if mx == 0 {
		return -1
	}
	for i, v := range a {
		if av := math.Abs(v); av > bestV {
			best, bestV = i, av
		}
	}
	if bestV < 1e-12*mx || bestV == 0 {
		return -1
	}
	return best
}

func cornerByObjRef(rows [][]float64, d int, box float64) []float64 {
	x := make([]float64, d)
	for i := 0; i < d; i++ {
		x[i] = -box
		for _, row := range rows {
			c := row[i]
			if math.Abs(c) <= 1e-12*rowScale(row) {
				continue
			}
			if c < 0 {
				x[i] = box
			}
			break
		}
	}
	return x
}

// --- instance families -------------------------------------------------

const (
	famSphere     = iota // sphere-tangent rows: the generic, bounded case
	famBox               // axis-parallel rows: exact-zero coefficients, parallel facets
	famDup               // every other row a repeat: exact ties
	famZero              // zero normals mixed in: the pivotCoord < 0 branch
	famInfeasible        // a contradictory pair (or a zero row with b < 0)
	famHuge              // finite rows scaled by ~1e300: equilibrated on load, they would overflow at the box
	famLifted            // sea's lifted annulus LP: two rows per point in R^{q+2}
	numFamilies
)

var familyNames = [numFamilies]string{"sphere", "box", "dup", "zero", "infeasible", "huge", "lifted"}

// refInstance generates an m-constraint instance of the family in R^d
// (famLifted: in R^{q+2} for points in R^q, q = max(d−2, 1)).
func refInstance(family, d, m int, seed uint64) (Problem, []Halfspace) {
	rng := numeric.NewRand(seed, 0x5e1de1+uint64(family))
	if family == famLifted {
		return liftedInstance(max(d-2, 1), m, rng)
	}
	obj := make([]float64, d)
	for i := range obj {
		obj[i] = rng.NormFloat64()
	}
	unit := func() []float64 {
		a := make([]float64, d)
		for j := range a {
			a[j] = rng.NormFloat64()
		}
		if nrm := numeric.Norm2(a); nrm > 0 {
			for j := range a {
				a[j] /= nrm
			}
		}
		return a
	}
	cons := make([]Halfspace, 0, m)
	for len(cons) < m {
		i := len(cons)
		switch family {
		case famBox:
			// ±e_j ≤ small integers: duplicates and parallel facets.
			a := make([]float64, d)
			a[i%d] = float64(1 - 2*(i/d%2))
			cons = append(cons, Halfspace{A: a, B: float64(1 + rng.IntN(3))})
		case famDup:
			if i > 0 && i%2 == 1 {
				cons = append(cons, cons[rng.IntN(i)].Clone())
				continue
			}
			cons = append(cons, Halfspace{A: unit(), B: 1})
		case famZero:
			if i%3 == 0 {
				// 0 ≤ b: satisfied outright, satisfied within
				// zeroTol only (so the branch is entered and
				// survived), or exactly tight.
				b := [...]float64{1, -5e-10, 0}[i/3%3]
				cons = append(cons, Halfspace{A: make([]float64, d), B: b})
				continue
			}
			cons = append(cons, Halfspace{A: unit(), B: 1})
		case famInfeasible:
			switch {
			case i == m/2 && seed%2 == 0:
				cons = append(cons, Halfspace{A: make([]float64, d), B: -1})
			case i == m/2:
				a := unit()
				neg := make([]float64, d)
				for j := range a {
					neg[j] = -a[j]
				}
				cons = append(cons, Halfspace{A: a, B: -2})
				if len(cons) < m {
					cons = append(cons, Halfspace{A: neg, B: -2})
				}
			default:
				cons = append(cons, Halfspace{A: unit(), B: 1})
			}
		case famHuge:
			// A sphere row scaled past 1.8e299: finite, but at a box
			// corner (|x_j| = 1e9) its products would overflow to a
			// residual of ±Inf or NaN; the load's equilibration must
			// bring it back to unit scale. Odd rows stay plain, so
			// some optima sit inside the box and some on it.
			a, f := unit(), 1.0
			if i%2 == 0 {
				f = 1e300 * (1 + rng.Float64())
				for j := range a {
					a[j] *= f
				}
			}
			cons = append(cons, Halfspace{A: a, B: f})
		default:
			cons = append(cons, Halfspace{A: unit(), B: 1})
		}
	}
	return NewProblem(obj), cons
}

// liftedInstance is the LP package sea builds for the smallest
// enclosing annulus of m/2 points near the unit sphere in R^q:
// minimize u − v over (c, u, v), with rows 2i and 2i+1 written as
// sea's liftedRow writes them,
//
//	|p|² − 2⟨p, c⟩ − u ≤ 0   (outer)
//	v − |p|² + 2⟨p, c⟩ ≤ 0   (inner)
//
// (an odd m ends on an outer row). Each row has an exact zero in u or
// v.
func liftedInstance(q, m int, rng *rand.Rand) (Problem, []Halfspace) {
	obj := make([]float64, q+2)
	obj[q], obj[q+1] = 1, -1
	cons := make([]Halfspace, 0, m)
	for len(cons) < m {
		p := make([]float64, q)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		r := (0.7 + 0.6*rng.Float64()) / numeric.Norm2(p)
		for j := range p {
			p[j] *= r
		}
		q2 := numeric.Dot(p, p)
		outer, inner := make([]float64, q+2), make([]float64, q+2)
		for j, x := range p {
			outer[j], inner[j] = -2*x, 2*x
		}
		outer[q], inner[q+1] = -1, 1
		cons = append(cons, Halfspace{A: outer, B: -q2})
		if len(cons) < m {
			cons = append(cons, Halfspace{A: inner, B: q2})
		}
	}
	return NewProblem(obj), cons
}

// sameSolve fails the test unless Seidel and seidelRef agree exactly on
// the instance: same error class, or bit-identical X and Value.
func sameSolve(t testing.TB, p Problem, cons []Halfspace, seed uint64, shuffle bool) {
	t.Helper()
	var r1, r2 *rand.Rand
	if shuffle {
		r1, r2 = numeric.NewRand(seed, 77), numeric.NewRand(seed, 77)
	}
	want, werr := seidelRef(p, cons, r1)
	got, gerr := Seidel(p, cons, r2)
	if werr != nil || gerr != nil {
		if !errors.Is(gerr, werr) || !errors.Is(werr, gerr) {
			t.Fatalf("error mismatch: got %v, reference %v", gerr, werr)
		}
		return
	}
	if len(got.X) != len(want.X) {
		t.Fatalf("len(X) = %d, reference %d", len(got.X), len(want.X))
	}
	for i := range want.X {
		if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
			t.Fatalf("X[%d] = %x (%v), reference %x (%v)", i,
				math.Float64bits(got.X[i]), got.X[i], math.Float64bits(want.X[i]), want.X[i])
		}
	}
	if math.Float64bits(got.Value) != math.Float64bits(want.Value) {
		t.Fatalf("Value = %v, reference %v", got.Value, want.Value)
	}
	if shuffle && r1.Uint64() != r2.Uint64() {
		t.Fatal("shuffle consumed a different amount of the rng stream than the reference")
	}
}

// TestSeidelMatchesReference is the bit-identity pin of the workspace
// solver: every family × d = 1…6 × m ∈ {0, 1, d, 50, 700} × 5 shuffle
// seeds plus one unshuffled run. famHuge is the one that fails if a
// huge row reaches the eliminations unequilibrated.
func TestSeidelMatchesReference(t *testing.T) {
	for family := 0; family < numFamilies; family++ {
		t.Run(familyNames[family], func(t *testing.T) {
			infeasible := 0
			for d := 1; d <= 6; d++ {
				for _, m := range []int{0, 1, d, 50, 700} {
					for seed := uint64(0); seed < 5; seed++ {
						p, cons := refInstance(family, d, m, seed+uint64(100*d+m))
						sameSolve(t, p, cons, seed, true)
						if seed == 0 {
							sameSolve(t, p, cons, seed, false)
						}
						if _, err := Seidel(p, cons, nil); errors.Is(err, lptype.ErrInfeasible) {
							infeasible++
						}
					}
				}
			}
			// famHuge is feasible (the origin satisfies every row);
			// equilibrated rows keep its eliminations finite, so no
			// instance reports ErrInfeasible.
			if (family == famInfeasible) != (infeasible > 0) {
				t.Errorf("%d infeasible instances in family %s", infeasible, familyNames[family])
			}
		})
	}
}

// TestSeidelZeroNormalBranch pins the precondition famZero relies on to
// reach the numerically-zero-normal branch: a zero row with b inside
// zeroTol registers as violated (so the branch is entered, at the top
// level and again in every sub-problem that inherits the row) and is
// survived, while past zeroTol the same branch reports infeasibility.
func TestSeidelZeroNormalBranch(t *testing.T) {
	p := NewProblem([]float64{1, 1})
	cons := []Halfspace{hs(-5e-10, 0, 0), hs(-1, -1, 0), hs(-1, 0, -1)}
	if slack(cons[0].A, cons[0].B, []float64{0, 0}) <= seidelTol {
		t.Fatal("zero row does not register as violated")
	}
	sameSolve(t, p, cons, 0, false)
	if sol, err := Seidel(p, cons, nil); err != nil || sol.X[0] != 1 || sol.X[1] != 1 {
		t.Fatalf("zero row within zeroTol: x = %v, err = %v, want [1 1]", sol.X, err)
	}
	if _, err := Seidel(p, []Halfspace{hs(-1, 0, 0)}, nil); !errors.Is(err, lptype.ErrInfeasible) {
		t.Fatalf("0 ≤ -1: err = %v, want ErrInfeasible", err)
	}
}

func FuzzSeidelMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint16(40), uint8(famSphere), true)
	f.Add(uint64(2), uint8(5), uint16(300), uint8(famDup), true)
	f.Add(uint64(3), uint8(2), uint16(9), uint8(famZero), false)
	f.Add(uint64(4), uint8(6), uint16(64), uint8(famInfeasible), true)
	f.Add(uint64(5), uint8(1), uint16(0), uint8(famBox), false)
	f.Add(uint64(6), uint8(4), uint16(200), uint8(famHuge), true)
	f.Add(uint64(7), uint8(3), uint16(301), uint8(famLifted), true)
	f.Fuzz(func(t *testing.T, seed uint64, d uint8, m uint16, family uint8, shuffle bool) {
		p, cons := refInstance(int(family%numFamilies), 1+int(d%6), int(m%1024), seed)
		sameSolve(t, p, cons, seed, shuffle)
	})
}

// TestPivotCoordMatchesReference pins the one-pass pivotCoord to the
// two-pass original, ties and zeros included.
func TestPivotCoordMatchesReference(t *testing.T) {
	rng := numeric.NewRand(9, 9)
	vals := []float64{0, 0, 1, -1, 2, -2, 1e-300, math.Copysign(0, -1)}
	for trial := 0; trial < 2000; trial++ {
		a := make([]float64, rng.IntN(7))
		for i := range a {
			a[i] = vals[rng.IntN(len(vals))]
		}
		if got, want := pivotCoord(a), pivotCoordRef(a); got != want {
			t.Fatalf("pivotCoord(%v) = %d, reference %d", a, got, want)
		}
	}
}

// TestSeidelRowLength: a row of the wrong length is an error naming the
// row, never a panic, a zero-padded row or a truncated one.
func TestSeidelRowLength(t *testing.T) {
	p := NewProblem([]float64{1, 1})
	for _, bad := range []Halfspace{hs(1, 1), hs(1, 1, 1, 1)} {
		cons := []Halfspace{hs(-1, -1, 0), hs(-1, 0, -1), bad}
		_, err := Seidel(p, cons, nil)
		if err == nil || !strings.Contains(err.Error(), "constraint 2") {
			t.Errorf("row of %d coefficients in R^2: err = %v, want one naming constraint 2", len(bad.A), err)
		}
		if _, err := NewDomain(p, 1).Solve(cons); err == nil {
			t.Errorf("Domain.Solve accepted a row of %d coefficients in R^2", len(bad.A))
		}
		// Past the pivot loop's sample: the row reaches a small solve.
		_, many := randomFeasibleLP(2, 500, 1)
		if _, err := NewDomain(p, 1).Solve(append(many, bad)); err == nil {
			t.Errorf("Domain.Solve accepted a row of %d coefficients in R^2 after 500 good ones", len(bad.A))
		}
	}
	if _, err := Seidel(Problem{Dim: 3, Objective: []float64{1}}, nil, nil); err == nil {
		t.Error("objective shorter than Dim accepted")
	}
}

// TestSeidelAllocations pins the point of the workspace: the number of
// allocations of a small solve over every row is a small constant that
// does not depend on the number of constraints. Warm it is 6 (the rng,
// the returned X and the tight set); the bound also covers a solve that
// has to build its workspace (≈ 40 buffers), because under the race
// detector sync.Pool drops a quarter of the Puts.
func TestSeidelAllocations(t *testing.T) {
	const maxAllocs = 40
	for _, m := range []int{500, 5000} {
		p, cons := refInstance(famSphere, 5, m, 1)
		dom := NewDomain(p, 1)
		if _, err := dom.call().SolveSmall(cons); err != nil { // warm the pool
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := dom.call().SolveSmall(cons); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("lp small solve d=5 m=%d: %.1f allocs", m, allocs)
		if allocs > maxAllocs {
			t.Errorf("lp small solve d=5 m=%d: %.1f allocs (want ≤ %d) — sub-problems allocated per violation again?", m, allocs, maxAllocs)
		}
	}
}

// TestSeidelConcurrentSolves shares one Domain between goroutines, as
// coordinator sites do: every call must get a shuffle stream and
// workspaces of its own, so each result is one that a Domain of the
// same seed returns, called as often one at a time.
func TestSeidelConcurrentSolves(t *testing.T) {
	const goroutines, rounds = 8, 6
	p, cons := refInstance(famSphere, 4, 400, 3)
	q, qcons := refInstance(famDup, 2, 90, 4) // another dim through the same pool
	dom, qdom, seq := NewDomain(p, 11), NewDomain(q, 12), NewDomain(p, 11)
	want := map[string]bool{}
	for range goroutines * rounds {
		b, err := seq.Solve(cons)
		if err != nil {
			t.Fatal(err)
		}
		want[solutionBits(b.Sol)] = true
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				b, err := dom.Solve(cons)
				if err != nil {
					t.Error(err)
					return
				}
				if !want[solutionBits(b.Sol)] {
					t.Error("concurrent Solve returned a point no call of the same seed returns")
					return
				}
				if _, err := qdom.Solve(qcons); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func solutionBits(s Solution) string {
	var sb strings.Builder
	for _, v := range append([]float64{s.Value}, s.X...) {
		fmt.Fprintf(&sb, "%x,", math.Float64bits(v))
	}
	return sb.String()
}
