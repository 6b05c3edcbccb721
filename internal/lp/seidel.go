package lp

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"

	"lowdimlp/internal/lptype"
)

// zeroTol is the absolute tolerance for classifying a right-hand side
// against zero when a constraint's normal vector has vanished.
func zeroTol(b float64) float64 { return 1e-9 * (math.Abs(b) + 1) }

// Seidel solves the boxed LP min_{x ∈ box, A·x ≤ b} lex(Objective, x)
// by Seidel's randomized incremental algorithm, generalized to a
// vector-valued (lexicographic) objective so that the optimum point is
// always unique — the property the paper's LP-type formulation of
// linear programming requires (§4.1).
//
// The constraints are processed in random order (driven by rng; pass
// nil for an unshuffled deterministic run). When the current optimum
// violates a constraint h, the optimum of the extended set lies on
// h's boundary, so the algorithm eliminates one variable by
// substitution and recurses on the processed prefix. Expected running
// time is O(d! · m) for m constraints — linear in m for constant d.
//
// Returns lptype.ErrInfeasible when the constraint set (intersected
// with the box) is empty, and an error naming the row when a
// constraint does not have exactly p.Dim coefficients.
func Seidel(p Problem, cons []Halfspace, rng *rand.Rand) (Solution, error) {
	for i, h := range cons {
		if len(h.A) != p.Dim {
			return Solution{}, fmt.Errorf("lp: constraint %d has %d coefficients, want %d", i, len(h.A), p.Dim)
		}
	}
	return SeidelRows(p, len(cons), func(i int, a []float64) float64 {
		copy(a, cons[i].A)
		return cons[i].B
	}, rng)
}

// SeidelRows is Seidel over m constraints generated in place: fill(i, a)
// must write all p.Dim coefficients of constraint i into a and return
// its right-hand side. It is how callers whose constraints are derived
// from other data (the lifted halfspaces of package sea) avoid
// materializing Halfspaces that the solver would only copy again.
func SeidelRows(p Problem, m int, fill func(i int, a []float64) float64, rng *rand.Rand) (Solution, error) {
	if len(p.Objective) != p.Dim {
		return Solution{}, fmt.Errorf("lp: objective has %d coefficients, want %d", len(p.Objective), p.Dim)
	}
	w := workspaces.Get().(*workspace)
	defer workspaces.Put(w)
	w.load(p, m, fill, rng)
	if err := w.solve(p.Dim, m); err != nil {
		return Solution{}, err
	}
	x := w.lv[p.Dim].x
	if !w.feasible(x) {
		return Solution{}, lptype.ErrCycling
	}
	// x lives in the pooled workspace: copy it out before w is returned
	// (non-nil even when Dim is 0, as the recursion's result always was).
	x = append(make([]float64, 0, len(x)), x...)
	return Solution{X: x, Value: dotOrZero(p.Objective, x)}, nil
}

func dotOrZero(c, x []float64) float64 {
	var s float64
	for i := range c {
		s += c[i] * x[i]
	}
	return s
}

// workspace holds every buffer one Seidel solve needs, one level per
// number of remaining variables k = d…0 (DESIGN.md §15). Level d is the
// loaded problem; each violation at level k overwrites the first i rows
// of level k−1 with the eliminated prefix, so a solve allocates nothing
// once the workspace has grown to the problem's size.
type workspace struct {
	d    int
	box  float64
	lv   []level
	perm []int32 // shuffled load order of the top level
}

// level is the subproblem in k variables: constraints a·x ≤ b stored
// row-major (row i is a[i*k : (i+1)*k]) and the d+1 lexicographic
// objective rows stored likewise in obj.
type level struct {
	a, b  []float64
	obj   []float64
	scale []float64 // rowScale of each objective row
	sub   []float64 // substitution coefficients of the pivot in flight
	x     []float64 // this level's current optimum
}

var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// grow returns buf resliced to n entries, reallocating only when its
// capacity is too small. The contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// load sizes the workspace for p and m constraints and fills the top
// level: constraint perm[i] lands in row i, where perm is the identity
// shuffled exactly as the constraint slice itself used to be.
func (w *workspace) load(p Problem, m int, fill func(i int, a []float64) float64, rng *rand.Rand) {
	d := p.Dim
	w.d, w.box = d, p.box()
	if cap(w.lv) < d+1 {
		w.lv = append(w.lv[:cap(w.lv)], make([]level, d+1-cap(w.lv))...)
	}
	w.lv = w.lv[:d+1]
	for k := range w.lv {
		l := &w.lv[k]
		l.a = grow(l.a, m*k)
		l.b = grow(l.b, m)
		l.obj = grow(l.obj, (d+1)*k)
		l.scale = grow(l.scale, d+1)
		l.sub = grow(l.sub, k)
		l.x = grow(l.x, k)
	}
	w.perm = grow(w.perm, m)
	for i := range w.perm {
		w.perm[i] = int32(i)
	}
	if rng != nil {
		rng.Shuffle(m, func(i, j int) { w.perm[i], w.perm[j] = w.perm[j], w.perm[i] })
	}
	top := &w.lv[d]
	for i, src := range w.perm {
		top.b[i] = fill(int(src), top.a[i*d:(i+1)*d])
	}
	// The lexicographic objective: the objective vector, then the
	// identity rows e_1..e_d that realize "lexicographically smallest
	// optimal point" (Proposition 4.1 does the same tie-breaking with d
	// successive LPs; here it is one vector-valued objective).
	clear(top.obj)
	copy(top.obj, p.Objective)
	for i := 0; i < d; i++ {
		top.obj[(i+1)*d+i] = 1
	}
}

// feasible re-checks x against the loaded constraints. Defense in
// depth: the incremental invariant guarantees feasibility, but floating
// point can erode it on adversarial input; verify and fail loudly
// rather than return garbage.
func (w *workspace) feasible(x []float64) bool {
	d, top := w.d, &w.lv[w.d]
	for i, b := range top.b {
		h := Halfspace{A: top.a[i*d : (i+1)*d], B: b}
		if h.Eval(x) > 1e3*violationSlack(h, x) {
			return false
		}
	}
	return true
}

// slack returns the scaled violation of a·x ≤ b at x; ≤ 0 means
// satisfied.
func slack(a []float64, b float64, x []float64) float64 {
	scale := math.Abs(b) + 1
	v := -b
	for i, ai := range a {
		v += ai * x[i]
		scale += math.Abs(ai * x[i])
	}
	return v / scale
}

// eliminate writes src's row into dst with coordinate p substituted
// out: dst_j = src_j + src_p·sub_j over j ≠ p. It returns src_p.
func eliminate(dst, src, sub []float64, p int) float64 {
	fk := src[p]
	for j := 0; j < p; j++ {
		dst[j] = src[j] + fk*sub[j]
	}
	for j := p + 1; j < len(src); j++ {
		dst[j-1] = src[j] + fk*sub[j]
	}
	return fk
}

// solve leaves in lv[k].x the lexicographic optimum of level k's first
// n constraints over the conceptual box [-box, box]^k. It clobbers the
// levels below k and nothing else.
func (w *workspace) solve(k, n int) error {
	cur := &w.lv[k]
	if k == 0 {
		// Zero variables left: constraints are "0 ≤ b".
		for _, b := range cur.b[:n] {
			if b < -zeroTol(b) {
				return lptype.ErrInfeasible
			}
		}
		return nil
	}
	x, sub, below := cur.x, cur.sub, &w.lv[k-1]
	w.corner(k)
	for i := 0; i < n; i++ {
		h, hb := cur.a[i*k:(i+1)*k], cur.b[i]
		if slack(h, hb, x) <= seidelTol {
			continue
		}
		// Current optimum violates h; the new optimum lies on ∂h.
		p := pivotCoord(h)
		if p < 0 {
			// Numerically zero normal: constraint is 0 ≤ b.
			if hb < -zeroTol(hb) {
				return lptype.ErrInfeasible
			}
			continue
		}
		// Substitution x_p = (b - Σ_{j≠p} a_j x_j) / a_p.
		for j := range sub {
			if j != p {
				sub[j] = -h[j] / h[p]
			}
		}
		sb := hb / h[p]

		// Transform the processed prefix and the objective rows into
		// the (k-1)-dimensional subspace (drop coordinate p).
		for g := 0; g < i; g++ {
			fk := eliminate(below.a[g*(k-1):(g+1)*(k-1)], cur.a[g*k:(g+1)*k], sub, p)
			below.b[g] = cur.b[g] - fk*sb
		}
		for r := 0; r <= w.d; r++ {
			eliminate(below.obj[r*(k-1):(r+1)*(k-1)], cur.obj[r*k:(r+1)*k], sub, p)
		}
		if err := w.solve(k-1, i); err != nil {
			return err
		}
		// Lift the sub-optimum back to k coordinates.
		y := below.x
		copy(x[:p], y[:p])
		copy(x[p+1:], y[p:])
		xp := sb
		for j := 0; j < k; j++ {
			if j != p {
				xp += sub[j] * x[j]
			}
		}
		x[p] = xp
	}
	return nil
}

// seidelTol is the scaled-violation threshold inside the recursion.
const seidelTol = 1e-10

// pivotCoord returns the index of the largest-magnitude coefficient
// (the first one on ties), or -1 if the vector is numerically zero.
func pivotCoord(a []float64) int {
	best, bestV := -1, 0.0
	for i, v := range a {
		if av := math.Abs(v); av > bestV {
			best, bestV = i, av
		}
	}
	return best
}

// corner sets lv[k].x to the lexicographically optimal corner of
// [-box, box]^k for level k's stacked objective rows: each coordinate
// is decided by the first row with a non-negligible coefficient on it
// (minimizing that row), defaulting to -box.
func (w *workspace) corner(k int) {
	l := &w.lv[k]
	for r := range l.scale {
		l.scale[r] = rowScale(l.obj[r*k : (r+1)*k])
	}
	for i := range l.x {
		l.x[i] = -w.box
		for r, s := range l.scale {
			c := l.obj[r*k+i]
			if math.Abs(c) <= 1e-12*s {
				continue
			}
			if c < 0 {
				l.x[i] = w.box
			}
			break
		}
	}
}

func rowScale(row []float64) float64 {
	s := 1.0
	for _, v := range row {
		if av := math.Abs(v); av > s {
			s = av
		}
	}
	return s
}
