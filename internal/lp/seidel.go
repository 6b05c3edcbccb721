package lp

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
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
	w := getWorkspace()
	defer putWorkspace(w)
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

// Workspaces are reused between solves. A sync.Pool alone is emptied
// by every second garbage collection, and a server whose live heap is
// small collects after nearly every request: each large solve would
// then re-grow its workspace (4.8 MB for 60 000 constraints at d = 3),
// and that garbage would bring on the next collection. So up to one
// workspace per CPU — at most GOMAXPROCS solves run at once — waits in
// idleWorkspaces, which collections leave alone, as long as it holds at
// most maxIdleValues numbers; the rest go to the pool as before. What
// stays resident is bounded however large a solve once was.
var (
	workspaces     = sync.Pool{New: func() any { return new(workspace) }}
	idleWorkspaces = make(chan *workspace, runtime.GOMAXPROCS(0))
)

// maxIdleValues bounds the workspaces idleWorkspaces keeps: 2^20
// float64s, 8 MB.
const maxIdleValues = 1 << 20

func getWorkspace() *workspace {
	select {
	case w := <-idleWorkspaces:
		return w
	default:
		return workspaces.Get().(*workspace)
	}
}

func putWorkspace(w *workspace) {
	if w.values() <= maxIdleValues {
		select {
		case idleWorkspaces <- w:
			return
		default:
		}
	}
	workspaces.Put(w)
}

// values is the workspace's capacity in numbers, counting each int32
// of perm as half a float64.
func (w *workspace) values() int {
	n := cap(w.perm) / 2
	for _, l := range w.lv[:cap(w.lv)] {
		n += cap(l.a) + cap(l.b) + cap(l.obj) + cap(l.scale) + cap(l.sub) + cap(l.x)
	}
	return n
}

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
		top.b[i] = equilibrate(top.a[i*d:(i+1)*d], fill(int(src), top.a[i*d:(i+1)*d]))
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
// rather than return garbage. A settled A·x − B passes without the
// slack, which is positive.
func (w *workspace) feasible(x []float64) bool {
	d, top := w.d, &w.lv[w.d]
	for i, b := range top.b {
		h := Halfspace{A: top.a[i*d : (i+1)*d], B: b}
		if e := h.Eval(x); !settled(e) && e > 1e3*violationSlack(h, x) {
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

// settled reports whether the unscaled residual v = −b + Σ a_i·x_i,
// summed left to right as slack sums it, already passes the row test
// slack ≤ seidelTol. A finite v means every product is finite, so the
// scale lies in [1, +Inf], and v ≤ 0 gives v/scale ≤ 0. Any other v
// needs violates: v > 0, NaN, and −Inf, whose scale may be +Inf, making
// slack NaN and the row violated.
func settled(v float64) bool { return v <= 0 && v >= -math.MaxFloat64 }

// violates is the full row test; NaN counts as violated.
func violates(a []float64, b float64, x []float64) bool {
	return !(slack(a, b, x) <= seidelTol)
}

// firstViolated returns the first of level rows from…n−1 (k wide, in a
// and b) that x violates, or n. Widths 1…5 run on fixed-size views
// with x held in registers; each residual is summed in the order slack
// sums it.
func firstViolated(a, b, x []float64, k, from, n int) int {
	switch k {
	case 1:
		x0 := x[0]
		for i := from; i < n; i++ {
			if v := -b[i] + a[i]*x0; !settled(v) && violates(a[i:i+1], b[i], x) {
				return i
			}
		}
	case 2:
		x0, x1 := x[0], x[1]
		for i := from; i < n; i++ {
			h := (*[2]float64)(a[2*i:])
			if v := -b[i] + h[0]*x0 + h[1]*x1; !settled(v) && violates(h[:], b[i], x) {
				return i
			}
		}
	case 3:
		x0, x1, x2 := x[0], x[1], x[2]
		for i := from; i < n; i++ {
			h := (*[3]float64)(a[3*i:])
			if v := -b[i] + h[0]*x0 + h[1]*x1 + h[2]*x2; !settled(v) && violates(h[:], b[i], x) {
				return i
			}
		}
	case 4:
		x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
		for i := from; i < n; i++ {
			h := (*[4]float64)(a[4*i:])
			if v := -b[i] + h[0]*x0 + h[1]*x1 + h[2]*x2 + h[3]*x3; !settled(v) && violates(h[:], b[i], x) {
				return i
			}
		}
	case 5:
		x0, x1, x2, x3, x4 := x[0], x[1], x[2], x[3], x[4]
		for i := from; i < n; i++ {
			h := (*[5]float64)(a[5*i:])
			if v := -b[i] + h[0]*x0 + h[1]*x1 + h[2]*x2 + h[3]*x3 + h[4]*x4; !settled(v) && violates(h[:], b[i], x) {
				return i
			}
		}
	default:
		for i := from; i < n; i++ {
			h := a[i*k : (i+1)*k]
			v := -b[i]
			for j, aj := range h {
				v += aj * x[j]
			}
			if !settled(v) && violates(h, b[i], x) {
				return i
			}
		}
	}
	return n
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

// eliminateRows runs eliminate on rows 0…n−1 of src (k wide) into dst
// (k−1 wide). With db non-nil it writes each row's right-hand side in
// the same step, db_g = sb_g − src_p·rhs; the objective rows pass nil.
// Widths 2…5 run on fixed-size views, with the pivot's substitution
// coefficients and c, the source column of each destination column,
// loaded once; the range checks before each loop (p < k always holds)
// let the compiler drop the per-element bounds checks.
func eliminateRows(dst, src, sub []float64, k, p, n int, db, sb []float64, rhs float64) {
	var c [4]int
	for j := range c {
		c[j] = j
		if j >= p {
			c[j]++
		}
	}
	switch k {
	case 2:
		c0 := c[0]
		if uint(p) >= 2 || uint(c0) >= 2 {
			panic("lp: pivot out of range")
		}
		u0 := sub[c0]
		for g := 0; g < n; g++ {
			s := (*[2]float64)(src[2*g:])
			fk := s[p]
			dst[g] = s[c0] + fk*u0
			if db != nil {
				db[g] = sb[g] - fk*rhs
			}
		}
	case 3:
		c0, c1 := c[0], c[1]
		if uint(p) >= 3 || uint(c0) >= 3 || uint(c1) >= 3 {
			panic("lp: pivot out of range")
		}
		u0, u1 := sub[c0], sub[c1]
		for g := 0; g < n; g++ {
			s, t := (*[3]float64)(src[3*g:]), (*[2]float64)(dst[2*g:])
			fk := s[p]
			t[0] = s[c0] + fk*u0
			t[1] = s[c1] + fk*u1
			if db != nil {
				db[g] = sb[g] - fk*rhs
			}
		}
	case 4:
		c0, c1, c2 := c[0], c[1], c[2]
		if uint(p) >= 4 || uint(c0) >= 4 || uint(c1) >= 4 || uint(c2) >= 4 {
			panic("lp: pivot out of range")
		}
		u0, u1, u2 := sub[c0], sub[c1], sub[c2]
		for g := 0; g < n; g++ {
			s, t := (*[4]float64)(src[4*g:]), (*[3]float64)(dst[3*g:])
			fk := s[p]
			t[0] = s[c0] + fk*u0
			t[1] = s[c1] + fk*u1
			t[2] = s[c2] + fk*u2
			if db != nil {
				db[g] = sb[g] - fk*rhs
			}
		}
	case 5:
		c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
		if uint(p) >= 5 || uint(c0) >= 5 || uint(c1) >= 5 || uint(c2) >= 5 || uint(c3) >= 5 {
			panic("lp: pivot out of range")
		}
		u0, u1, u2, u3 := sub[c0], sub[c1], sub[c2], sub[c3]
		for g := 0; g < n; g++ {
			s, t := (*[5]float64)(src[5*g:]), (*[4]float64)(dst[4*g:])
			fk := s[p]
			t[0] = s[c0] + fk*u0
			t[1] = s[c1] + fk*u1
			t[2] = s[c2] + fk*u2
			t[3] = s[c3] + fk*u3
			if db != nil {
				db[g] = sb[g] - fk*rhs
			}
		}
	default:
		for g := 0; g < n; g++ {
			fk := eliminate(dst[g*(k-1):(g+1)*(k-1)], src[g*k:(g+1)*k], sub, p)
			if db != nil {
				db[g] = sb[g] - fk*rhs
			}
		}
	}
}

// solve leaves in lv[k].x the lexicographic optimum of level k's first
// n constraints over the conceptual box [-box, box]^k. It clobbers the
// levels below k and nothing else.
func (w *workspace) solve(k, n int) error {
	cur := &w.lv[k]
	if k == 0 {
		// Zero variables left (a zero-dimensional problem): constraints
		// are "0 ≤ b". Below the top, k = 1 checks these itself.
		for _, b := range cur.b[:n] {
			if b < -zeroTol(b) {
				return lptype.ErrInfeasible
			}
		}
		return nil
	}
	x, sub, below := cur.x, cur.sub, &w.lv[k-1]
	w.corner(k)
	for i := 0; ; i++ {
		if i = firstViolated(cur.a, cur.b, x, k, i, n); i == n {
			return nil
		}
		// Current optimum violates h; the new optimum lies on ∂h.
		h, hb := cur.a[i*k:(i+1)*k], cur.b[i]
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

		if k == 1 {
			// Level 0 fused in: its rows would be "0 ≤ b_g − a_g·sb",
			// so check each as it is computed and store nothing. The
			// one coordinate lifts to sb.
			for g, b := range cur.b[:i] {
				if r := b - cur.a[g]*sb; r < -zeroTol(r) {
					return lptype.ErrInfeasible
				}
			}
			x[0] = sb
			continue
		}
		// Transform the processed prefix and the objective rows into
		// the (k-1)-dimensional subspace (drop coordinate p).
		eliminateRows(below.a, cur.a, sub, k, p, i, below.b, cur.b, sb)
		eliminateRows(below.obj, cur.obj, sub, k, p, w.d+1, nil, nil, 0)
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

// equilibrate scales the row a·x ≤ b, in place, by the power of two
// that brings its largest |coefficient| (b included) into [½, 1), when
// that coefficient lies outside [2^−64, 2^64], and returns the scaled b.
// Multiplying by a power of two is exact (unless a coefficient 2^1022
// times smaller than the largest becomes subnormal), so the row means
// the same; rows of ordinary magnitude are left bit for bit alone.
func equilibrate(a []float64, b float64) float64 {
	mx := math.Abs(b)
	for _, v := range a {
		if av := math.Abs(v); av > mx {
			mx = av
		}
	}
	if mx == 0 || mx >= 0x1p-64 && mx <= 0x1p64 {
		return b
	}
	_, e := math.Frexp(mx)
	for i := range a {
		a[i] = math.Ldexp(a[i], -e)
	}
	return math.Ldexp(b, -e)
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
