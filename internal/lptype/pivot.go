package lptype

import (
	"math"
	"math/bits"
	"slices"

	"lowdimlp/internal/linalg"
	"lowdimlp/internal/numeric"
)

// Small is a Domain whose large solve is SolvePivot: the quadratic
// kinds (svm, meb) supply only the exact optimum of a few constraints
// (DESIGN.md §15, "The quadratic kinds").
type Small[C, B any] interface {
	Domain[C, B]
	// SolveSmall returns the basis of at most ν+1 constraints, with
	// Basis(b) the support that determines it, violated by none of cs.
	// SolvePivot passes Basis(b), then the violator: an order the small
	// solve may start from, but not depend on (up to tied supports).
	SolveSmall(cs []C) (B, error)
	// Value returns f(b), the objective every pivot must increase.
	Value(b B) float64
	// FirstViolator returns the index of the first constraint of cs
	// that violates b, or -1: Violates over a run, decision for
	// decision, in one call.
	FirstViolator(b B, cs []C) int
}

// SolvePivot solves (S, f) by pivoting over dom's small solve
// (Matoušek–Sharir–Welzl; Gärtner's move-to-front variant). The loop
// first solves a sample of about ν·√n rows, drawn with a seed fixed
// from n, from the basis of ∅, and starts from its basis, so the scan
// meets few violators whatever the input order. It scans in storage
// order, continuing cyclically from the last violator, and stops after
// n clean rows in a row. A violator v replaces b with the small solve
// of Basis(b) ∪ {v}; past violators sit in a move-to-front list that is
// tested before the scan resumes. Each pivot must strictly increase f —
// so the loop ends, f taking finitely many values on subsets of S — and
// one that does not ends the solve in ErrCycling.
func SolvePivot[C, B any](dom Small[C, B], s []C) (B, error) {
	n := len(s)
	b, err := dom.SolveSmall(nil)
	if k := dom.CombinatorialDim() * int(math.Ceil(math.Sqrt(float64(n)))); err == nil && 2*k < n {
		rng := numeric.NewRand(0x7069766f74, uint64(n))
		sample := make([]C, k)
		for i := range sample {
			sample[i] = s[rng.IntN(n)]
		}
		b, err = pivot(dom, sample, b)
	}
	if err != nil {
		return b, err
	}
	return pivot(dom, s, b)
}

// pivot is SolvePivot's loop over s from the basis b.
func pivot[C, B any](dom Small[C, B], s []C, b B) (B, error) {
	var zero B
	n := len(s)
	cand := make([]C, 0, dom.CombinatorialDim()+1)
	var mtf []int // indices of past violators, most recent first
	for i, clean := 0, 0; clean < n; {
		end := min(n, i+n-clean)
		j := dom.FirstViolator(b, s[i:end])
		if j < 0 {
			clean, i = clean+end-i, end%n
			continue
		}
		i, clean = i+j, 0
		for v := i; v >= 0; {
			nb, err := dom.SolveSmall(append(append(cand[:0], dom.Basis(b)...), s[v]))
			if err != nil {
				return zero, err
			}
			if !(dom.Value(nb) > dom.Value(b)) {
				return zero, ErrCycling
			}
			if at := slices.Index(mtf, v); at >= 0 {
				mtf = slices.Delete(mtf, at, at+1)
			}
			mtf = slices.Insert(mtf, 0, v)
			b, v = nb, -1
			for _, k := range mtf[1:] {
				if dom.Violates(b, s[k]) {
					v = k
					break
				}
			}
		}
	}
	return b, nil
}

// Gram is the small solve of a quadratic kind: m < 64 constraints given
// as vectors v_j ∈ R^D, the rows of V. A subset P proposes the point
// x = O + Σ_{j∈P} w_j·v_j whose weights solve the Gram system
// ⟨v_i, Σ_j w_j·v_j⟩ = R_i for i ∈ P — and Σ w_j = 1 when Affine —
// and it is certified when w ≥ 0 (its KKT multipliers). Feasible
// returns a candidate's objective f and whether every constraint holds
// at x.
type Gram struct {
	V        []float64
	D        int
	O        []float64 // nil: the origin
	R        []float64
	Affine   bool
	Start    uint64 // where the active-set path starts, if its weights are positive
	Feasible func(x []float64, mask uint64) (f float64, ok bool)
}

// Solve returns the answer as its subset, point and objective: the
// first certified feasible candidate, and failing that the feasible one
// of least f (mask 0: none is feasible). Candidates come first along
// the active-set path of Wolfe's method (Wolfe 1976; Lawson–Hanson for
// the cone) from Start or the empty subset: the constraint of largest
// R_j − ⟨v_j, Σ w·v⟩ enters, and the weights move toward the new
// subset's solution until one reaches 0, whose constraint leaves — or,
// when the new subset is dependent, along the dependency. In exact
// arithmetic the path ends at the answer; if it stalls or runs past 4m
// steps, every subset of at most D (D+1 when Affine) constraints is
// tried, largest first.
func (g Gram) Solve() (mask uint64, x []float64, f float64) {
	c := g.load()
	if !c.path(g.Start) {
		c.enumerate()
	}
	return c.bestMask, c.bestX, c.bestF
}

// enumerate tries every subset of at most kmax constraints, largest
// first, until one is a certified answer.
func (c *gramRun) enumerate() {
	for k := min(c.kmax, c.m); k >= 1; k-- {
		for mask := uint64(1)<<k - 1; mask < uint64(1)<<c.m; {
			if s, ok := c.solve(mask, -1); ok && c.check(mask, !slices.ContainsFunc(s, func(v float64) bool { return v < 0 })) {
				return
			}
			// Gosper's hack: the next larger mask with k bits set.
			low := mask & -mask
			r := mask + low
			mask = (((r ^ mask) >> 2) / low) | r
		}
	}
}

// Candidate returns the point of subset mask, certified or not; ok is
// false when the subset is dependent.
func (g Gram) Candidate(mask uint64) (x []float64, ok bool) {
	c := g.load()
	_, ok = c.solve(mask, -1)
	return c.x, ok
}

// gramRun is the scratch of one Gram solve.
type gramRun struct {
	Gram
	m, kmax                int
	g, sys, s, w, x, bestX []float64
	bestF                  float64
	bestMask               uint64
}

func (g Gram) load() (c gramRun) {
	m, d := len(g.R), g.D
	c = gramRun{Gram: g, m: m, kmax: d, bestF: math.Inf(1)}
	if g.Affine {
		c.kmax++
	}
	buf := make([]float64, m*m+(m+1)*(m+1)+2*m+1+2*d)
	c.g, buf = buf[:m*m], buf[m*m:]
	c.sys, buf = buf[:(m+1)*(m+1)], buf[(m+1)*(m+1):]
	c.s, buf = buf[:m+1], buf[m+1:]
	c.w, buf = buf[:m], buf[m:]
	c.x, c.bestX = buf[:d], buf[d:]
	for i := range m {
		for j := range m {
			c.g[i*m+j] = numeric.Dot(c.v(i), c.v(j))
		}
	}
	return c
}

func (c *gramRun) v(j int) []float64 { return c.V[j*c.D : (j+1)*c.D] }

// solve solves the Gram system of subset mask: for j < 0 with
// right-hand side R, setting c.x; for j ≥ 0 with right-hand side
// ⟨v_i, v_j⟩, the coefficients of v_j over the subset. It returns the
// weights in mask order, or false when the subset is dependent.
func (c *gramRun) solve(mask uint64, j int) ([]float64, bool) {
	k := bits.OnesCount64(mask)
	if k > c.kmax {
		return nil, false
	}
	n := k + c.kmax - c.D // the border row and column, when Affine
	sys, s, mx := c.sys[:n*n], c.s[:n], 0.0
	for a, r := mask, 0; a != 0; a, r = a&(a-1), r+1 {
		ia := bits.TrailingZeros64(a)
		for b, l := mask, 0; b != 0; b, l = b&(b-1), l+1 {
			sys[r*n+l] = c.g[ia*c.m+bits.TrailingZeros64(b)]
		}
		s[r] = c.R[ia]
		if j >= 0 {
			s[r] = c.g[ia*c.m+j]
		}
		mx = max(mx, c.g[ia*c.m+ia])
	}
	if c.Affine {
		// The border Σ w = 1 takes the subset's Gram scale, exactly, so a
		// candidate depends on its own constraints alone.
		_, e := math.Frexp(mx)
		sigma := math.Ldexp(1, e)
		for r := range k {
			sys[r*n+k], sys[k*n+r] = sigma, sigma
		}
		sys[k*n+k], s[k] = 0, sigma
	}
	if linalg.SolveInPlace(sys, s) != nil {
		return nil, false
	}
	if j < 0 {
		clear(c.x)
		copy(c.x, c.O)
		for a, l := mask, 0; a != 0; a, l = a&(a-1), l+1 {
			for i, v := range c.v(bits.TrailingZeros64(a)) {
				c.x[i] += s[l] * v
			}
		}
	}
	return s[:k], true
}

func (c *gramRun) setWeights(mask uint64, s []float64) {
	for a, l := mask, 0; a != 0; a, l = a&(a-1), l+1 {
		c.w[bits.TrailingZeros64(a)] = s[l]
	}
}

// enter returns the constraint of largest R_j − ⟨v_j, Σ w·v⟩: the
// least margin for svm, the farthest point for meb.
func (c *gramRun) enter() int {
	j, worst := 0, math.Inf(-1)
	for a := range c.m {
		d := c.R[a]
		for i, wi := range c.w {
			d -= wi * c.g[i*c.m+a]
		}
		if d > worst {
			j, worst = a, d
		}
	}
	return j
}

// check keeps the candidate just solved if it is feasible and either
// certified or the least so far, and reports whether it is a certified
// answer.
func (c *gramRun) check(mask uint64, cert bool) bool {
	f, ok := c.Feasible(c.x, mask)
	if !ok || !cert && f >= c.bestF {
		return false
	}
	copy(c.bestX, c.x)
	c.bestF, c.bestMask = f, mask
	return cert
}

// path runs the active-set path from mask when its weights are
// positive, and from the empty subset otherwise; it reports whether a
// candidate was accepted.
func (c *gramRun) path(mask uint64) bool {
	if mask != 0 {
		if s, ok := c.solve(mask, -1); ok && !slices.ContainsFunc(s, func(v float64) bool { return v <= 0 }) {
			c.setWeights(mask, s)
			if c.check(mask, true) {
				return true
			}
		} else {
			mask = 0
		}
	}
	entering := true
	for steps := 0; steps < 4*c.m; steps++ {
		next, j := mask, -1
		if entering {
			if j = c.enter(); mask&(1<<j) != 0 {
				return false
			}
			next |= 1 << j
		}
		s, ok := c.solve(next, -1)
		if !ok && j >= 0 {
			// mask ∪ {j} is dependent: move along the dependency
			// j − Σ β_i·i, which leaves the point where it is.
			beta, ok := c.solve(mask, j)
			if !ok {
				return false
			}
			drop := c.step(beta, mask, j)
			if drop < 0 {
				return false
			}
			mask, entering = mask&^(1<<drop)|1<<j, false
			continue
		}
		if !ok {
			return false
		}
		mask = next
		if drop := c.step(s, mask, -1); drop >= 0 {
			if mask &^= 1 << drop; mask == 0 {
				return false
			}
			entering = false
			continue
		}
		c.setWeights(mask, s)
		if c.check(mask, true) {
			return true
		}
		entering = true
	}
	return false
}

// step moves the weights w on mask until the first one reaches 0, and
// returns its index: toward the subset's weights s for j < 0, at most a
// full step (-1, w untouched, when every s_i > 0); along the dependency
// of j on mask, s = β, for j ≥ 0 — w_j rising from 0 at unit rate while
// each w_i falls at rate β_i (-1 when none falls).
func (c *gramRun) step(s []float64, mask uint64, j int) int {
	w, theta, drop := c.w, 1.0, -1
	for i, l := mask, 0; i != 0; i, l = i&(i-1), l+1 {
		k, t, blocks := bits.TrailingZeros64(i), 0.0, s[l] > 0
		if j < 0 {
			if blocks = s[l] <= 0; w[k] > 0 {
				t = w[k] / (w[k] - s[l])
			}
		} else if blocks {
			t = w[k] / s[l]
		}
		if blocks && (drop < 0 || t < theta) {
			theta, drop = t, k
		}
	}
	if drop < 0 {
		return -1
	}
	for i, l := mask, 0; i != 0; i, l = i&(i-1), l+1 {
		if k := bits.TrailingZeros64(i); j < 0 {
			w[k] += theta * (s[l] - w[k])
		} else {
			w[k] -= theta * s[l]
		}
	}
	if w[drop] = 0; j >= 0 {
		w[j] = theta
	}
	return drop
}
