// Package workload generates the instance families used by the test
// suite, the examples and the benchmark harness: random linear
// programs, L∞ (Chebyshev) regression LPs, separable SVM clouds, MEB
// point clouds, and 2-D LPs derived from the TCI lower-bound
// construction. All generators are deterministic given their seed.
package workload

import (
	"math"

	"lowdimlp/internal/lp"
	"lowdimlp/internal/meb"
	"lowdimlp/internal/numeric"
	"lowdimlp/internal/svm"
	"lowdimlp/internal/tci"
)

// --- Linear programs ---------------------------------------------------

// SphereLP returns the sphere-tangent random LP family: n constraints
// a·x ≤ 1 with a uniform on the unit sphere, and a Gaussian objective.
// The unit ball is always feasible; for n ≳ 2^d the LP is bounded
// w.h.p. and its optimum lies on the sphere's antipode of the
// objective direction. This is the workhorse family for E1–E4.
func SphereLP(d, n int, seed uint64) (lp.Problem, []lp.Halfspace) {
	rng := numeric.NewRand(seed, 0x5bce1)
	obj := make([]float64, d)
	for i := range obj {
		obj[i] = rng.NormFloat64()
	}
	cons := make([]lp.Halfspace, n)
	for i := range cons {
		cons[i] = sphereCon(d, seed, i)
	}
	return lp.NewProblem(obj), cons
}

// SphereLPAt regenerates constraint i of SphereLP(d, ·, seed) on its
// own, so an instance far larger than memory can be produced one row at
// a time (for example, written straight into a dataset file).
func SphereLPAt(d int, seed uint64, i int) lp.Halfspace {
	return sphereCon(d, seed, i)
}

func sphereCon(d int, seed uint64, i int) lp.Halfspace {
	rng := numeric.NewRand(seed^0xabcdef, uint64(i)+1)
	a := make([]float64, d)
	for j := range a {
		a[j] = rng.NormFloat64()
	}
	nrm := numeric.Norm2(a)
	if nrm == 0 {
		a[0] = 1
		nrm = 1
	}
	for j := range a {
		a[j] /= nrm
	}
	return lp.Halfspace{A: a, B: 1}
}

// BoxLP returns a randomly rotated box: 2d facet constraints plus n-2d
// redundant supporting halfspaces. The optimum is a box corner; most
// constraints are redundant, exercising the pruning behaviour of the
// algorithms.
func BoxLP(d, n int, seed uint64) (lp.Problem, []lp.Halfspace) {
	rng := numeric.NewRand(seed, 0xb0e1)
	obj := make([]float64, d)
	for i := range obj {
		obj[i] = rng.NormFloat64()
	}
	// A random rotation via Gram-Schmidt on Gaussian vectors.
	basis := make([][]float64, d)
	for i := range basis {
		v := make([]float64, d)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		for _, u := range basis[:i] {
			dot := numeric.Dot(v, u)
			for j := range v {
				v[j] -= dot * u[j]
			}
		}
		nrm := numeric.Norm2(v)
		if nrm < 1e-9 {
			v[i] += 1
			nrm = numeric.Norm2(v)
		}
		for j := range v {
			v[j] /= nrm
		}
		basis[i] = v
	}
	cons := make([]lp.Halfspace, 0, n)
	for i := 0; i < d && len(cons) < n; i++ {
		pos := append([]float64(nil), basis[i]...)
		neg := make([]float64, d)
		for j := range neg {
			neg[j] = -pos[j]
		}
		cons = append(cons, lp.Halfspace{A: pos, B: 2}, lp.Halfspace{A: neg, B: 2})
	}
	for len(cons) < n {
		// Redundant: a sphere-tangent constraint at radius ≥ box diam.
		h := sphereCon(d, seed^0xdead, len(cons))
		h.B = 2*math.Sqrt(float64(d)) + 1 + rng.Float64()*5
		cons = append(cons, h)
	}
	return lp.NewProblem(obj), cons
}

// ChebyshevRegression returns the L∞ line/polynomial fitting LP the
// paper's introduction motivates (robust regression): fit a degree-deg
// polynomial p to n noisy samples minimizing the maximum absolute
// error t. Variables are (coeffs..., t), dimension deg+2; each sample
// contributes two constraints |y_i − p(x_i)| ≤ t. The planted
// coefficients are returned for verification.
func ChebyshevRegression(deg, n int, noise float64, seed uint64) (lp.Problem, []lp.Halfspace, []float64) {
	rng := numeric.NewRand(seed, 0xc4eb)
	d := deg + 2 // coefficients + error bound t
	planted := make([]float64, deg+1)
	for i := range planted {
		planted[i] = rng.NormFloat64() * 2
	}
	obj := make([]float64, d)
	obj[d-1] = 1 // minimize t
	cons := make([]lp.Halfspace, 0, 2*n)
	for i := 0; i < n; i++ {
		x := rng.Float64()*2 - 1
		y := 0.0
		pw := 1.0
		for _, c := range planted {
			y += c * pw
			pw *= x
		}
		y += (rng.Float64()*2 - 1) * noise
		// y − p(x) ≤ t  ⇔  −Σ c_j x^j − t ≤ −y
		// p(x) − y ≤ t  ⇔   Σ c_j x^j − t ≤  y
		rowNeg := make([]float64, d)
		rowPos := make([]float64, d)
		pw = 1.0
		for j := 0; j <= deg; j++ {
			rowNeg[j] = -pw
			rowPos[j] = pw
			pw *= x
		}
		rowNeg[d-1] = -1
		rowPos[d-1] = -1
		cons = append(cons,
			lp.Halfspace{A: rowNeg, B: -y},
			lp.Halfspace{A: rowPos, B: y},
		)
	}
	return lp.NewProblem(obj), cons, planted
}

// TCILP returns the 2-D LP derived from a hard TCI instance of depth r
// and branching n — the adversarial family of §5 (experiment E8) — in
// float64 form, together with the exact instance and its answer.
func TCILP(n, r int, seed uint64) (lp.Problem, []lp.Halfspace, *tci.Instance, int, error) {
	rng := numeric.NewRand(seed, 0x7c1)
	ins, ans, err := tci.Hard(tci.HardOptions{N: n, R: r, Rng: rng})
	if err != nil {
		return lp.Problem{}, nil, nil, 0, err
	}
	prob, cons := ins.ToHalfspaces()
	return prob, cons, ins, ans, nil
}

// --- SVM ---------------------------------------------------------------

// SeparableSVM plants a unit normal and margin and samples n labeled
// points at functional distance ≥ margin on the correct side (no bias
// term — the paper's model (6)). The planted normal is returned.
func SeparableSVM(d, n int, margin float64, seed uint64) ([]svm.Example, []float64) {
	rng := numeric.NewRand(seed, 0x5e9a)
	w := make([]float64, d)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	nrm := numeric.Norm2(w)
	for i := range w {
		w[i] /= nrm
	}
	out := make([]svm.Example, n)
	for i := range out {
		out[i] = svmExample(d, w, margin, seed, i)
	}
	return out, w
}

// SeparableSVMAt regenerates example i of SeparableSVM(d, ·, margin,
// seed) for streaming inputs. The caller supplies the planted normal
// returned by SeparableSVM (or computes it identically).
func SeparableSVMAt(d int, w []float64, margin float64, seed uint64, i int) svm.Example {
	return svmExample(d, w, margin, seed, i)
}

func svmExample(d int, w []float64, margin float64, seed uint64, i int) svm.Example {
	rng := numeric.NewRand(seed^0x5e9a77, uint64(i)+1)
	x := make([]float64, d)
	for j := range x {
		x[j] = rng.NormFloat64() * 3
	}
	y := 1.0
	if rng.IntN(2) == 0 {
		y = -1
	}
	dot := numeric.Dot(w, x)
	shift := y*(margin+rng.Float64()*3) - dot
	for j := range x {
		x[j] += shift * w[j]
	}
	return svm.Example{X: x, Y: y}
}

// --- MEB ----------------------------------------------------------------

// MEBKind selects a point-cloud shape for MEB workloads.
type MEBKind int

const (
	// MEBGaussian is a standard Gaussian cloud.
	MEBGaussian MEBKind = iota
	// MEBUniformBall is uniform in the unit ball (rejection-free via
	// radius transform).
	MEBUniformBall
	// MEBShell concentrates points near a sphere — nearly co-spherical,
	// the degenerate case for pivoting solvers.
	MEBShell
	// MEBLowRank confines points to a random 2-D subspace.
	MEBLowRank
)

// MEBCloud samples n points of the given kind in R^d.
func MEBCloud(kind MEBKind, d, n int, seed uint64) []meb.Point {
	pts := make([]meb.Point, n)
	for i := range pts {
		pts[i] = MEBCloudAt(kind, d, seed, i)
	}
	return pts
}

// MEBCloudAt regenerates point i of MEBCloud for streaming inputs.
func MEBCloudAt(kind MEBKind, d int, seed uint64, i int) meb.Point {
	rng := numeric.NewRand(seed^0x3eb<<4^uint64(kind), uint64(i)+1)
	p := make(meb.Point, d)
	for j := range p {
		p[j] = rng.NormFloat64()
	}
	switch kind {
	case MEBGaussian:
	case MEBUniformBall:
		nrm := numeric.Norm2(p)
		if nrm > 0 {
			rad := math.Pow(rng.Float64(), 1/float64(d))
			for j := range p {
				p[j] = p[j] / nrm * rad
			}
		}
	case MEBShell:
		nrm := numeric.Norm2(p)
		if nrm > 0 {
			rad := 5 + 1e-3*rng.Float64()
			for j := range p {
				p[j] = p[j]/nrm*rad + 1
			}
		}
	case MEBLowRank:
		// Project onto the span of two fixed pseudo-random directions.
		dirRng := numeric.NewRand(seed^0x10a, 0)
		u := make([]float64, d)
		v := make([]float64, d)
		for j := range u {
			u[j] = dirRng.NormFloat64()
			v[j] = dirRng.NormFloat64()
		}
		s, t := p[0], p[min(1, d-1)]
		for j := range p {
			p[j] = s*u[j] + t*v[j]
		}
	}
	return p
}
