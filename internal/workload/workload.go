// Package workload generates the instance families used by the test
// suite, the examples and the benchmark harness: random linear
// programs, L∞ (Chebyshev) regression LPs, separable SVM clouds, MEB
// point clouds, and 2-D LPs derived from the TCI lower-bound
// construction. All generators are deterministic given their seed.
//
// The …Rows generators produce an instance in the engine's wire-row
// form, every row in one backing array, with one PCG re-seeded per
// row (numeric.RowRand): a constant number of allocations for any n.
// The typed generators are views of those rows, and the single-row
// …At functions, which file writers call row by row, return the same
// values.
package workload

import (
	"math"
	"math/rand/v2"

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
	obj, rows := SphereLPRows(d, n, seed)
	return lp.NewProblem(obj), halfspaces(d, rows)
}

// SphereLPRows is SphereLP in wire-row form: the objective, and row i
// = a_1…a_d 1.
func SphereLPRows(d, n int, seed uint64) (obj []float64, rows [][]float64) {
	rng := numeric.NewRand(seed, 0x5bce1)
	obj = make([]float64, d)
	for i := range obj {
		obj[i] = rng.NormFloat64()
	}
	rows = numeric.Rows(n, d+1)
	rr := numeric.NewRowRand()
	for i, row := range rows {
		sphereDir(row[:d], rr.Seed(sphereSeeds(seed, i)))
		row[d] = 1
	}
	return obj, rows
}

// SphereLPAt regenerates constraint i of SphereLP(d, ·, seed) on its
// own, so an instance far larger than memory can be produced one row at
// a time (for example, written straight into a dataset file).
func SphereLPAt(d int, seed uint64, i int) lp.Halfspace {
	a := make([]float64, d)
	sphereDir(a, numeric.NewRand(sphereSeeds(seed, i)))
	return lp.Halfspace{A: a, B: 1}
}

// sphereDir fills a with a uniform unit direction drawn from rng.
func sphereDir(a []float64, rng *rand.Rand) {
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
}

// sphereSeeds are the generator seeds of sphere-tangent row i.
func sphereSeeds(seed uint64, i int) (uint64, uint64) { return seed ^ 0xabcdef, uint64(i) + 1 }

// halfspaces views wire rows a_1…a_d b as halfspaces, aliasing them.
func halfspaces(d int, rows [][]float64) []lp.Halfspace {
	cons := make([]lp.Halfspace, len(rows))
	for i, row := range rows {
		cons[i] = lp.Halfspace{A: row[:d:d], B: row[d]}
	}
	return cons
}

// BoxLP returns a randomly rotated box: 2d facet constraints plus n-2d
// redundant supporting halfspaces. The optimum is a box corner; most
// constraints are redundant, exercising the pruning behaviour of the
// algorithms.
func BoxLP(d, n int, seed uint64) (lp.Problem, []lp.Halfspace) {
	obj, rows := BoxLPRows(d, n, seed)
	return lp.NewProblem(obj), halfspaces(d, rows)
}

// BoxLPRows is BoxLP in wire-row form. The facets come in ± pairs, so
// for n < 2d an odd n yields n+1 rows.
func BoxLPRows(d, n int, seed uint64) (obj []float64, rows [][]float64) {
	rng := numeric.NewRand(seed, 0xb0e1)
	obj = make([]float64, d)
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
	facets := 2 * min(d, (n+1)/2)
	rows = numeric.Rows(max(n, facets), d+1)
	for i := 0; 2*i < facets; i++ {
		pos, neg := rows[2*i], rows[2*i+1]
		for j, v := range basis[i] {
			pos[j], neg[j] = v, -v
		}
		pos[d], neg[d] = 2, 2
	}
	rr := numeric.NewRowRand()
	for k := facets; k < n; k++ {
		// Redundant: a sphere-tangent constraint at radius ≥ box diam.
		sphereDir(rows[k][:d], rr.Seed(sphereSeeds(seed^0xdead, k)))
		rows[k][d] = 2*math.Sqrt(float64(d)) + 1 + rng.Float64()*5
	}
	return obj, rows
}

// ChebyshevRegression returns the L∞ line/polynomial fitting LP the
// paper's introduction motivates (robust regression): fit a degree-deg
// polynomial p to n noisy samples minimizing the maximum absolute
// error t. Variables are (coeffs..., t), dimension deg+2; each sample
// contributes two constraints |y_i − p(x_i)| ≤ t. The planted
// coefficients are returned for verification.
func ChebyshevRegression(deg, n int, noise float64, seed uint64) (lp.Problem, []lp.Halfspace, []float64) {
	obj, rows, planted := ChebyshevRows(deg, n, noise, seed)
	return lp.NewProblem(obj), halfspaces(deg+2, rows), planted
}

// ChebyshevRows is ChebyshevRegression in wire-row form: the objective,
// the 2n rows, and the planted coefficients.
func ChebyshevRows(deg, n int, noise float64, seed uint64) (obj []float64, rows [][]float64, planted []float64) {
	rng := numeric.NewRand(seed, 0xc4eb)
	d := deg + 2 // coefficients + error bound t
	planted = make([]float64, deg+1)
	for i := range planted {
		planted[i] = rng.NormFloat64() * 2
	}
	obj = make([]float64, d)
	obj[d-1] = 1 // minimize t
	rows = numeric.Rows(2*n, d+1)
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
		rowNeg, rowPos := rows[2*i], rows[2*i+1]
		pw = 1.0
		for j := 0; j <= deg; j++ {
			rowNeg[j] = -pw
			rowPos[j] = pw
			pw *= x
		}
		rowNeg[d-1], rowNeg[d] = -1, -y
		rowPos[d-1], rowPos[d] = -1, y
	}
	return obj, rows, planted
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
	rows, w := SeparableSVMRows(d, n, margin, seed)
	out := make([]svm.Example, n)
	for i, row := range rows {
		out[i] = svm.Example{X: row[:d:d], Y: row[d]}
	}
	return out, w
}

// SeparableSVMRows is SeparableSVM in wire-row form: row i = x_1…x_d y,
// and the planted normal.
func SeparableSVMRows(d, n int, margin float64, seed uint64) (rows [][]float64, w []float64) {
	rng := numeric.NewRand(seed, 0x5e9a)
	w = make([]float64, d)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	nrm := numeric.Norm2(w)
	for i := range w {
		w[i] /= nrm
	}
	rows = numeric.Rows(n, d+1)
	rr := numeric.NewRowRand()
	for i, row := range rows {
		row[d] = svmExample(row[:d], w, margin, rr.Seed(svmSeeds(seed, i)))
	}
	return rows, w
}

// SeparableSVMAt regenerates example i of SeparableSVM(d, ·, margin,
// seed) for streaming inputs. The caller supplies the planted normal
// returned by SeparableSVM (or computes it identically).
func SeparableSVMAt(d int, w []float64, margin float64, seed uint64, i int) svm.Example {
	x := make([]float64, d)
	y := svmExample(x, w, margin, numeric.NewRand(svmSeeds(seed, i)))
	return svm.Example{X: x, Y: y}
}

// svmSeeds are the generator seeds of example i.
func svmSeeds(seed uint64, i int) (uint64, uint64) { return seed ^ 0x5e9a77, uint64(i) + 1 }

// svmExample fills x with one example drawn from rng and returns its
// label.
func svmExample(x, w []float64, margin float64, rng *rand.Rand) float64 {
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
	return y
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
	rows := MEBCloudRows(kind, d, n, seed)
	pts := make([]meb.Point, n)
	for i, row := range rows {
		pts[i] = row
	}
	return pts
}

// MEBCloudRows is MEBCloud in wire-row form: row i is point i.
func MEBCloudRows(kind MEBKind, d, n int, seed uint64) [][]float64 {
	rows := numeric.Rows(n, d)
	u, v := lowRankPlane(kind, d, seed)
	rr := numeric.NewRowRand()
	for i, row := range rows {
		mebPoint(row, kind, u, v, rr.Seed(mebSeeds(kind, seed, i)))
	}
	return rows
}

// MEBCloudAt regenerates point i of MEBCloud for streaming inputs.
func MEBCloudAt(kind MEBKind, d int, seed uint64, i int) meb.Point {
	p := make(meb.Point, d)
	u, v := lowRankPlane(kind, d, seed)
	mebPoint(p, kind, u, v, numeric.NewRand(mebSeeds(kind, seed, i)))
	return p
}

// mebSeeds are the generator seeds of point i of a kind's cloud.
func mebSeeds(kind MEBKind, seed uint64, i int) (uint64, uint64) {
	return seed ^ 0x3eb<<4 ^ uint64(kind), uint64(i) + 1
}

// lowRankPlane returns MEBLowRank's two fixed pseudo-random directions
// (nil for the other kinds).
func lowRankPlane(kind MEBKind, d int, seed uint64) (u, v []float64) {
	if kind != MEBLowRank {
		return nil, nil
	}
	dirRng := numeric.NewRand(seed^0x10a, 0)
	u = make([]float64, d)
	v = make([]float64, d)
	for j := range u {
		u[j] = dirRng.NormFloat64()
		v[j] = dirRng.NormFloat64()
	}
	return u, v
}

// mebPoint fills p with one point of the kind drawn from rng; u and v
// are lowRankPlane's directions.
func mebPoint(p []float64, kind MEBKind, u, v []float64, rng *rand.Rand) {
	d := len(p)
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
		s, t := p[0], p[min(1, d-1)]
		for j := range p {
			p[j] = s*u[j] + t*v[j]
		}
	}
}
