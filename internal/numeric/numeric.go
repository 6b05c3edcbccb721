// Package numeric provides the shared floating-point policy for the
// repository: tolerances, robust comparisons, compensated summation and
// deterministic random-number utilities.
//
// All geometric primitives (LP, SVM, MEB solvers) use the relative
// tolerance defined here so that "violates", "tight" and "equal"
// decisions are consistent across packages. The big-data model
// implementations themselves are scale-free: they only ever compare
// weights and counts, never coordinates.
package numeric

import (
	"math"
	"math/rand/v2"
)

// Eps is the default relative tolerance used by the floating-point
// geometric primitives. Inputs in this repository are generated with
// O(log n)-bit coefficients (as the paper assumes), for which 1e-9
// comfortably separates signal from rounding noise.
const Eps = 1e-9

// AbsEps is the absolute tolerance floor used when comparing values
// whose natural scale is close to zero.
const AbsEps = 1e-12

// ApproxEqual reports whether a and b are equal up to the default
// relative tolerance (with an absolute floor near zero).
func ApproxEqual(a, b float64) bool {
	return ApproxEqualTol(a, b, Eps)
}

// ApproxEqualTol reports whether a and b are equal up to relative
// tolerance tol (with an absolute floor near zero).
func ApproxEqualTol(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale || diff <= AbsEps
}

// Sign returns -1, 0, or +1 classifying x against the tolerance scale s
// (use s = 1 for pre-normalized quantities).
func Sign(x, s float64) int {
	t := Eps * math.Max(s, 1)
	switch {
	case x > t:
		return 1
	case x < -t:
		return -1
	default:
		return 0
	}
}

// Kahan implements compensated (Kahan–Babuška) summation. The zero
// value is an empty sum, ready to use.
type Kahan struct {
	sum float64
	c   float64
}

// Add accumulates x into the sum.
func (k *Kahan) Add(x float64) {
	t := k.sum + x
	if math.Abs(k.sum) >= math.Abs(x) {
		k.c += (k.sum - t) + x
	} else {
		k.c += (x - t) + k.sum
	}
	k.sum = t
}

// Sum returns the compensated total.
func (k *Kahan) Sum() float64 { return k.sum + k.c }

// Reset clears the accumulator.
func (k *Kahan) Reset() { k.sum, k.c = 0, 0 }

// Sum returns the compensated sum of xs.
func Sum(xs []float64) float64 {
	var k Kahan
	for _, x := range xs {
		k.Add(x)
	}
	return k.Sum()
}

// NewRand returns a deterministic PRNG seeded with the two words. All
// randomized algorithms in the repository take explicit seeds so that
// experiments and tests are reproducible.
func NewRand(seed1, seed2 uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed1, seed2))
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Dot returns the inner product of a and b. It panics if the lengths
// differ, which always indicates a programming error in this codebase.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("numeric: dot product of vectors with different lengths")
	}
	var s float64
	for i, x := range a {
		s += x * b[i]
	}
	return s
}
