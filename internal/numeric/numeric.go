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
	"cmp"
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

// RowRand is one PCG generator re-seeded for every row a generator
// draws. Generators seed row i on its own (so a single row can be
// regenerated without the rest), and a rand.Rand keeps no state beyond
// its source, so after Seed(s1, s2) the stream equals NewRand(s1, s2)'s
// without two allocations per row.
type RowRand struct {
	pcg rand.PCG
	rng *rand.Rand
}

// NewRowRand returns a RowRand; call Seed before drawing.
func NewRowRand() *RowRand {
	r := &RowRand{}
	r.rng = rand.New(&r.pcg)
	return r
}

// Seed re-seeds the generator and returns it, now drawing the stream
// NewRand(seed1, seed2) would.
func (r *RowRand) Seed(seed1, seed2 uint64) *rand.Rand {
	r.pcg.Seed(seed1, seed2)
	return r.rng
}

// Rows returns n zeroed rows of width numbers, back to back in one
// backing array: two allocations for any n.
func Rows(n, width int) [][]float64 {
	flat := make([]float64, n*width)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = flat[i*width : (i+1)*width : (i+1)*width]
	}
	return rows
}

// CloneRows returns a copy of items whose float rows — the field row
// points at — are copied back to back into one new array, so the copy
// aliases none of the memory the items' rows did. A nil row stays nil;
// a nil or empty items stays nil or empty. The copy is exact.
func CloneRows[T any](items []T, row func(*T) *[]float64) []T {
	if len(items) == 0 {
		if items == nil {
			return nil
		}
		return []T{}
	}
	out := make([]T, len(items))
	copy(out, items)
	total := 0
	for i := range out {
		total += len(*row(&out[i]))
	}
	flat := make([]float64, 0, total)
	for i := range out {
		if r := row(&out[i]); *r != nil {
			lo := len(flat)
			flat = append(flat, *r...)
			*r = flat[lo:len(flat):len(flat)]
		}
	}
	return out
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

// CompareBits orders vectors lexicographically by the bit patterns of
// their entries (math.Float64bits), shorter first on a common prefix:
// a total order on the values themselves, which the small solves use to
// make their answers a function of a set rather than of its order.
func CompareBits(a, b []float64) int {
	for i := range min(len(a), len(b)) {
		if c := cmp.Compare(math.Float64bits(a[i]), math.Float64bits(b[i])); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a), len(b))
}
