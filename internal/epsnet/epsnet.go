// Package epsnet implements the ε-net machinery of §2.2 of
// Assadi–Karpov–Zhang (PODS 2019): the Haussler–Welzl sample-size bound
// of Lemma 2.2 (Eq. 1), the scaled-down "practical" sample size used by
// the experiments, and a verifier for the ε-net property on finite
// ground sets (used by the property-based tests).
package epsnet

import "math"

// SampleSize returns m(ε, λ, δ) from Lemma 2.2 (Eq. 1):
//
//	m = max( (8λ/ε)·log(8λ/ε), (4/ε)·log(2/δ) )
//
// — the number of i.i.d. weighted samples that form an ε-net of a
// set system of VC dimension λ with probability ≥ 1-δ. Logarithms are
// natural, matching the standard statement.
func SampleSize(eps float64, vcDim int, delta float64) int {
	if eps <= 0 || eps >= 1 {
		panic("epsnet: ε must be in (0,1)")
	}
	if delta <= 0 || delta >= 1 {
		panic("epsnet: δ must be in (0,1)")
	}
	l := float64(vcDim)
	a := 8 * l / eps * math.Log(8*l/eps)
	b := 4 / eps * math.Log(2/delta)
	return int(math.Ceil(math.Max(a, b)))
}

// PracticalSampleSize returns ⌈c·λ/ε⌉ — the same Θ(λ/ε) scaling as
// Lemma 2.2 with the theory constants (8·log(8λ/ε) ≈ 80+) replaced by a
// small practical constant c > 0, as every implementation of
// Clarkson-style algorithms does. The meta-algorithm remains correct for
// any sample size (it is Las Vegas — a failed net only costs an extra
// iteration); the constant trades per-iteration space against iteration
// count. The size is a float64 so that a caller can compare it with n
// before converting: a huge c gives +Inf, never an overflowed int.
func PracticalSampleSize(eps float64, vcDim int, c float64) float64 {
	if eps <= 0 || eps >= 1 {
		panic("epsnet: ε must be in (0,1)")
	}
	if !(c > 0) {
		panic("epsnet: the net constant c must be positive")
	}
	return math.Ceil(c * float64(vcDim) / eps)
}

// IsNet verifies the ε-net property for a finite set system given by
// incidence callbacks, with respect to weights w over the n sets:
// for every "point" u ∈ [universe), if the sets NOT containing u have
// total weight ≥ ε·w(total), then the net must include at least one set
// not containing u.
//
//	contains(set, point) — incidence oracle
//
// Returns the first witness point violating the property, or -1.
func IsNet(nSets, nPoints int, w []float64, net []int, eps float64,
	contains func(set, point int) bool) int {

	var total float64
	for _, wi := range w {
		total += wi
	}
	for u := 0; u < nPoints; u++ {
		var miss float64
		for s := 0; s < nSets; s++ {
			if !contains(s, u) {
				miss += w[s]
			}
		}
		if miss >= eps*total {
			hit := false
			for _, s := range net {
				if !contains(s, u) {
					hit = true
					break
				}
			}
			if !hit {
				return u
			}
		}
	}
	return -1
}
