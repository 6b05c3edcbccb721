package epsnet

import (
	"math"
	"testing"

	"lowdimlp/internal/numeric"
	"lowdimlp/internal/sampling"
)

func TestSampleSizeMonotone(t *testing.T) {
	// m grows as ε shrinks and as λ or 1/δ grow.
	base := SampleSize(0.1, 3, 1./3)
	if SampleSize(0.05, 3, 1./3) <= base {
		t.Error("smaller ε must need more samples")
	}
	if SampleSize(0.1, 6, 1./3) <= base {
		t.Error("larger λ must need more samples")
	}
	if SampleSize(0.1, 3, 1e-9) <= 0 {
		t.Error("tiny δ must still be positive")
	}
}

func TestSampleSizeFormula(t *testing.T) {
	// Hand-check one value: ε=0.5, λ=1, δ=1/3:
	// a = 16·ln16 ≈ 44.36, b = 8·ln6 ≈ 14.33 ⇒ 45.
	if got := SampleSize(0.5, 1, 1./3); got != 45 {
		t.Errorf("SampleSize = %d, want 45", got)
	}
}

func TestSampleSizePanics(t *testing.T) {
	for _, f := range []func(){
		func() { SampleSize(0, 1, 0.5) },
		func() { SampleSize(1, 1, 0.5) },
		func() { SampleSize(0.5, 1, 0) },
		func() { SampleSize(0.5, 1, 1) },
		func() { PracticalSampleSize(0, 1, 1) },
		func() { PracticalSampleSize(0.5, 1, 0) },
		func() { PracticalSampleSize(0.5, 1, -1) },
		func() { PracticalSampleSize(0.5, 1, math.NaN()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestPracticalSampleSize(t *testing.T) {
	if got := PracticalSampleSize(0.01, 3, 10); got != 3000 {
		t.Errorf("PracticalSampleSize = %v, want 3000", got)
	}
	if got := PracticalSampleSize(0.3, 1, 1); got != 4 {
		t.Errorf("PracticalSampleSize = %v, want ⌈1/0.3⌉ = 4", got)
	}
	// A constant past the int range stays a float: +Inf, not an overflow.
	if got := PracticalSampleSize(1e-6, 4, 1e308); !math.IsInf(got, 1) {
		t.Errorf("PracticalSampleSize(c = 1e308) = %v, want +Inf", got)
	}
}

// Finite 1-D interval system: sets are halflines {x ≥ a_s} over points
// 0..nPoints-1. VC dimension 1. A weighted sample of the Lemma 2.2 size
// must be an ε-net w.h.p.
func TestSampledNetIsNet(t *testing.T) {
	const nSets, nPoints = 200, 50
	rng := numeric.NewRand(42, 7)
	thresh := make([]int, nSets)
	w := make([]float64, nSets)
	for s := range thresh {
		thresh[s] = rng.IntN(nPoints)
		w[s] = float64(1 + rng.IntN(5))
	}
	contains := func(set, point int) bool { return point >= thresh[set] }

	eps := 0.1
	m := SampleSize(eps, 1, 1./3)
	fails := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		counts := sampling.Multinomial(m, w, rng)
		var net []int
		for s, c := range counts {
			if c > 0 {
				net = append(net, s)
			}
		}
		if IsNet(nSets, nPoints, w, net, eps, contains) >= 0 {
			fails++
		}
	}
	// Lemma 2.2 guarantees failure probability ≤ 1/3 per trial; the
	// true rate at this m is far lower. Allow a generous margin.
	if fails > trials/3 {
		t.Errorf("net failed %d/%d trials", fails, trials)
	}
}

func TestIsNetWitness(t *testing.T) {
	// Two sets: set 0 = {points ≥ 5}, set 1 = everything. Point 0 is
	// missed by set 0 (weight 9 ≥ ε·10), so a net containing only set 1
	// (which contains point 0) is not an ε-net — witness must be found.
	contains := func(set, point int) bool {
		if set == 0 {
			return point >= 5
		}
		return true
	}
	w := []float64{9, 1}
	if got := IsNet(2, 10, w, []int{1}, 0.5, contains); got != 0 {
		t.Errorf("witness = %d, want 0", got)
	}
	// A net containing set 0 works: for u < 5, set 0 ∉ u is in the net.
	if got := IsNet(2, 10, w, []int{0}, 0.5, contains); got != -1 {
		t.Errorf("witness = %d, want -1", got)
	}
}
