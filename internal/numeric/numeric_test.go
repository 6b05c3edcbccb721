package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestApproxEqual(t *testing.T) {
	cases := []struct {
		a, b float64
		want bool
	}{
		{0, 0, true},
		{1, 1, true},
		{1, 1 + 1e-12, true},
		{1, 1 + 1e-6, false},
		{1e12, 1e12 + 1, true},
		{0, 1e-13, true},
		{0, 1e-6, false},
		{-5, -5 - 1e-11, true},
		{math.Inf(1), math.Inf(1), true},
		{1, 2, false},
	}
	for _, c := range cases {
		if got := ApproxEqual(c.a, c.b); got != c.want {
			t.Errorf("ApproxEqual(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestSign(t *testing.T) {
	if Sign(1, 1) != 1 || Sign(-1, 1) != -1 || Sign(1e-12, 1) != 0 {
		t.Error("Sign misbehaves")
	}
	if Sign(1e-7, 1e3) != 0 {
		t.Error("Sign should scale tolerance with s")
	}
}

func TestKahan(t *testing.T) {
	// Sum 1 + 1e-16 * 1e6 naively loses the small terms; Kahan keeps them.
	var k Kahan
	k.Add(1)
	for i := 0; i < 1_000_000; i++ {
		k.Add(1e-16)
	}
	got := k.Sum()
	want := 1 + 1e-10
	if math.Abs(got-want) > 1e-14 {
		t.Errorf("Kahan sum = %.18f, want %.18f", got, want)
	}
	k.Reset()
	if k.Sum() != 0 {
		t.Error("Reset should clear the accumulator")
	}
}

func TestSumMatchesNaiveOnBenignInput(t *testing.T) {
	f := func(xs []float64) bool {
		var naive float64
		ok := true
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				ok = false
				break
			}
			naive += x
		}
		if !ok {
			return true
		}
		return ApproxEqualTol(Sum(xs), naive, 1e-6) || math.Abs(Sum(xs)-naive) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewRandDeterminism(t *testing.T) {
	a := NewRand(1, 2)
	b := NewRand(1, 2)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("NewRand with equal seeds must produce identical streams")
		}
	}
	c := NewRand(1, 3)
	same := true
	a = NewRand(1, 2)
	for i := 0; i < 16; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds should produce different streams")
	}
}

func TestDotAndNorm(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Error("Dot misbehaves")
	}
	if !ApproxEqual(Norm2([]float64{3, 4}), 5) {
		t.Error("Norm2 misbehaves")
	}
	defer func() {
		if recover() == nil {
			t.Error("Dot should panic on mismatched lengths")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}
