package linalg

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"

	"lowdimlp/internal/numeric"
)

func TestSolveKnown(t *testing.T) {
	a := FromRows([][]float64{
		{2, 1},
		{1, 3},
	})
	x, err := Solve(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.ApproxEqual(x[0], 1) || !numeric.ApproxEqual(x[1], 3) {
		t.Errorf("Solve = %v, want [1 3]", x)
	}
}

func TestSolveIdentity(t *testing.T) {
	n := 5
	a := NewMatrix(n, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
		b[i] = float64(i + 1)
	}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if !numeric.ApproxEqual(x[i], b[i]) {
			t.Errorf("identity solve x[%d] = %v", i, x[i])
		}
	}
}

func TestSolveSingular(t *testing.T) {
	a := FromRows([][]float64{
		{1, 2},
		{2, 4},
	})
	if _, err := Solve(a, []float64{1, 2}); err != ErrSingular {
		t.Errorf("expected ErrSingular, got %v", err)
	}
	z := FromRows([][]float64{{0, 0}, {0, 0}})
	if _, err := Solve(z, []float64{0, 0}); err != ErrSingular {
		t.Errorf("expected ErrSingular on zero matrix, got %v", err)
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Leading zero forces a row swap.
	a := FromRows([][]float64{
		{0, 1},
		{1, 0},
	})
	x, err := Solve(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.ApproxEqual(x[0], 3) || !numeric.ApproxEqual(x[1], 2) {
		t.Errorf("Solve = %v, want [3 2]", x)
	}
}

// Property: for random well-conditioned systems, A·Solve(A,b) ≈ b.
func TestSolveResidualProperty(t *testing.T) {
	rng := numeric.NewRand(42, 1)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(6)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = rng.Float64()*4 - 2
		}
		// Boost the diagonal to keep the condition number sane.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.Float64()*10 - 5
		}
		x, err := Solve(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		r := a.MulVec(x)
		for i := range r {
			if math.Abs(r[i]-b[i]) > 1e-8 {
				t.Fatalf("trial %d: residual %v vs %v", trial, r, b)
			}
		}
	}
}

// Property: det(A) ≠ 0 iff Solve succeeds (for matrices away from the
// numerical cliff), with det(A) exact from RatDet.
func TestDetSolveConsistency(t *testing.T) {
	rng := numeric.NewRand(7, 9)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(4)
		a, r := NewMatrix(n, n), NewRatMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = float64(rng.IntN(7) - 3) // small integers: exact dets
			r.Data[i].SetFloat64(a.Data[i])
		}
		d, _ := RatDet(r).Float64()
		_, err := Solve(a, make([]float64, n))
		if math.Abs(d) > 0.5 && err != nil {
			t.Fatalf("det %v but Solve failed", d)
		}
		if d == 0 && err == nil {
			t.Fatalf("det 0 but Solve succeeded:\n%v", a)
		}
	}
}

func TestRatSolveExact(t *testing.T) {
	a := NewRatMatrix(2, 2)
	a.Set(0, 0, big.NewRat(2, 1))
	a.Set(0, 1, big.NewRat(1, 1))
	a.Set(1, 0, big.NewRat(1, 1))
	a.Set(1, 1, big.NewRat(3, 1))
	b := []*big.Rat{big.NewRat(5, 1), big.NewRat(10, 1)}
	x, err := RatSolve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if x[0].Cmp(big.NewRat(1, 1)) != 0 || x[1].Cmp(big.NewRat(3, 1)) != 0 {
		t.Errorf("RatSolve = %v, want [1 3]", x)
	}
}

func TestRatSolveSingular(t *testing.T) {
	a := NewRatMatrix(2, 2)
	a.Set(0, 0, big.NewRat(1, 1))
	a.Set(0, 1, big.NewRat(2, 1))
	a.Set(1, 0, big.NewRat(2, 1))
	a.Set(1, 1, big.NewRat(4, 1))
	if _, err := RatSolve(a, []*big.Rat{big.NewRat(1, 1), big.NewRat(2, 1)}); err != ErrSingular {
		t.Errorf("expected ErrSingular, got %v", err)
	}
}

func TestRatSolvePivot(t *testing.T) {
	// Zero in the leading position requires a swap.
	a := NewRatMatrix(2, 2)
	a.Set(0, 1, big.NewRat(1, 1))
	a.Set(1, 0, big.NewRat(1, 1))
	b := []*big.Rat{big.NewRat(2, 1), big.NewRat(3, 1)}
	x, err := RatSolve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if x[0].Cmp(big.NewRat(3, 1)) != 0 || x[1].Cmp(big.NewRat(2, 1)) != 0 {
		t.Errorf("RatSolve = %v, want [3 2]", x)
	}
}

// Property: rational and float solvers agree on small integer systems.
func TestRatFloatAgreement(t *testing.T) {
	f := func(a0, a1, a2, a3, b0, b1 int8) bool {
		det := int(a0)*int(a3) - int(a1)*int(a2)
		if det == 0 {
			return true
		}
		fa := FromRows([][]float64{
			{float64(a0), float64(a1)},
			{float64(a2), float64(a3)},
		})
		fx, err := Solve(fa, []float64{float64(b0), float64(b1)})
		if err != nil {
			// Numerically near-singular small-integer systems are skipped.
			return true
		}
		ra := NewRatMatrix(2, 2)
		ra.Set(0, 0, big.NewRat(int64(a0), 1))
		ra.Set(0, 1, big.NewRat(int64(a1), 1))
		ra.Set(1, 0, big.NewRat(int64(a2), 1))
		ra.Set(1, 1, big.NewRat(int64(a3), 1))
		rx, err := RatSolve(ra, []*big.Rat{big.NewRat(int64(b0), 1), big.NewRat(int64(b1), 1)})
		if err != nil {
			return false
		}
		for i := range fx {
			exact, _ := rx[i].Float64()
			if !numeric.ApproxEqualTol(fx[i], exact, 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRatDet(t *testing.T) {
	a := NewRatMatrix(3, 3)
	vals := [][]int64{{2, 0, 0}, {0, 3, 0}, {0, 0, 5}}
	for i, row := range vals {
		for j, v := range row {
			a.Set(i, j, big.NewRat(v, 1))
		}
	}
	if got := RatDet(a); got.Cmp(big.NewRat(30, 1)) != 0 {
		t.Errorf("RatDet = %v, want 30", got)
	}
}

func TestMatrixAccessors(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Error("Set/At roundtrip failed")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Error("Clone must not share storage")
	}
	if len(m.Row(1)) != 3 || m.Row(1)[2] != 7 {
		t.Error("Row view incorrect")
	}
	if m.String() == "" {
		t.Error("String should render something")
	}
}

func TestScaleOf(t *testing.T) {
	for _, mx := range []float64{1, 0.5, 0.75, 3, 1e300, 1e-300, math.MaxFloat64, math.SmallestNonzeroFloat64, 0x1p1021, 0x1p1022, 0x1.8p1023, 0x1p-1022, 0x1p-1030} {
		_, e := math.Frexp(mx)
		if got, want := scaleOf(mx), math.Ldexp(1, -e); got != want {
			t.Errorf("scaleOf(%g) = %g, want %g", mx, got, want)
		}
	}
}
