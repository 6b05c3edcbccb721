package meb

import (
	"errors"
	"testing"

	"lowdimlp/internal/numeric"
)

func coresetCloud(d, n int, seed uint64) []Point {
	rng := numeric.NewRand(seed, 0xc05e)
	pts := make([]Point, n)
	for i := range pts {
		p := make(Point, d)
		for j := range p {
			p[j] = rng.NormFloat64() * 2
		}
		pts[i] = p
	}
	return pts
}

func TestCoresetApproximationRatio(t *testing.T) {
	for _, eps := range []float64{0.5, 0.1, 0.01} {
		for trial := 0; trial < 5; trial++ {
			pts := coresetCloud(3, 5000, uint64(trial)+uint64(eps*1000))
			exact, err := Solve(pts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Coreset(pts, eps)
			if err != nil {
				t.Fatalf("ε=%v trial=%d: %v", eps, trial, err)
			}
			// The coreset ball blown up by (1+ε) covers everything, and
			// its radius is at most the exact radius (it encloses a
			// subset) — so (1+ε)·r(coreset) ∈ [r*, (1+ε)·r*].
			if res.Ball.Radius() > exact.Radius()*(1+1e-9) {
				t.Fatalf("coreset radius %v exceeds exact %v", res.Ball.Radius(), exact.Radius())
			}
			blown := res.Ball.Radius() * (1 + eps)
			if blown < exact.Radius()*(1-1e-9) {
				t.Fatalf("ε=%v: blown-up coreset ball radius %v below exact %v", eps, blown, exact.Radius())
			}
			// Coverage of the whole input by the blown-up ball.
			lim := res.Ball.R2 * (1 + eps) * (1 + eps) * (1 + 1e-9)
			for i, p := range pts {
				if res.Ball.Dist2(p) > lim {
					t.Fatalf("ε=%v: point %d outside the (1+ε) ball", eps, i)
				}
			}
		}
	}
}

func TestCoresetSizeIndependentOfN(t *testing.T) {
	eps := 0.1
	var sizes []int
	for _, n := range []int{1000, 10_000, 100_000} {
		pts := coresetCloud(3, n, uint64(n))
		res, err := Coreset(pts, eps)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(res.Coreset))
		// The BC bound: |coreset| ≤ 2/ε + 2 (plus our seed slack).
		if len(res.Coreset) > int(2/eps)+18 {
			t.Fatalf("n=%d: coreset size %d exceeds the O(1/ε) bound", n, len(res.Coreset))
		}
	}
	// 100× more points must not mean meaningfully larger coresets.
	if sizes[2] > 4*sizes[0]+8 {
		t.Errorf("coreset sizes grew with n: %v", sizes)
	}
}

func TestCoresetEdgeCases(t *testing.T) {
	if _, err := Coreset(nil, 0.1); err != nil {
		t.Error("empty input must succeed with the null ball")
	}
	res, err := Coreset([]Point{pt(1, 2)}, 0.1)
	if err != nil || res.Ball.R2 != 0 {
		t.Errorf("single point: %v %v", res, err)
	}
	if _, err := Coreset([]Point{pt(0)}, 0); !errors.Is(err, ErrBadEpsilon) {
		t.Error("ε=0 must be rejected")
	}
	if _, err := Coreset([]Point{pt(0)}, 1.5); !errors.Is(err, ErrBadEpsilon) {
		t.Error("ε>1 must be rejected")
	}
	// Duplicates collapse to a zero-radius ball.
	res, err = Coreset([]Point{pt(3, 3), pt(3, 3), pt(3, 3)}, 0.2)
	if err != nil || res.Ball.Radius() > 1e-9 {
		t.Errorf("duplicates: %v %v", res.Ball, err)
	}
}
