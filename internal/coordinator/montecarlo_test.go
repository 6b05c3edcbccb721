package coordinator

import (
	"errors"
	"testing"

	"lowdimlp/internal/core"
	"lowdimlp/internal/lp"
	"lowdimlp/internal/numeric"
)

func TestCoordinatorMonteCarlo(t *testing.T) {
	d := 2
	p, cons := sphereLP(d, 30000, 71)
	dom := lp.NewDomain(p, 21)
	cc, bc := lpCodecs(d)
	got, stats, err := solveTyped(dom, partition(cons, 4), cc, bc, Options{
		Core: core.Options{R: 2, Seed: 10, NetConst: 0.5, MonteCarlo: true},
	})
	if err != nil {
		if errors.Is(err, core.ErrRoundFailed) {
			t.Skip("monte-carlo round failed (allowed)")
		}
		t.Fatal(err)
	}
	want, _ := dom.Solve(cons)
	if !numeric.ApproxEqualTol(got.Sol.Value, want.Sol.Value, 1e-6) {
		t.Fatalf("mc %v vs direct %v (%v)", got.Sol.Value, want.Sol.Value, stats)
	}
}

func TestCoordinatorIterationBudget(t *testing.T) {
	// A pathologically small iteration budget must surface as
	// ErrIterationBudget rather than a hang or wrong answer.
	d := 2
	p, cons := sphereLP(d, 30000, 73)
	dom := lp.NewDomain(p, 23)
	cc, bc := lpCodecs(d)
	_, _, err := solveTyped(dom, partition(cons, 4), cc, bc, Options{
		Core: core.Options{R: 2, Seed: 11, NetConst: 0.5, MaxIters: 1},
	})
	if !errors.Is(err, core.ErrIterationBudget) {
		t.Fatalf("expected ErrIterationBudget, got %v", err)
	}
}
