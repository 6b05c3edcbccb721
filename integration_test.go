package lowdimlp

import (
	"math"
	"testing"

	"lowdimlp/internal/numeric"
	"lowdimlp/internal/tci"
	"lowdimlp/internal/workload"
)

// Integration tests: end-to-end agreement of all execution models on
// the application workloads the paper motivates, through the public
// API only.

func TestIntegrationChebyshevRegressionAcrossModels(t *testing.T) {
	// Degree 2 (d = 4: three coefficients and the error bound t) over
	// 10 000 samples, two constraints each.
	inst := generate(t, "lp", "chebyshev", GenParams{N: 20_000, D: 4, Seed: 55, Noise: 0.1})
	ref, _ := solve(t, "lp", "ram", inst, Options{Seed: 1})
	if x, _ := ref.Vector("x"); x[len(x)-1] > 0.1+1e-9 {
		t.Fatalf("reference fit error %v above the noise bound", x[len(x)-1])
	}
	opt := Options{R: 3, Seed: 21, K: 4}
	s, _ := solve(t, "lp", "stream", inst, opt)
	c, _ := solve(t, "lp", "coordinator", inst, opt)
	m, _ := solve(t, "lp", "mpc", inst, Options{Seed: 21, Delta: 0.4})
	for name, got := range map[string]Solution{"stream": s, "coordinator": c, "mpc": m} {
		if !numeric.ApproxEqualTol(scalar(got, "value"), scalar(ref, "value"), 1e-6) {
			t.Errorf("%s objective %v vs reference %v", name, scalar(got, "value"), scalar(ref, "value"))
		}
	}
}

func TestIntegrationBoxLPRedundancy(t *testing.T) {
	// Mostly-redundant constraint sets: the optimum is a rotated box
	// corner, and the models must find it while sampling almost only
	// redundant constraints.
	inst := generate(t, "lp", "box", GenParams{N: 50_000, D: 3, Seed: 57})
	ref, _ := solve(t, "lp", "ram", inst, Options{Seed: 1})
	got, stats := solve(t, "lp", "stream", inst, Options{R: 2, Seed: 23})
	if !numeric.ApproxEqualTol(scalar(got, "value"), scalar(ref, "value"), 1e-6) {
		t.Fatalf("stream %v vs ref %v (%v)", scalar(got, "value"), scalar(ref, "value"), stats)
	}
}

func TestIntegrationMonteCarloThroughPublicAPI(t *testing.T) {
	inst := generate(t, "lp", "sphere", GenParams{N: 20_000, D: 2, Seed: 59})
	ref, _ := solve(t, "lp", "ram", inst, Options{Seed: 1})
	got, _, err := SolveInstance("lp", "stream", inst, Options{R: 2, Seed: 25, MonteCarlo: true})
	if err != nil {
		t.Skipf("monte-carlo round failed (allowed w.p. ≤ 1/(nν)): %v", err)
	}
	if !numeric.ApproxEqualTol(scalar(got, "value"), scalar(ref, "value"), 1e-6) {
		t.Fatalf("mc %v vs ref %v", scalar(got, "value"), scalar(ref, "value"))
	}
}

func TestIntegrationTCIAdversarialLP(t *testing.T) {
	// The §5 lower-bound family as input to the general algorithms: the
	// derived 2-D LP must be solved exactly and recover the planted
	// crossing index through every model.
	prob, cons, _, ans, err := workload.TCILP(8, 2, 61)
	if err != nil {
		t.Fatal(err)
	}
	inst := Instance{Dim: prob.Dim, Objective: prob.Objective}
	for _, h := range cons {
		inst.Rows = append(inst.Rows, append(append([]float64(nil), h.A...), h.B))
	}
	opt := Options{R: 2, Seed: 27, K: 2}
	for _, backend := range []string{"stream", "coordinator"} {
		got, _ := solve(t, "lp", backend, inst, opt)
		if x, _ := got.Vector("x"); int(math.Floor(x[0])) != ans {
			t.Errorf("%s recovered index %d, want %d", backend, int(math.Floor(x[0])), ans)
		}
	}
}

func TestIntegrationHardInstanceEndToEnd(t *testing.T) {
	// tcigen-equivalent pipeline: generate, validate, solve three ways.
	rng := numeric.NewRand(63, 63)
	ins, ans, err := tci.Hard(tci.HardOptions{N: 6, R: 3, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if err := ins.Validate(); err != nil {
		t.Fatal(err)
	}
	direct, _ := ins.Answer()
	viaLP, err := ins.SolveViaLP(rng)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := tci.RunProtocol(ins, 3)
	if err != nil {
		t.Fatal(err)
	}
	if direct != ans || viaLP != ans || proto.Answer != ans {
		t.Fatalf("answers diverge: direct %d, lp %d, protocol %d, want %d", direct, viaLP, proto.Answer, ans)
	}
}
