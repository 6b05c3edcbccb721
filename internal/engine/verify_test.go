package engine_test

import (
	"fmt"
	"testing"

	"lowdimlp/internal/engine"
	"lowdimlp/internal/meb"
)

// TestEveryAnswerVerifies pins that a solve's answer passes the
// violation test the solve itself stops on: for every kind, every
// generator family and every backend — ship-all at the default options
// and sampled at r = 3 with a small net constant — the returned basis
// must verify over the whole input (VerifyBasisSource: no row violates
// it). An answer that fails this is a basis the warm-start path would
// reject and that Lemma 3.1's violation tests call infeasible.
func TestEveryAnswerVerifies(t *testing.T) {
	opts := []engine.Options{{}, {R: 3, NetConst: 0.3}}
	for _, m := range engine.Models() {
		for _, family := range m.Families() {
			for seed := uint64(1); seed <= 3; seed++ {
				inst, err := m.Generate(family, engine.GenParams{N: 2000, D: 3, Seed: seed})
				if err != nil {
					t.Fatalf("%s/%s seed %d: generate: %v", m.Kind(), family, seed, err)
				}
				st, err := engine.Columnar(m, inst)
				if err != nil {
					t.Fatalf("%s/%s seed %d: %v", m.Kind(), family, seed, err)
				}
				for _, backend := range engine.Backends() {
					for _, o := range opts {
						o.Seed = seed
						name := fmt.Sprintf("%s/%s/%s r=%d c=%v seed %d", m.Kind(), family, backend, o.R, o.NetConst, seed)
						_, _, basis, err := m.SolveSourceBasis(backend, inst.Dim, inst.Objective, st, o)
						if err != nil {
							t.Errorf("%s: %v", name, err)
							continue
						}
						if _, ok, err := m.VerifyBasisSource(inst.Dim, inst.Objective, st, basis); err != nil || !ok {
							t.Errorf("%s: answer fails its own violation test (err %v)", name, err)
						}
					}
				}
			}
		}
	}

	// Co-spherical input is where meb's pivoting loop stops on its own
	// threshold rather than on Contains': every point of a thin shell
	// must lie in the returned ball.
	mm, _ := engine.Lookup("meb")
	for seed := uint64(1); seed <= 10; seed++ {
		inst, err := mm.Generate("shell", engine.GenParams{N: 40000, D: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		pts := make([]meb.Point, len(inst.Rows))
		for i, r := range inst.Rows {
			pts[i] = r
		}
		b, err := meb.Solve(pts)
		if err != nil {
			t.Fatalf("meb/shell seed %d: %v", seed, err)
		}
		out := 0
		for _, p := range pts {
			if !b.Contains(p) {
				out++
			}
		}
		if out > 0 {
			t.Errorf("meb/shell n=40000 seed %d: %d points outside the returned ball", seed, out)
		}
	}
}
