package engine_test

import (
	"fmt"
	"testing"

	"lowdimlp/internal/coordinator"
	"lowdimlp/internal/core"
	"lowdimlp/internal/dataset"
	"lowdimlp/internal/lp"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/models"
	"lowdimlp/internal/mpc"
	"lowdimlp/internal/stream"
	"lowdimlp/internal/workload"
)

// solveCounter is the lp domain with its Solve counted: solved is the
// number of calls on a sampled net (fewer than n constraints) that
// returned a basis.
type solveCounter struct {
	*lp.Domain
	n, solved int
}

func (d *solveCounter) Solve(cons []lp.Halfspace) (lp.Basis, error) {
	b, err := d.Domain.Solve(cons)
	if err == nil && len(cons) < d.n {
		d.solved++
	}
	return b, err
}

// TestIterationsAreNetsSolved pins the one meaning of Iterations: on
// every backend it is the number of sampled nets whose solve returned a
// basis, as the domain itself counts them. On a run that returns a
// basis every solved net but the last failed or succeeded, so
// Successes + Failures = Iterations − 1; the stream spends one pass per
// Test (Passes = Iterations + 1) and the coordinator two rounds per net
// plus the last Test's (Rounds = 2·Iterations + 1).
func TestIterationsAreNetsSolved(t *testing.T) {
	const d, n, r, sites = 3, 20000, 2, 4
	p, cons := workload.SphereLP(d, n, 1)
	st := dataset.NewStore(d + 1)
	for _, c := range cons {
		st.AppendRow(append(append([]float64(nil), c.A...), c.B))
	}
	cc, bc := models.LP.ItemCodec(d), lp.BasisCodec{Dim: d}
	access := func(dom *solveCounter) lptype.RowAccess[lp.Halfspace, lp.Basis] {
		return lptype.NewRowAccess[lp.Halfspace, lp.Basis](dom,
			func(row []float64) lp.Halfspace { return lp.Halfspace{A: row[:d], B: row[d]} })
	}
	// counts are a run's Iterations, Successes and Failures, and its
	// passes (stream) or rounds (coordinator and MPC).
	type counts struct{ iters, succ, fail, steps int }
	backends := map[string]func(dom *solveCounter, co core.Options) (counts, error){
		"ram-core": func(dom *solveCounter, co core.Options) (counts, error) {
			_, s, err := core.Solve[lp.Halfspace, lp.Basis](dom, cons, co)
			return counts{s.Iterations, s.Successes, s.Failures, 0}, err
		},
		"stream": func(dom *solveCounter, co core.Options) (counts, error) {
			_, s, err := stream.SolveDataset(access(dom), st, stream.Options{Core: co})
			return counts{s.Iterations, s.Successes, s.Failures, s.Passes}, err
		},
		"coordinator": func(dom *solveCounter, co core.Options) (counts, error) {
			sw, err := lptype.ShardSiteWeights(access(dom), st, sites)
			if err != nil {
				return counts{}, err
			}
			_, s, err := coordinator.Solve[lp.Halfspace, lp.Basis](dom, sw, cc, bc, coordinator.Options{Core: co})
			return counts{s.Iterations, s.Successes, s.Failures, s.Rounds}, err
		},
		"mpc": func(dom *solveCounter, co core.Options) (counts, error) {
			_, s, err := mpc.SolveSource(access(dom), st, cc, bc, mpc.Options{Core: co, Delta: 0.5})
			return counts{s.Iterations, s.Successes, s.Failures, s.Rounds}, err
		},
	}
	wantSteps := map[string]func(iters int) int{
		"stream":      func(it int) int { return it + 1 },
		"coordinator": func(it int) int { return 2*it + 1 },
	}
	for name, solve := range backends {
		iterated := 0
		for seed := uint64(1); seed <= 5; seed++ {
			co := core.Options{R: r, Seed: seed, NetConst: 0.2}
			if pr := core.NewParams(n, d+1, d+1, co); pr.Direct {
				t.Fatalf("net size %d covers the input: nothing iterates", pr.M)
			}
			dom := &solveCounter{Domain: lp.NewDomain(p, seed), n: n}
			c, err := solve(dom, co)
			what := fmt.Sprintf("%s seed=%d", name, seed)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if c.iters != dom.solved {
				t.Errorf("%s: Iterations %d, but %d sampled nets were solved", what, c.iters, dom.solved)
			}
			if c.succ+c.fail != c.iters-1 {
				t.Errorf("%s: %d successes + %d failures, want Iterations−1 = %d", what, c.succ, c.fail, c.iters-1)
			}
			if want := wantSteps[name]; want != nil && c.steps != want(c.iters) {
				t.Errorf("%s: %d passes or rounds, want %d for %d iterations", what, c.steps, want(c.iters), c.iters)
			}
			if c.iters > 1 {
				iterated++
			}
		}
		if iterated == 0 {
			t.Errorf("%s: no seed solved more than one net: the invariants pin nothing", name)
		}
	}
}
