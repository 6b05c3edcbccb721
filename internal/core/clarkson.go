// Package core implements Algorithm 1 of Assadi–Karpov–Zhang
// (PODS 2019): the Clarkson-style meta-algorithm for LP-type problems
// that drives all three big-data model implementations in this
// repository (internal/stream, internal/coordinator, internal/mpc).
//
// # Algorithm 1 (recap)
//
// Maintain a weight w(S) on every constraint, initially 1. Repeat:
//
//  1. sample an ε-net N of m = m(ε, λ, δ) constraints i.i.d. with
//     probability proportional to weight (Lemma 2.2);
//  2. compute a basis B of N;
//  3. collect the violators V = {S : f(B ∪ {S}) > f(B)};
//  4. if w(V) ≤ ε·w(S) — a "successful" iteration — multiply the
//     weight of every violator by n^{1/r};
//
// until V = ∅, and return f(B). With ε = 1/(10·ν·n^{1/r}) the paper
// proves (Lemma 3.3) O(ν·r) iterations with high probability: the
// weight of any fixed basis grows as n^{t/νr} while the total weight
// grows only as e^{t/10ν}·n, so t ≤ (10/9)·ν·r successful iterations
// suffice, and each iteration succeeds with probability ≥ 2/3
// (Claim 3.2).
//
// # One loop, three substrates
//
// This package holds the algorithm once. NewParams computes a run's
// parameters — r, the multiplier n^{1/r}, ε, the net size m, whether
// the input is small enough to ship whole (n ≤ 2m+1), the iteration
// budget — and Params.Success is the success rule. Run is the
// loop, over a Substrate that tests a basis and samples a net where the
// constraints live:
//
//   - in memory, with explicit weights: Solve, the reference;
//   - on the k sites of the coordinator model (internal/coordinator):
//     one metered round per Test and per Sample over a comm.Transport;
//   - on the machines of the MPC model (internal/mpc): the same steps
//     routed through an n^δ-ary tree.
//
// Sites and machines hold their constraints, so they keep one weight
// exponent per constraint (lptype.SiteWeights). The streaming model
// (internal/stream) cannot: it recomputes every weight from the stored
// bases of successful iterations on each pass (§3.2), and it draws the
// next net in the same pass that tests the pending basis, before the
// iteration's success is known. So it keeps its own pass-driven loop,
// but reads the same Params and Params.Success.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"lowdimlp/internal/lptype"
	"lowdimlp/internal/numeric"
	"lowdimlp/internal/sampling"
)

// ErrIterationBudget reports that the meta-algorithm did not terminate
// within its iteration cap: Options.MaxIters nets were solved and
// tested, and none was a basis of the input. The cap defaults to many
// multiples of the high-probability bound of Lemma 3.3, so hitting it
// indicates a mis-specified domain (violation tests inconsistent with
// Solve).
var ErrIterationBudget = errors.New("core: iteration budget exhausted")

// ErrRoundFailed is returned by the Monte-Carlo variant (Remark 3.6)
// when an iteration's violator weight exceeds ε·w(S); the Las-Vegas
// variant simply retries instead.
var ErrRoundFailed = errors.New("core: monte-carlo round failed (w(V) > ε·w(S))")

// DefaultNetConst is the net-size constant c in m = c·λ/ε of every solve
// that does not set Options.NetConst: the smallest c of lpbench A1(e)'s
// grid (n = 100 000, 8 seeds) at which every sampled cell — lp, meb and
// sea × stream, coordinator and MPC × r ∈ {2, 3} — succeeds in at least
// 2/3 of its iterations, the rate Claim 3.2 assumes (DESIGN.md §5).
const DefaultNetConst = 1.25

// Options configure the meta-algorithm.
type Options struct {
	// R is the paper's pass/round trade-off parameter r ≥ 1: the weight
	// multiplier is n^{1/r} and the expected iteration count is O(ν·r).
	// Values above ln n are clamped to ⌈ln n⌉ (the paper assumes
	// r ≤ ln n). Zero means 1.
	R int
	// Seed drives all randomness; equal seeds give identical runs.
	Seed uint64
	// MonteCarlo selects the Remark 3.6 variant: the net is sized for
	// failure probability 1/(n·ν) and any failed iteration aborts with
	// ErrRoundFailed instead of retrying.
	MonteCarlo bool
	// TheoryNet uses the exact Lemma 2.2 sample size (Eq. 1). The
	// default is the practical Θ(λ/ε) size with constant NetConst —
	// correctness is unaffected (the algorithm is Las Vegas); only the
	// success probability per iteration changes.
	TheoryNet bool
	// NetConst is the practical net-size constant c in m = c·λ/ε. Zero
	// means DefaultNetConst; any other value must be positive (NewParams
	// panics otherwise — the engine rejects such options first).
	NetConst float64
	// MaxIters caps the number of nets solved (default 60·ν·r + 60). Each
	// solved net is tested before ErrIterationBudget ends the run.
	MaxIters int
	// CollectLog records per-iteration statistics in Stats.Log.
	CollectLog bool
}

// EffectiveR returns the clamped trade-off parameter for n constraints.
func (o Options) EffectiveR(n int) int {
	r := o.R
	if r < 1 {
		r = 1
	}
	if n >= 3 {
		if lim := int(math.Ceil(math.Log(float64(n)))); r > lim {
			r = lim
		}
	} else {
		r = 1
	}
	return r
}

// IterRecord is one iteration's statistics.
type IterRecord struct {
	Success     bool
	Violators   int
	ViolFrac    float64 // w(V)/w(S)
	TotalWeight float64
}

// Stats reports how a run of the meta-algorithm went. The experiment
// harness uses it to reproduce the iteration-count and success-rate
// claims (Claims 3.2–3.5, Lemma 3.3).
type Stats struct {
	N           int     // number of constraints
	R           int     // effective r
	Eps         float64 // ε = 1/(10·ν·n^{1/r})
	NetSize     int     // m
	Iterations  int     // nets sampled and solved (0 on the direct path)
	Successes   int
	Failures    int
	DirectSolve bool // n ≤ 2m+1: solved in one shot without sampling
	MaxExponent int  // largest weight exponent reached
	Log         []IterRecord
}

func (s Stats) String() string {
	return fmt.Sprintf("n=%d r=%d ε=%.3g m=%d iters=%d (succ=%d fail=%d direct=%v)",
		s.N, s.R, s.Eps, s.NetSize, s.Iterations, s.Successes, s.Failures, s.DirectSolve)
}

// Solve runs Algorithm 1 on the constraint set s over the given domain,
// in memory with explicit weights.
func Solve[C, B any](dom lptype.Domain[C, B], s []C, opt Options) (B, Stats, error) {
	n := len(s)
	stats := Stats{N: n}
	if n == 0 {
		b, err := dom.Solve(nil)
		return b, stats, err
	}
	p := NewParams(n, dom.CombinatorialDim(), dom.VCDim(), opt)
	stats.R, stats.Eps, stats.NetSize, stats.DirectSolve = p.R, p.Eps, p.M, p.Direct
	mem := &memory[C, B]{dom: dom, s: s, p: p, opt: opt, stats: &stats}
	b, c, err := Run(p, mem, dom.Solve)
	if !p.Direct {
		stats.Iterations = c.Solves
	}
	stats.Successes, stats.Failures = c.Successes, c.Failures
	return b, stats, err
}

// memory is the in-memory substrate: the constraint slice with one
// explicit weight and exponent per constraint, the violators of the
// last tested basis, and a fresh alias table for every net.
type memory[C, B any] struct {
	dom   lptype.Domain[C, B]
	s     []C
	p     Params
	opt   Options
	stats *Stats

	rng     *rand.Rand
	exps    []int // weight exponents a_i
	weights []float64
	viol    []int
}

func (m *memory[C, B]) Test(pending *B) (wS, wV float64, violators int, err error) {
	if pending == nil {
		m.rng = numeric.NewRand(m.opt.Seed, 0xc1a2c50)
		m.exps = make([]int, len(m.s))
		m.weights = make([]float64, len(m.s))
		for i := range m.weights {
			m.weights[i] = 1
		}
		return float64(len(m.s)), 0, 0, nil
	}
	var wTotal, wViol numeric.Kahan
	m.viol = m.viol[:0]
	for i, c := range m.s {
		wTotal.Add(m.weights[i])
		if m.dom.Violates(*pending, c) {
			wViol.Add(m.weights[i])
			m.viol = append(m.viol, i)
		}
	}
	wS, wV = wTotal.Sum(), wViol.Sum()
	if m.opt.CollectLog {
		rec := IterRecord{Success: true, TotalWeight: wS}
		if len(m.viol) > 0 {
			rec = IterRecord{Success: m.p.Success(wS, wV), Violators: len(m.viol), ViolFrac: wV / wS, TotalWeight: wS}
		}
		m.stats.Log = append(m.stats.Log, rec)
	}
	return wS, wV, len(m.viol), nil
}

func (m *memory[C, B]) Sample(success bool, net []C) error {
	if success {
		// Bump the violators' weights by n^{1/r}.
		logMult := math.Log(m.p.Mult)
		for _, i := range m.viol {
			m.exps[i]++
			m.stats.MaxExponent = max(m.stats.MaxExponent, m.exps[i])
			// Guard the float64 range; Claim 3.5 bounds the total weight
			// by e^{t/10ν}·n, so this cannot fire on a correct domain.
			if float64(m.exps[i])*logMult > 600 {
				return fmt.Errorf("core: weight exponent overflow (a=%d, mult=%g)", m.exps[i], m.p.Mult)
			}
			m.weights[i] *= m.p.Mult
		}
	}
	alias := sampling.NewAlias(m.weights)
	for j := range net {
		net[j] = m.s[alias.Draw(m.rng)]
	}
	return nil
}

func (m *memory[C, B]) All() ([]C, error) { return m.s, nil }
