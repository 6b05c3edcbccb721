package core

import (
	"math"

	"lowdimlp/internal/epsnet"
)

// Params are one run's parameters of Algorithm 1. NewParams is the one
// place they are computed: every substrate Run drives reads them from
// here.
type Params struct {
	N          int     // the number of constraints
	R          int     // the effective trade-off parameter r
	Mult       float64 // the weight multiplier n^{1/r}
	Eps        float64 // ε = 1/(10·ν·n^{1/r})
	M          int     // the net size m; n on the direct path
	MaxIters   int     // at most this many nets are solved
	Direct     bool    // n ≤ 2m+1: solve all n constraints at once
	MonteCarlo bool    // a failed iteration ends the run (Remark 3.6)
}

// NewParams returns the parameters for n ≥ 1 constraints of a domain
// with combinatorial dimension nu and VC dimension lambda.
//
// The run ships all n constraints to one solve whenever n ≤ 2m+1. A
// sampled streaming pass holds 2m+1 rows (the net and violator buffers
// plus the last row), and every sampled coordinator or MPC run moves at
// least m rows; so an input that small costs the stream no more space,
// and the star or tree at most about twice the rows of the luckiest
// sampled run, in one pass or round instead of several. The test runs
// on the float64 net size, before any conversion, so a huge NetConst
// means ship-all, never an overflowed m.
func NewParams(n, nu, lambda int, opt Options) Params {
	r := opt.EffectiveR(n)
	mult := math.Pow(float64(n), 1/float64(r))
	eps := 1 / (10 * float64(nu) * mult)
	m := netSize(eps, lambda, n, nu, opt)
	maxIters := opt.MaxIters
	if maxIters <= 0 {
		maxIters = 60*nu*r + 60
	}
	p := Params{N: n, R: r, Mult: mult, Eps: eps, M: n, MaxIters: maxIters, Direct: float64(n) <= 2*m+1, MonteCarlo: opt.MonteCarlo}
	if !p.Direct {
		p.M = int(m)
	}
	return p
}

// Success is the rule that makes an iteration successful: the violators
// of its basis carry w(V) ≤ ε·w(S) of the total weight.
func (p Params) Success(wS, wV float64) bool { return wV <= p.Eps*wS }

// netSize picks the ε-net sample size per the options, as a whole
// number in float64.
func netSize(eps float64, lambda, n, nu int, opt Options) float64 {
	if opt.TheoryNet {
		delta := 1. / 3
		if opt.MonteCarlo {
			delta = 1 / (float64(n) * float64(nu))
		}
		return float64(epsnet.SampleSize(eps, lambda, delta))
	}
	c := opt.NetConst
	if c == 0 {
		c = DefaultNetConst
	}
	if opt.MonteCarlo {
		// Scale the net up by the log factor the Monte-Carlo variant
		// needs for its 1/(nν) failure probability.
		c *= math.Log(float64(n)*float64(nu)) / math.Log(6)
	}
	return epsnet.PracticalSampleSize(eps, lambda, c)
}

// Substrate is where one run's constraints and weights live: one
// in-memory slice (Solve), the sites of the coordinator model, the
// machines of the MPC model, or a re-scannable stream. Each substrate
// keeps its own meter. A substrate may draw during Test: the stream
// draws the next net in the pass that tests the pending basis, and
// Sample settles that draw.
type Substrate[C, B any] interface {
	// Test reports the total weight w(S) and, for a non-nil pending
	// basis, the weight w(V) and number of its violators, remembering
	// which they are for the next Sample. Run calls Test(nil) once, to
	// bootstrap; its reports are not read.
	Test(pending *B) (wS, wV float64, violators int, err error)
	// Sample fills net with len(net) constraints drawn i.i.d. with
	// probability proportional to weight, after multiplying the weights
	// of the last tested basis's violators by Params.Mult when success
	// is set.
	Sample(success bool, net []C) error
	// All returns every constraint, for the direct path (n ≤ 2m+1).
	All() ([]C, error)
}

// RunStats are Algorithm 1's counts for one run. Run fills every field,
// with one meaning on every backend, and each backend's Stats embeds
// the block beside its model's own resources: passes and space, rounds
// and bits, rounds and load.
type RunStats struct {
	N       int // number of constraints
	R       int // effective r
	NetSize int // m; n on the direct path
	// Iterations counts the sampled nets whose solve returned a basis
	// (0 on the direct path). Run tests each one next, so a run that
	// returns a basis has Successes + Failures = Iterations − 1: the
	// last basis tested had no violators.
	Iterations  int
	Successes   int
	Failures    int
	DirectSolve bool // n ≤ 2m+1: the whole input went to one solve
}

// Run is Algorithm 1's loop, written once for every substrate. On the
// direct path it solves sub.All() once. Otherwise it repeats
//
//	Test(pending) → terminate / success / failure → Sample(success) → solve
//
// from pending = nil: a pending basis without violators is returned; a
// failed iteration ends the run with ErrRoundFailed under Monte-Carlo;
// after p.MaxIters solved — and tested — nets it ends with
// ErrIterationBudget. Errors from the substrate or solve are returned
// as they are, with the counts so far.
func Run[C, B any](p Params, sub Substrate[C, B], solve func([]C) (B, error)) (B, RunStats, error) {
	var zero B
	c := RunStats{N: p.N, R: p.R, NetSize: p.M}
	if p.Direct {
		all, err := sub.All()
		if err != nil {
			return zero, c, err
		}
		c.DirectSolve = true
		b, err := solve(all)
		return b, c, err
	}
	net := make([]C, p.M)
	var pending *B
	for {
		wS, wV, violators, err := sub.Test(pending)
		if err != nil {
			return zero, c, err
		}
		success := false
		if pending != nil {
			if violators == 0 {
				return *pending, c, nil
			}
			if success = p.Success(wS, wV); success {
				c.Successes++
			} else {
				c.Failures++
				if p.MonteCarlo {
					return zero, c, ErrRoundFailed
				}
			}
			if c.Iterations >= p.MaxIters {
				return zero, c, ErrIterationBudget
			}
		}
		if err := sub.Sample(success, net); err != nil {
			return zero, c, err
		}
		b, err := solve(net)
		if err != nil {
			return zero, c, err
		}
		c.Iterations++
		pending = &b
	}
}
