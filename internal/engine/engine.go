// Package engine is the model registry and the generic solve engine:
// the one place in the repository that knows how to run *any* LP-type
// problem on *any* computation backend.
//
// The paper's point (§2.1 of Assadi–Karpov–Zhang) is that a single
// abstraction — basis computation plus violation testing — drives
// every workload. This package carries that abstraction through the
// rest of the system: a problem kind is described once, as a
// Spec[P, C, B] (domain constructor, codecs, row⇄item encoding,
// generator families, result rendering), registered process-wide, and
// from then on it is solvable through every backend (ram, stream,
// coordinator, mpc), every consumer (library instance API, lpserved,
// lpsolve), and every generator endpoint — with no per-kind switches
// anywhere outside this package.
//
// Adding a problem kind therefore costs one Spec plus one Register
// call (see internal/sea for a complete example and DESIGN.md §6 for
// the recipe); the backend dispatch switch in SolveSourceBasis — which
// every entry point reaches, typed input through the boundary
// conversion in dispatch.go — is the only one in the codebase.
package engine

import (
	"runtime"

	"lowdimlp/internal/core"
	"lowdimlp/internal/obs"
)

// Backend names: the computation models of the paper, as they appear
// on every wire (HTTP API, CLI flags, cache keys).
const (
	BackendRAM         = "ram"
	BackendStream      = "stream"
	BackendCoordinator = "coordinator"
	BackendMPC         = "mpc"
)

// Backends returns the backend names in canonical order.
func Backends() []string {
	return []string{BackendRAM, BackendStream, BackendCoordinator, BackendMPC}
}

// ValidBackend reports whether name is a known backend.
func ValidBackend(name string) bool {
	for _, b := range Backends() {
		if b == name {
			return true
		}
	}
	return false
}

// Options configure a solve, across all kinds and backends. Each
// backend reads only a subset of the fields; Canonical reports which.
type Options struct {
	// R is the paper's pass/round trade-off parameter r ≥ 1: O(d·r)
	// passes/rounds at n^{1/r} space/communication. Zero means 2
	// (except on mpc, where zero means "derive r = ⌈1/δ⌉").
	R int
	// Delta is the MPC load exponent δ ∈ (0, 1); zero means 0.5.
	Delta float64
	// Seed drives all randomness (equal seeds reproduce runs exactly).
	Seed uint64
	// MonteCarlo selects the Remark 3.6 variant (fails fast instead of
	// retrying failed iterations).
	MonteCarlo bool
	// NetConst is the ε-net constant c in m = c·λ/ε (0 = 0.5, the
	// default Core applies; core.Options.NetConst's own default, 8, is
	// only for direct callers of internal/core).
	NetConst float64
	// K is the number of coordinator sites used when the engine
	// partitions a flat instance itself (0 = 4). The typed coordinator
	// entry points take explicit partitions and ignore it.
	K int
	// Parallel is for sharded streaming scans only: the stream backend
	// reads a sharded source on one decode goroutine per shard. The row
	// order, and so the answer, is identical either way; only wall-clock
	// time changes. Other backends ignore it. On a single-CPU host the
	// fan-out is pure overhead (BENCH_M3: parallel *loses* at
	// GOMAXPROCS=1), so the engine auto-disables it there — see
	// EffectiveParallel.
	Parallel bool
	// Trace, when non-nil, records the solve's execution structure
	// (phases, per-round site exchanges with their protocol bytes,
	// typed error annotations — see internal/obs). Tracing never
	// changes the answer or the metered totals; nil costs nothing.
	Trace *obs.Trace
}

// EffectiveParallel reports whether Parallel will actually fan out:
// requested, and more than one CPU to fan out onto. With GOMAXPROCS=1
// goroutine-per-shard is pure scheduling overhead on top of the
// same serial execution, so the engine silently falls back to the
// serial path (identical answers — Parallel never affects results).
func (o Options) EffectiveParallel() bool {
	return o.Parallel && runtime.GOMAXPROCS(0) > 1
}

// Core converts to the core-algorithm options, applying the library
// defaults (R = 2, NetConst = 0.5).
func (o Options) Core() core.Options {
	r := o.R
	if r == 0 {
		r = 2
	}
	nc := o.NetConst
	if nc == 0 {
		nc = 0.5
	}
	return core.Options{R: r, Seed: o.Seed, MonteCarlo: o.MonteCarlo, NetConst: nc}
}

// Sites returns the coordinator site count (default 4).
func (o Options) Sites() int {
	if o.K <= 0 {
		return 4
	}
	return o.K
}

// Canonical maps o to its canonical form for the given backend:
// options the backend ignores are zeroed and defaulted ones
// normalized, so that requests which must produce the same answer
// compare (and digest, for result caches) equal.
//
//   - ram reads only Seed;
//   - stream reads R, Seed, MonteCarlo, NetConst;
//   - coordinator additionally reads K;
//   - mpc reads R (zero stays zero: it means "derive from δ"), Delta,
//     Seed, MonteCarlo, NetConst.
//
// Parallel and Trace never affect the answer and are always cleared.
func Canonical(backend string, o Options) Options {
	c := Options{Seed: o.Seed}
	normR := func() int {
		if o.R == 0 {
			return 2
		}
		return o.R
	}
	normNet := func() float64 {
		if o.NetConst == 0 {
			return 0.5
		}
		return o.NetConst
	}
	switch backend {
	case BackendStream:
		c.R, c.MonteCarlo, c.NetConst = normR(), o.MonteCarlo, normNet()
	case BackendCoordinator:
		c.R, c.MonteCarlo, c.NetConst = normR(), o.MonteCarlo, normNet()
		c.K = o.Sites()
	case BackendMPC:
		c.R, c.MonteCarlo, c.NetConst = o.R, o.MonteCarlo, normNet()
		c.Delta = o.Delta
		if c.Delta == 0 {
			c.Delta = 0.5
		}
	}
	return c
}
