// Package lowdimlp is a Go implementation of "Distributed and
// Streaming Linear Programming in Low Dimensions" (Assadi, Karpov,
// Zhang — PODS 2019): exact solvers for low-dimensional LP-type
// problems (linear programming, hard-margin SVM, minimum enclosing
// ball, smallest enclosing annulus) in the multi-pass streaming,
// coordinator, and MPC models, with the paper's O(d·r)-pass/round,
// n^{1/r}-resource trade-off.
//
// # Quick start
//
//	p := lowdimlp.NewLP([]float64{1, 1})        // minimize x+y
//	cons := []lowdimlp.Halfspace{
//		{A: []float64{-1, 0}, B: -1},            // x ≥ 1
//		{A: []float64{0, -1}, B: -2},            // y ≥ 2
//	}
//	sol, stats, err := lowdimlp.SolveLPStreaming(p, lowdimlp.NewSliceStream(cons), len(cons), lowdimlp.Options{R: 2})
//
// Larger r means more passes/rounds but less space/communication
// (resources scale as n^{1/r}); see the package examples under
// examples/ and the experiment harness in cmd/lpbench.
//
// The same three entry points exist for hard-margin SVM
// (SolveSVMStreaming, ...) and minimum enclosing ball
// (SolveMEBStreaming, ...), and the generic layer (Domain, plus the
// model solvers re-exported below) accepts any LP-type problem that
// implements the two primitives of the paper: basis computation and
// violation testing.
//
// # The model registry
//
// Every problem kind in this repository is described once, as an
// internal/engine Spec (domain constructor, codecs, row⇄item
// encoding, generators, rendering), and registered process-wide
// (internal/models). The registry powers the generic instance API
// below — Kinds, LookupKind, SolveInstance — as well as the lpserved
// HTTP service and the lpsolve CLI, so a kind registered once (see
// internal/sea, the smallest-enclosing-annulus kind) is solvable
// everywhere with no per-kind code in any consumer:
//
//	inst := lowdimlp.Instance{Dim: 2, Rows: [][]float64{{1, 0}, {0, 1}, {-1, 0}, {0, -1}}}
//	sol, _, err := lowdimlp.SolveInstance("sea", "stream", inst, lowdimlp.Options{R: 2})
//	width, _ := sol.Scalar("width")
package lowdimlp

import (
	"fmt"

	"lowdimlp/internal/coordinator"
	"lowdimlp/internal/core"
	"lowdimlp/internal/engine"
	"lowdimlp/internal/lp"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/meb"
	"lowdimlp/internal/models"
	"lowdimlp/internal/mpc"
	"lowdimlp/internal/stream"
	"lowdimlp/internal/svm"
)

// Core problem and solution types (aliases into the implementation
// packages so the whole repository shares one set of types).
type (
	// Halfspace is one linear constraint A·x ≤ B.
	Halfspace = lp.Halfspace
	// LPProblem is a linear program: minimize Objective·x subject to
	// halfspaces (plus an implicit bounding box at scale Box).
	LPProblem = lp.Problem
	// LPSolution is the lexicographically smallest optimal point.
	LPSolution = lp.Solution
	// LPBasis is an LP basis: the solution plus the tight constraints.
	LPBasis = lp.Basis

	// SVMExample is a labeled training point (Y ∈ {−1, +1}).
	SVMExample = svm.Example
	// SVMSolution is the maximum-margin normal vector.
	SVMSolution = svm.Solution
	// SVMBasis is an SVM basis (solution + support vectors).
	SVMBasis = svm.Basis

	// MEBPoint is a point of a minimum-enclosing-ball instance.
	MEBPoint = meb.Point
	// MEBBall is a ball (center + squared radius).
	MEBBall = meb.Ball
	// MEBBasis is a MEB basis (ball + support points).
	MEBBasis = meb.Basis
)

// Domain is the LP-type abstraction (§2.1 of the paper): implement it
// to run the model solvers on your own LP-type problem.
type Domain[C, B any] = lptype.Domain[C, B]

// Stream is the multi-pass streaming input abstraction.
type Stream[C any] = stream.Stream[C]

// NewSliceStream adapts a slice to a Stream.
func NewSliceStream[C any](items []C) Stream[C] { return stream.NewSliceStream(items) }

// NewFuncStream generates a Stream of n items from an index function
// without materializing them.
func NewFuncStream[C any](n int, gen func(i int) C) Stream[C] {
	return stream.NewFuncStream(n, gen)
}

// Stats aliases for the three models. Each embeds core.RunStats,
// Algorithm 1's counts with one meaning on every model: N, R, NetSize,
// Iterations (sampled nets solved), Successes, Failures and DirectSolve.
type (
	// StreamStats adds passes, items scanned and peak space.
	StreamStats = stream.Stats
	// CoordinatorStats adds rounds and total communication bits.
	CoordinatorStats = coordinator.Stats
	// MPCStats adds rounds and maximum per-machine load bits.
	MPCStats = mpc.Stats
)

// Options configure the model solvers.
type Options struct {
	// R is the paper's trade-off parameter r ≥ 1: O(d·r) passes/rounds
	// at n^{1/r} space/communication. Zero means 2.
	R int
	// Delta is the MPC load exponent δ ∈ (0, 1); zero means 0.5.
	Delta float64
	// Seed drives all randomness (equal seeds reproduce runs exactly).
	Seed uint64
	// MonteCarlo selects the Remark 3.6 variant (fails fast instead of
	// retrying failed iterations).
	MonteCarlo bool
	// NetConst is the ε-net constant c in m = c·λ/ε (0 = the library
	// default, DESIGN.md §5). A negative, NaN or infinite value is
	// rejected; a c so large that n ≤ 2m+1 ships the whole input.
	NetConst float64
	// Parallel is for sharded streaming scans only: the stream backend
	// reads a sharded dataset (SolveDatasetFile over an LDSETM manifest)
	// on one decode goroutine per shard. The row order, and so the
	// answer, is identical either way; only wall-clock time changes.
	// Ignored by the other backends, and on a single-CPU host.
	Parallel bool
	// K is the number of coordinator sites used by the instance-level
	// API (SolveInstance; 0 = 4). The typed SolveXCoordinator entry
	// points take explicit partitions and ignore it.
	K int
}

func (o Options) core() core.Options { return o.engine().Core() }

func (o Options) engine() engine.Options {
	return engine.Options{
		R: o.R, Delta: o.Delta, Seed: o.Seed,
		MonteCarlo: o.MonteCarlo, NetConst: o.NetConst,
		K: o.K, Parallel: o.Parallel,
	}
}

// NewLP returns a linear program minimizing objective·x.
func NewLP(objective []float64) LPProblem { return lp.NewProblem(objective) }

// SolveLP solves the LP in RAM (Seidel's algorithm with lexicographic
// tie-breaking) — the reference the model solvers are tested against.
func SolveLP(p LPProblem, cons []Halfspace, seed uint64) (LPSolution, error) {
	b, err := engine.SolveRAM(models.LP, p, cons, engine.Options{Seed: seed})
	if err != nil {
		return LPSolution{}, err
	}
	return b.Sol, nil
}

// SolveLPStreaming solves the LP over a multi-pass stream of n
// constraints (Theorem 1; pass n ≤ 0 to count with one extra pass).
func SolveLPStreaming(p LPProblem, st Stream[Halfspace], n int, opt Options) (LPSolution, StreamStats, error) {
	b, stats, err := engine.SolveStreaming(models.LP, p, st, n, opt.engine())
	return b.Sol, stats, err
}

// SolveLPCoordinator solves the LP over a k-site partition
// (Theorem 2).
func SolveLPCoordinator(p LPProblem, parts [][]Halfspace, opt Options) (LPSolution, CoordinatorStats, error) {
	b, stats, err := engine.SolveCoordinator(models.LP, p, parts, opt.engine())
	return b.Sol, stats, err
}

// SolveLPMPC solves the LP in the MPC model with per-machine load
// O~(n^Delta) (Theorem 3).
func SolveLPMPC(p LPProblem, cons []Halfspace, opt Options) (LPSolution, MPCStats, error) {
	b, stats, err := engine.SolveMPC(models.LP, p, cons, opt.engine())
	return b.Sol, stats, err
}

// SolveSVM trains a hard-margin SVM in RAM. Returns
// svm.ErrNotSeparable (exposed as ErrNotSeparable) on non-separable
// data.
func SolveSVM(dim int, examples []SVMExample) (SVMSolution, error) {
	b, err := engine.SolveRAM(models.SVM, dim, examples, engine.Options{})
	return b.Sol, err
}

// ErrNotSeparable reports non-separable SVM training data.
var ErrNotSeparable = svm.ErrNotSeparable

// SolveSVMStreaming trains the SVM over a stream (Theorem 5).
func SolveSVMStreaming(dim int, st Stream[SVMExample], n int, opt Options) (SVMSolution, StreamStats, error) {
	b, stats, err := engine.SolveStreaming(models.SVM, dim, st, n, opt.engine())
	return b.Sol, stats, err
}

// SolveSVMCoordinator trains the SVM over a k-site partition.
func SolveSVMCoordinator(dim int, parts [][]SVMExample, opt Options) (SVMSolution, CoordinatorStats, error) {
	b, stats, err := engine.SolveCoordinator(models.SVM, dim, parts, opt.engine())
	return b.Sol, stats, err
}

// SolveSVMMPC trains the SVM in the MPC model.
func SolveSVMMPC(dim int, examples []SVMExample, opt Options) (SVMSolution, MPCStats, error) {
	b, stats, err := engine.SolveMPC(models.SVM, dim, examples, opt.engine())
	return b.Sol, stats, err
}

// SolveMEB computes the minimum enclosing ball in RAM.
func SolveMEB(pts []MEBPoint) (MEBBall, error) {
	dim := 0
	if len(pts) > 0 {
		dim = len(pts[0])
	}
	b, err := engine.SolveRAM(models.MEB, dim, pts, engine.Options{})
	return b.B, err
}

// SolveMEBStreaming computes the MEB over a stream (Theorem 6).
func SolveMEBStreaming(dim int, st Stream[MEBPoint], n int, opt Options) (MEBBall, StreamStats, error) {
	b, stats, err := engine.SolveStreaming(models.MEB, dim, st, n, opt.engine())
	return b.B, stats, err
}

// SolveMEBCoordinator computes the MEB over a k-site partition.
func SolveMEBCoordinator(dim int, parts [][]MEBPoint, opt Options) (MEBBall, CoordinatorStats, error) {
	b, stats, err := engine.SolveCoordinator(models.MEB, dim, parts, opt.engine())
	return b.B, stats, err
}

// SolveMEBMPC computes the MEB in the MPC model.
func SolveMEBMPC(dim int, pts []MEBPoint, opt Options) (MEBBall, MPCStats, error) {
	b, stats, err := engine.SolveMPC(models.MEB, dim, pts, opt.engine())
	return b.B, stats, err
}

// Partition splits items across k sites round-robin — a convenience
// for the coordinator entry points.
func Partition[C any](items []C, k int) [][]C { return engine.Partition(items, k) }

// --- The registry-driven instance API ----------------------------------

// Instance is the flat, kind-independent form of a problem instance:
// one row of RowWidth numbers per constraint/example/point (the
// lpsolve text-format layout), plus the objective row for kinds that
// have one (LP).
type Instance = engine.Instance

// Solution is a rendered solve result: ordered named fields,
// independent of the kind that produced it (see Solution.Scalar,
// Solution.Vector and Solution.Text).
type Solution = engine.Solution

// SolveStats carries the resource report of whichever backend ran.
type SolveStats = engine.Stats

// ProblemModel is a registered problem kind's registry entry: row
// layout, generator families and the backend-generic solver.
type ProblemModel = engine.Model

// GenParams parameterize a registered kind's instance generators
// (ProblemModel.Generate).
type GenParams = engine.GenParams

// Kinds returns the registered problem kinds ("lp", "svm", "meb",
// "sea", ...).
func Kinds() []string { return engine.Kinds() }

// Models returns the registered problem kinds' registry entries.
func Models() []ProblemModel { return engine.Models() }

// Backends returns the computation backend names ("ram", "stream",
// "coordinator", "mpc").
func Backends() []string { return engine.Backends() }

// LookupKind returns the registry entry for a problem kind.
func LookupKind(kind string) (ProblemModel, bool) { return engine.Lookup(kind) }

// SolveInstance solves a flat instance of any registered kind on any
// backend: the generic entry point behind lpserved and lpsolve.
// Options.K selects the coordinator site count; stats are populated
// for the distributed backends.
func SolveInstance(kind, backend string, inst Instance, opt Options) (Solution, SolveStats, error) {
	m, ok := engine.Lookup(kind)
	if !ok {
		return Solution{}, SolveStats{}, fmt.Errorf("unknown kind %q (want one of %v)", kind, Kinds())
	}
	return m.SolveInstance(backend, inst, opt.engine())
}

// WriteDatasetFile writes an instance of any registered kind as a
// self-describing binary dataset file (kind, dimension, objective and
// a flat little-endian row arena — see internal/dataset). Dataset
// files are the out-of-core input format: lpsolve accepts them
// directly and the streaming backend scans them in fixed-size blocks
// without ever materializing the instance.
func WriteDatasetFile(path, kind string, inst Instance) error {
	return engine.WriteDatasetFile(path, kind, inst)
}

// WriteShardedDatasetFile writes an instance as a sharded multi-file
// dataset: an LDSETM manifest at path plus `shards` LDSET1 shard files
// next to it, rows assigned round-robin (row i → shard i%shards, the
// same assignment as Partition). A sharded dataset solves exactly like
// a single-file one, but its shards map one-to-one onto coordinator
// sites (no materialization) and its streaming scans can run one
// goroutine per shard (Options.Parallel).
func WriteShardedDatasetFile(path, kind string, inst Instance, shards int) error {
	return engine.WriteShardedDatasetFile(path, kind, inst, shards)
}

// ConvertDatasetLayout rewrites a binary dataset (either layout) as a
// single file (shards ≤ 1) or a sharded manifest — the library form of
// `lpsolve -convert -shards N` split/merge.
func ConvertDatasetLayout(inPath, outPath string, shards int) error {
	_, err := engine.ConvertDatasetLayout(inPath, outPath, shards)
	return err
}

// SolveDatasetFile solves a binary dataset path on the named backend —
// a single LDSET1 file (memory-mapped when the host allows, streamed
// in blocks otherwise) or an LDSETM sharded manifest (streamed in
// parallel under Options.Parallel; shard files map onto coordinator
// sites directly). The dataset names its own kind, dimension and
// objective; instances larger than memory are fine. Results are
// bit-identical to SolveInstance over the same rows.
func SolveDatasetFile(path, backend string, opt Options) (Solution, SolveStats, error) {
	return engine.SolveDatasetFile(path, backend, opt.engine())
}

// IsDatasetFile reports whether the file at path begins with either
// binary dataset magic (cheap sniff; no full header validation).
func IsDatasetFile(path string) bool { return engine.IsDatasetFile(path) }

// SolveFleet runs the coordinator model as a real multi-process
// distributed solve: each worker is the base URL of an lpserved
// worker process (`lpserved -worker shard.lds`) owning one shard of
// the instance, and worker i plays site i of the two-round protocol
// (list workers in shard order). The workers' shard headers name the
// instance kind, which is returned alongside the solution. For the
// same shards, seed and options the result — solution, rounds, and
// metered communication bits — is bit-identical to the in-process
// coordinator over the matching sharded dataset.
func SolveFleet(workers []string, opt Options) (string, Solution, SolveStats, error) {
	return engine.SolveFleet(workers, opt.engine())
}
