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
// An instance is flat rows in the lpsolve text layout: for an LP, one
// row a₁ … a_d b per constraint a·x ≤ b, plus the objective.
//
//	inst := lowdimlp.Instance{
//		Dim:       2,
//		Objective: []float64{1, 1},                        // minimize x+y
//		Rows:      [][]float64{{-1, 0, -1}, {0, -1, -2}}, // x ≥ 1, y ≥ 2
//	}
//	sol, stats, err := lowdimlp.SolveInstance("lp", "stream", inst, lowdimlp.Options{R: 2})
//	x, _ := sol.Vector("x") // [1 2]
//
// SolveInstance takes any registered kind ("lp", "svm", "meb", "sea";
// see Kinds) on any backend ("ram", "stream", "coordinator", "mpc";
// see Backends): one call for the paper's one algorithm, built on the
// two primitives of §2.1, basis computation and violation testing.
// Larger Options.R means more passes/rounds but less
// space/communication (resources scale as n^{1/r}). SolveDatasetFile
// solves an instance stored as a binary dataset file, out of core, and
// SolveFleet runs the coordinator model over real worker processes.
// The runnable examples show each kind and backend; cmd/lpbench
// reproduces the paper's experiments.
//
// # The model registry
//
// Every problem kind in this repository is described once, as an
// internal/engine Spec (domain constructor, codecs, row⇄item
// encoding, generators, rendering), and registered process-wide
// (internal/models). The registry powers this package's instance API
// as well as the lpserved HTTP service and the lpsolve CLI, so a kind
// registered once (see internal/sea, the smallest-enclosing-annulus
// kind) is solvable everywhere with no per-kind code in any consumer.
package lowdimlp

import (
	"fmt"

	"lowdimlp/internal/engine"
	"lowdimlp/internal/lptype"
	_ "lowdimlp/internal/models" // registers lp, svm, meb and sea
	"lowdimlp/internal/svm"
)

// Options configure the model solvers. It is the engine's options
// type, the one lpserved reads from the wire too: R is the paper's
// trade-off r ≥ 1 (O(d·r) passes/rounds at n^{1/r} space/communication;
// 0 means 2), Delta the MPC load exponent δ (0 means 0.5), Seed drives
// all randomness, MonteCarlo selects Remark 3.6's fail-fast variant,
// NetConst is the ε-net constant (0 means the default; negative, NaN or
// infinite is an error), K is the number of coordinator sites (0 means
// 4), Parallel scans a sharded dataset on one goroutine per shard in
// the stream backend, and a non-nil Trace records the solve's spans.
type Options = engine.Options

// Typed solve errors, the same on every backend: test for them with
// errors.Is.
var (
	// ErrInfeasible reports an LP whose constraints admit no point.
	ErrInfeasible = lptype.ErrInfeasible
	// ErrNotSeparable reports non-separable SVM training data.
	ErrNotSeparable = svm.ErrNotSeparable
)

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
// for the distributed backends. Every row must hold RowWidth finite
// numbers that meet the kind's invariants, and an objective (lp) dim
// finite coefficients: anything else is an error, never a solution.
func SolveInstance(kind, backend string, inst Instance, opt Options) (Solution, SolveStats, error) {
	m, ok := engine.Lookup(kind)
	if !ok {
		return Solution{}, SolveStats{}, fmt.Errorf("unknown kind %q (want one of %v)", kind, Kinds())
	}
	return m.SolveInstance(backend, inst, opt)
}

// WriteDatasetFile writes an instance of any registered kind as a
// self-describing binary dataset file (kind, dimension, objective and
// a flat little-endian row arena — see internal/dataset). Dataset
// files are the out-of-core input format: lpsolve accepts them
// directly and the streaming backend scans them in fixed-size blocks
// without ever materializing the instance. The rows and objective get
// SolveInstance's checks: an instance it refuses is not written.
func WriteDatasetFile(path, kind string, inst Instance) error {
	return engine.WriteDatasetFile(path, kind, inst)
}

// WriteShardedDatasetFile writes an instance as a sharded multi-file
// dataset: an LDSETM manifest at path plus `shards` LDSET1 shard files
// next to it, rows assigned round-robin (row i → shard i%shards, the
// same assignment as SolveInstance's coordinator sites). A sharded dataset solves exactly like
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
	return engine.SolveDatasetFile(path, backend, opt)
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
	return engine.SolveFleet(workers, opt)
}
