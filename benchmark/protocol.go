package main

import (
	"encoding/json"
	"fmt"
)

// The supervisor and its workload child talk over the child's
// stdin/stdout in newline-delimited JSON: one request, one reply. The
// child runs every library call of the program under test, so a solve
// that never returns (library solves cannot be cancelled) is stopped
// by killing the process, and its CPU and peak RSS are the child's.

type childReq struct {
	Cmd   string     `json:"cmd"` // setup | op | dump | quit
	Setup *labSetup  `json:"setup,omitempty"`
	Op    *opRequest `json:"op,omitempty"`
	Dump  *dumpReq   `json:"dump,omitempty"`
}

type childReply struct {
	Err   string      `json:"err,omitempty"`
	Setup *setupReply `json:"setup,omitempty"`
	Op    *opResult   `json:"op,omitempty"`
}

// instSpec names one generated instance; the generator seed is derived
// from the benchmark seed by the supervisor.
type instSpec struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	Family string `json:"family"`
	N      int    `json:"n"`
	D      int    `json:"d"`
	Seed   uint64 `json:"seed"`
	// Shards > 0 also writes the instance to disk: a single LDSET1
	// file and an LDSETM manifest with this many shards.
	Shards int `json:"shards,omitempty"`
}

type labSetup struct {
	Dir   string     `json:"dir"`
	Insts []instSpec `json:"insts"`
	// Reuse keeps the dataset files a previous child wrote (a respawn
	// after a deadline kill): fleet workers hold them memory-mapped.
	Reuse bool `json:"reuse,omitempty"`
}

type setupReply struct {
	// ShardPaths lists, per instance written to disk, its shard files
	// in site order (fleet workers own one each).
	ShardPaths map[string][]string `json:"shard_paths,omitempty"`
}

// opRequest is one solve as its caller makes it.
type opRequest struct {
	ID      int    `json:"id"`
	Inst    string `json:"inst"`
	Backend string `json:"backend"`
	// Source is how the rows reach the solver: slice | columnar | file
	// | mmap | sharded | sharded_par, or fleet for a networked solve.
	Source string `json:"source"`
	R      int    `json:"r"`
	K      int    `json:"k,omitempty"`
	Seed   uint64 `json:"seed"`
	// Workers are the fleet's base URLs in site order (Source fleet).
	Workers []string `json:"workers,omitempty"`
	// Traced runs the op through the timing wrappers and records spans.
	Traced bool `json:"traced,omitempty"`
}

func (o *opRequest) cell() string {
	return fmt.Sprintf("%s/%s/%s/r%d", o.Inst, o.Backend, o.Source, o.R)
}

// opResult is what the child reports back for one op.
type opResult struct {
	ID    int     `json:"id"`
	Err   string  `json:"err,omitempty"`
	MS    float64 `json:"ms"`     // caller-observed wall of the op
	CPUMS float64 `json:"cpu_ms"` // user+sys CPU the child spent in the op
	N     int     `json:"n"`
	// Answer is the rendered solution (JSON), the input of
	// answers_digest; Correct says it matched the RAM reference (and,
	// for fleet ops, the in-process coordinator bit for bit).
	Answer  string          `json:"answer"`
	Correct bool            `json:"correct"`
	Why     string          `json:"why,omitempty"`
	Stats   json.RawMessage `json:"stats,omitempty"`
	// RefMS is the in-process coordinator's wall over the same
	// manifest (fleet ops only).
	RefMS  float64   `json:"ref_ms,omitempty"`
	Layers *opLayers `json:"layers,omitempty"` // traced ops only
}

// opLayers is the outside-in breakdown of one traced op.
type opLayers struct {
	OpenMS      float64          `json:"open_ms"`  // source open + validation pass
	SolveMS     float64          `json:"solve_ms"` // the backend driver call
	BasisMS     float64          `json:"basis_ms"`
	BasisCalls  int64            `json:"basis_calls"`
	BasisItems  int64            `json:"basis_items"`
	ScanMS      float64          `json:"scan_ms"`
	ScanBlocks  int64            `json:"scan_blocks"`
	ScanRows    int64            `json:"scan_rows"`
	ExchangeMS  float64          `json:"exchange_ms"`
	Exchanges   int64            `json:"exchanges"`
	Bytes       int64            `json:"bytes"`
	DialMS      float64          `json:"dial_ms"`
	AllocMB     float64          `json:"alloc_mb"`
	EachExchMS  []float64        `json:"each_exchange_ms,omitempty"`
	KernelBlock map[string]int64 `json:"kernel_blocks,omitempty"`
}

type dumpReq struct {
	Path     string `json:"path"`
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
}
