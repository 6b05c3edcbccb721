// Package kernel holds the process-wide counters of the block
// violation kernels (DESIGN.md §5): the dimension-specialized inner
// loops every backend's scans dispatch to through
// lptype.BlockViolator.
//
// It is a leaf package — the four domain packages (lp, svm, meb, sea)
// and internal/lptype all import it, so it imports nothing — and all
// state is atomic: kernels run concurrently on the server's solver
// pool and on parallel shard scans. Which loop runs is fixed by the
// domain and its dimension (ClassFor); there is no switch.
package kernel

import "sync/atomic"

// Class names the inner loop a block evaluation ran through — the
// label on the lpserved_kernel_blocks_total metric family.
type Class uint8

const (
	// ClassD2..ClassD4 are the dimension-specialized unrolled loops.
	ClassD2 Class = iota
	ClassD3
	ClassD4
	// ClassGeneric is the width-generic block loop, the intended path
	// for dimensions with no unrolled kernel (d = 1 or d > 4).
	ClassGeneric
	// ClassRowLoop is the per-row fallback for a domain with no block
	// kernel. The arithmetic is the reference oracle's, dispatched row
	// by row.
	ClassRowLoop

	numClasses
)

// String returns the metric label for c.
func (c Class) String() string {
	switch c {
	case ClassD2:
		return "d2"
	case ClassD3:
		return "d3"
	case ClassD4:
		return "d4"
	case ClassGeneric:
		return "generic"
	case ClassRowLoop:
		return "rowloop"
	}
	return "unknown"
}

// Classes lists every class in rendering order, so metric expositions
// emit stable zero-valued series from the first scrape.
func Classes() []Class {
	return []Class{ClassD2, ClassD3, ClassD4, ClassGeneric, ClassRowLoop}
}

// ClassFor maps an inner-loop dimension to the class its block
// evaluation runs: the unrolled kernel for d ∈ {2,3,4}, the generic
// loop otherwise. d = 1 has no unrolled kernel by design (one multiply
// per row leaves nothing to unroll).
func ClassFor(d int) Class {
	if d >= 2 && d <= 4 {
		return ClassD2 + Class(d-2)
	}
	return ClassGeneric
}

var (
	blocks [numClasses]atomic.Int64
	rows   atomic.Int64
)

// Count records one block evaluation of n rows under class c. One
// block scan calls this once per (stored basis, block) pair — a block
// evaluation is one kernel invocation, and that is what the counters
// meter.
func Count(c Class, n int) {
	if c < numClasses {
		blocks[c].Add(1)
	}
	rows.Add(int64(n))
}

// Blocks returns the block evaluations recorded under class c.
func Blocks(c Class) int64 {
	if c >= numClasses {
		return 0
	}
	return blocks[c].Load()
}

// Rows returns the total rows evaluated through block calls.
func Rows() int64 { return rows.Load() }
