// Package kernel holds the process-wide knobs and counters of the
// block violation kernels (DESIGN.md §12): the dimension-specialized
// inner loops every backend's scans dispatch to through
// lptype.BlockViolator.
//
// It is a leaf package — the four domain packages (lp, svm, meb, sea)
// and internal/lptype all import it, so it imports nothing — and all
// state is atomic: kernels run concurrently on the server's solver
// pool and on parallel shard scans.
//
// The knobs exist for measurement, not tuning. SetEnabled(false)
// removes the block layer entirely (every scan falls back to the
// per-row reference path — the ablation arm of experiment M5), and
// SetForceGeneric(true) keeps the block layer but routes d ≤ 4
// workloads through the width-generic loop instead of their unrolled
// kernels (the A/B arm of the microbenchmarks and the differential
// tests). Both paths are bit-identical to the kernels by
// construction; only wall-clock changes.
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
	// ClassGenericLowDim is the width-generic loop running where an
	// unrolled kernel exists (d ∈ {2,3,4} with ForceGeneric set) —
	// always a measurement artifact, which is why the lpstat doctor
	// flags a frontend accumulating these.
	ClassGenericLowDim
	// ClassRowLoop is the per-row fallback: the domain has no block
	// kernel, or kernels were disabled when the scan was built. The
	// arithmetic is the reference oracle's, dispatched row by row.
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
	case ClassGenericLowDim:
		return "generic_lowdim"
	case ClassRowLoop:
		return "rowloop"
	}
	return "unknown"
}

// Classes lists every class in rendering order, so metric expositions
// emit stable zero-valued series from the first scrape.
func Classes() []Class {
	return []Class{ClassD2, ClassD3, ClassD4, ClassGeneric, ClassGenericLowDim, ClassRowLoop}
}

// ClassFor maps an inner-loop dimension to the class its block
// evaluation will run under the current knobs: the unrolled kernel
// for d ∈ {2,3,4} unless ForceGeneric is set, the generic loop
// otherwise. d = 1 has no unrolled kernel by design (one multiply per
// row leaves nothing to unroll), so it is plain generic, never
// generic_lowdim.
func ClassFor(d int) Class {
	if d >= 2 && d <= 4 {
		if ForceGeneric() {
			return ClassGenericLowDim
		}
		return ClassD2 + Class(d-2)
	}
	return ClassGeneric
}

var (
	disabled     atomic.Bool // zero value = enabled, the default
	forceGeneric atomic.Bool

	blocks [numClasses]atomic.Int64
	rows   atomic.Int64
)

// Enabled reports whether scans should install block kernels. It is
// consulted when a scan is constructed (lptype.NewRowAccess), not per
// block, so toggling it mid-solve affects only later solves.
func Enabled() bool { return !disabled.Load() }

// SetEnabled toggles the block layer and returns the previous value
// (callers restore it — the knob is process-wide).
func SetEnabled(on bool) bool { return !disabled.Swap(!on) }

// ForceGeneric reports whether unrolled kernels are bypassed.
func ForceGeneric() bool { return forceGeneric.Load() }

// SetForceGeneric toggles the generic-loop override and returns the
// previous value.
func SetForceGeneric(on bool) bool { return forceGeneric.Swap(on) }

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

// BlocksTotal returns block evaluations across all classes.
func BlocksTotal() int64 {
	var t int64
	for i := range blocks {
		t += blocks[i].Load()
	}
	return t
}

// Rows returns the total rows evaluated through block calls.
func Rows() int64 { return rows.Load() }

// Reset zeroes the counters (tests and benchmark harnesses only; the
// knobs are left alone).
func Reset() {
	for i := range blocks {
		blocks[i].Store(0)
	}
	rows.Store(0)
}
