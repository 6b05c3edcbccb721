package stream

import (
	"lowdimlp/internal/core"
	"lowdimlp/internal/dataset"
	"lowdimlp/internal/lptype"
)

// SolveDataset runs the streaming version of Algorithm 1 (Theorem 1)
// over a columnar dataset source: core.Run over the scanner substrate.
//
// The scan reads rows in reusable batches straight off the source (an
// in-memory arena, a block-streamed file, or a sharded manifest),
// tests violations through the domain's block kernels, and samples by
// comparing a running total against the next sample point, so the
// per-constraint cost is arithmetic plus, for the few rows that
// are sampled, a slot copy: no allocation, no pointer chase, no decode.
//
// Its results are pinned bit-identical to the typed per-item reference
// loop the package tests keep (ref_test.go).
//
// The returned basis may alias the source's rows (the direct path
// decodes a memory-backed source in place) or the solver's net arena:
// a caller that keeps it past the source, or wants the source freed,
// copies its rows first, as engine.SolveSourceBasis does.
func SolveDataset[C, B any](ra lptype.RowAccess[C, B], src dataset.Source, opt Options) (B, Stats, error) {
	dom := ra.Domain()
	n := src.Rows()
	if n == 0 {
		b, err := dom.Solve(nil)
		return b, Stats{}, err
	}
	p := core.NewParams(n, dom.CombinatorialDim(), dom.VCDim(), opt.Core)
	s := newScanner(ra, src, p, opt)
	defer dataset.CloseCursor(s.cur)
	b, rs, err := core.Run(p, s, dom.Solve)
	s.stats.RunStats = rs
	return b, s.stats, err
}
