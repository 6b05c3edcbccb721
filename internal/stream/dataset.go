package stream

import (
	"lowdimlp/internal/dataset"
	"lowdimlp/internal/lptype"
)

// SolveDataset runs the streaming version of Algorithm 1 (Theorem 1)
// over a columnar dataset source — the pull loop of the one streaming
// driver.
//
// The scan reads rows in reusable batches straight off the source (an
// in-memory arena, a block-streamed file, or a typed stream encoded on
// the fly), tests violations through the domain's block kernels, and
// samples with row reservoirs that copy only on accept, so the
// per-constraint cost is arithmetic plus at most one slot copy: no
// allocation, no pointer chase, no decode.
//
// It is DatasetSolver driven over a private cursor — the same state
// machine the scan-sharing batch scheduler drives over a shared one —
// so solo and shared execution are one code path, and its results are
// pinned bit-identical to the typed per-item reference loop the
// package tests keep (ref_test.go).
func SolveDataset[C, B any](ra lptype.RowAccess[C, B], src dataset.Source, opt Options) (B, Stats, error) {
	s := NewDatasetSolver(ra, src.Rows(), src.Width(), opt)
	cur := src.NewCursor()
	defer dataset.CloseCursor(cur)
	batch := make([]dataset.Row, batchRows(opt))
	for !s.Done() {
		s.BeginPass()
		if _, err := dataset.SharedPass(cur, batch, s); err != nil {
			var zero B
			return zero, s.stats, err
		}
		if s.EndPass() != nil {
			break
		}
	}
	return s.Result()
}

// decodeNet turns sampled net rows into constraints for the basis
// solver. The rows are reservoir slot buffers that the next pass will
// reuse, and decoded constraints may alias their input (lp does), so
// the net is copied into one fresh arena first — one allocation per
// iteration, on the cold path.
func decodeNet[C, B any](ra lptype.RowAccess[C, B], rows [][]float64, width int) []C {
	arena := make([]float64, len(rows)*width)
	items := make([]C, len(rows))
	for i, row := range rows {
		dst := arena[i*width : (i+1)*width : (i+1)*width]
		copy(dst, row)
		items[i] = ra.Item(dst)
	}
	return items
}

// batchRows returns the cursor batch size for dataset scans.
func batchRows(opt Options) int {
	if opt.BatchRows > 0 {
		return opt.BatchRows
	}
	return dataset.DefaultBatchRows
}
