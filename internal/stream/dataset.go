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
// samples by comparing a running total against the next sample point,
// so the per-constraint cost is arithmetic plus, for the few rows that
// are sampled, a slot copy: no allocation, no pointer chase, no decode.
//
// Its results are pinned bit-identical to the typed per-item reference
// loop the package tests keep (ref_test.go).
func SolveDataset[C, B any](ra lptype.RowAccess[C, B], src dataset.Source, opt Options) (B, Stats, error) {
	s := NewDatasetSolver(ra, src.Rows(), src.Width(), opt)
	cur := src.NewCursor()
	defer dataset.CloseCursor(cur)
	batch := make([]dataset.Row, dataset.DefaultBatchRows)
	for !s.Done() {
		s.BeginPass()
		if err := s.scan(cur, batch); err != nil {
			var zero B
			return zero, s.stats, err
		}
		if s.EndPass() != nil {
			break
		}
	}
	return s.Result()
}

// scan is one pass's read: the cursor rewound, then every batch, in
// source order, through RowBlock. The caller owns cursor and buffer, so
// a pass allocates nothing (TestFusedPassAllocations pins 0).
func (s *DatasetSolver[C, B]) scan(cur dataset.Cursor, batch []dataset.Row) error {
	if err := cur.Reset(); err != nil {
		return err
	}
	for {
		nr, err := cur.Next(batch)
		if err != nil || nr == 0 {
			return err
		}
		s.RowBlock(batch[:nr])
	}
}
