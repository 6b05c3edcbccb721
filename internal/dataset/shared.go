package dataset

// BlockSink consumes the batches of a shared scan, one cursor batch
// per call — the shape the domains' block kernels evaluate (DESIGN.md
// §12). Implementations must treat the rows as borrowed views valid
// only for the duration of the call (the batch buffers are reused),
// copying anything they keep — the same contract cursors impose on
// their callers — and must not depend on where the batch boundaries
// fall.
type BlockSink interface {
	RowBlock(rows []Row)
}

// SharedPass drives every sink through one pass over the cursor: the
// multi-consumer scan behind scan-sharing. Each sink sees every row
// exactly once, in source order — the same sequence a solo scan would
// deliver — so per-sink computations (reservoir sampling included) are
// bit-identical to running each consumer over its own private pass;
// only the number of passes over the storage changes. The caller owns
// cursor, batch buffer and sink slice, so a pass allocates nothing
// (the stream package's allocation-regression tests pin 0 allocs).
func SharedPass(cur Cursor, batch []Row, sinks ...BlockSink) (int64, error) {
	var scanned int64
	if err := cur.Reset(); err != nil {
		return scanned, err
	}
	for {
		nr, err := cur.Next(batch)
		if err != nil {
			return scanned, err
		}
		if nr == 0 {
			return scanned, nil
		}
		// Batch-at-a-time per sink, not row-at-a-time across sinks:
		// each sink's working set (reservoirs, running sums) stays hot
		// for a whole buffer of rows instead of being evicted k ways
		// per row. Every sink still sees every row once, in source
		// order, so per-sink results are unchanged.
		for _, s := range sinks {
			s.RowBlock(batch[:nr])
		}
		scanned += int64(nr)
	}
}
