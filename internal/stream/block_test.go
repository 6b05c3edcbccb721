package stream

import (
	"math"
	"testing"

	"lowdimlp/internal/core"
	"lowdimlp/internal/dataset"
	"lowdimlp/internal/kernel"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/meb"
	"lowdimlp/internal/numeric"
	"lowdimlp/internal/sampling"
)

// blockSink is what fanPass feeds: a solver, or rowOnly's per-row
// drive of one.
type blockSink interface {
	RowBlock(rows []dataset.Row)
}

// fanPass reads the cursor once and hands every batch to every sink,
// in order — a multi-consumer scan kept as a test drive: a solver fed
// this way must end up exactly where scanning alone would leave it.
func fanPass(cur dataset.Cursor, batch []dataset.Row, sinks ...blockSink) error {
	if err := cur.Reset(); err != nil {
		return err
	}
	for {
		nr, err := cur.Next(batch)
		if err != nil || nr == 0 {
			return err
		}
		for _, s := range sinks {
			s.RowBlock(batch[:nr])
		}
	}
}

// rowOnly feeds a solver one row at a time (single-row blocks) — with
// a solver built by mkRowLoopSolver, the per-row reference drive for
// the block conformance tests below.
type rowOnly struct {
	s *DatasetSolver[meb.Point, meb.Basis]
}

func (r rowOnly) RowBlock(rows []dataset.Row) {
	for i := range rows {
		r.s.RowBlock(rows[i : i+1])
	}
}

// mebRowLoop is meb's domain without its block kernels: the embedded
// interface promotes Domain's methods only and ViolatesRow is
// forwarded, so a RowAccess over it scans through the counted per-row
// loop (kernel.ClassRowLoop).
type mebRowLoop struct {
	lptype.Domain[meb.Point, meb.Basis]
}

func (d mebRowLoop) ViolatesRow(b meb.Basis, row []float64) bool {
	return d.Domain.(*meb.Domain).ViolatesRow(b, row)
}

// mkRowLoopSolver is mkFusedSolver over mebRowLoop: every violation
// test of the solver goes through the domain's per-row ViolatesRow.
func mkRowLoopSolver(st *dataset.Store, pending meb.Basis, seed uint64) *DatasetSolver[meb.Point, meb.Basis] {
	ra := lptype.NewRowAccess[meb.Point, meb.Basis](mebRowLoop{meb.NewDomain(st.Width())},
		func(row []float64) meb.Point { return meb.Point(row) })
	return newFusedSolver(ra, st, pending, seed)
}

// mkFusedSolver is newFusedSolver over meb's block kernels.
func mkFusedSolver(st *dataset.Store, pending meb.Basis, seed uint64) *DatasetSolver[meb.Point, meb.Basis] {
	return newFusedSolver(mebAccess(st.Width()), st, pending, seed)
}

// newFusedSolver hand-builds a solver over ra mid-fused-phase — the
// state BeginPass leaves it in during a real solve — shared by the
// block conformance and allocation tests.
func newFusedSolver(ra lptype.RowAccess[meb.Point, meb.Basis], st *dataset.Store, pending meb.Basis, seed uint64) *DatasetSolver[meb.Point, meb.Basis] {
	n, d := st.Rows(), st.Width()
	mult := math.Pow(float64(n), 0.5)
	const m = 32
	rng := numeric.NewRand(seed, 0x57124)
	s := &DatasetSolver[meb.Point, meb.Basis]{
		ra: ra, dom: meb.NewDomain(d), n: n, width: d,
		p:       core.Params{R: 2, Mult: mult, Eps: 1 / (40 * mult), M: m, MaxIters: 100},
		rng:     rng,
		net:     sampling.NewKnownTotal(m, d, rng),
		viol:    sampling.NewRowReservoir(m, d, rng),
		lastRow: make([]float64, 0, d),
		phase:   solverFused,
		bases:   []meb.Basis{pending}, pending: pending,
	}
	// The total a real solve would carry over from the previous pass:
	// the same Kahan sum the armed pass is about to form.
	var total numeric.Kahan
	for i := 0; i < n; i++ {
		e := 0
		if s.ra.ViolatesRow(pending, st.Row(i)) {
			e = 1
		}
		total.Add(lptype.PowWeight(mult, e))
	}
	s.nextTotal = total.Sum()
	s.BeginPass()
	return s
}

// TestBlockScanMatchesRowScan is the stream-level conformance pin for
// the block-kernel path: a fused pass driven a block at a time through
// the kernels (arbitrary, irregular block boundaries) must be bit-
// identical to the same pass driven row by row through the per-row
// violation test — same Kahan sums, same RNG consumption, same next
// basis out of EndPass.
func TestBlockScanMatchesRowScan(t *testing.T) {
	const n, d = 4096, 3
	st := cloud(n, d, 23)
	dom := meb.NewDomain(d)
	seedPts := make([]meb.Point, 8)
	for i := range seedPts {
		seedPts[i] = meb.Point(st.Row(i))
	}
	pending, err := dom.Solve(seedPts)
	if err != nil {
		t.Fatal(err)
	}

	rowS := mkRowLoopSolver(st, pending, 11)
	blkS := mkFusedSolver(st, pending, 11)

	d3, rowloop := kernel.Blocks(kernel.ClassD3), kernel.Blocks(kernel.ClassRowLoop)
	for i := 0; i < n; i++ {
		rowS.RowBlock([]dataset.Row{st.Row(i)})
	}
	if kernel.Blocks(kernel.ClassD3) != d3 || kernel.Blocks(kernel.ClassRowLoop) == rowloop {
		t.Fatal("the per-row reference drive ran through a block kernel")
	}
	// Irregular block sizes: boundaries must not matter.
	sizes := []int{1, 7, 2, 256, 31, 3, 97, 300}
	rows := make([]dataset.Row, 0, 300)
	for lo, k := 0, 0; lo < n; k++ {
		sz := min(sizes[k%len(sizes)], n-lo)
		rows = rows[:0]
		for i := lo; i < lo+sz; i++ {
			rows = append(rows, st.Row(i))
		}
		blkS.RowBlock(rows)
		lo += sz
	}
	if kernel.Blocks(kernel.ClassD3) == d3 {
		t.Fatal("meb access has no block kernel")
	}

	if rowS.wTotal.Sum() != blkS.wTotal.Sum() || rowS.wViol.Sum() != blkS.wViol.Sum() {
		t.Fatalf("weight sums drift: row (%v, %v) vs block (%v, %v)",
			rowS.wTotal.Sum(), rowS.wViol.Sum(), blkS.wTotal.Sum(), blkS.wViol.Sum())
	}
	if rowS.violCount != blkS.violCount {
		t.Fatalf("violator count %d (row) vs %d (block)", rowS.violCount, blkS.violCount)
	}
	if rowS.stats.ItemsScanned != blkS.stats.ItemsScanned {
		t.Fatalf("items scanned %d vs %d", rowS.stats.ItemsScanned, blkS.stats.ItemsScanned)
	}
	if err := rowS.EndPass(); err != nil {
		t.Fatal(err)
	}
	if err := blkS.EndPass(); err != nil {
		t.Fatal(err)
	}
	// The next pending basis is solved from the reservoir samples, so
	// equality here certifies identical RNG consumption and identical
	// accepted slots — the strongest downstream observable of a pass.
	if rowS.pending.B.R2 != blkS.pending.B.R2 {
		t.Fatalf("next basis radius² %v (row) vs %v (block)", rowS.pending.B.R2, blkS.pending.B.R2)
	}
	for i := range rowS.pending.B.Center {
		if rowS.pending.B.Center[i] != blkS.pending.B.Center[i] {
			t.Fatalf("next basis center[%d] %v vs %v", i, rowS.pending.B.Center[i], blkS.pending.B.Center[i])
		}
	}
}

// TestSharedBlockScanMatchesRowOnly re-pins the same equivalence over
// a cursor: one scan handing a solver whole batches for its kernels
// and another single rows for the per-row test must not differ in one
// bit of the pass.
func TestSharedBlockScanMatchesRowOnly(t *testing.T) {
	const n, d = 3000, 2
	st := cloud(n, d, 31)
	dom := meb.NewDomain(d)
	seedPts := make([]meb.Point, 5)
	for i := range seedPts {
		seedPts[i] = meb.Point(st.Row(i))
	}
	pending, err := dom.Solve(seedPts)
	if err != nil {
		t.Fatal(err)
	}
	rowS := mkRowLoopSolver(st, pending, 19)
	blkS := mkFusedSolver(st, pending, 19)
	cur := st.NewCursor()
	defer dataset.CloseCursor(cur)
	batch := make([]dataset.Row, 64)
	if err := fanPass(cur, batch, rowOnly{rowS}, blkS); err != nil {
		t.Fatal(err)
	}
	if rowS.wTotal.Sum() != blkS.wTotal.Sum() || rowS.wViol.Sum() != blkS.wViol.Sum() ||
		rowS.violCount != blkS.violCount {
		t.Fatalf("row-only vs block sink drift: (%v, %v, %d) vs (%v, %v, %d)",
			rowS.wTotal.Sum(), rowS.wViol.Sum(), rowS.violCount,
			blkS.wTotal.Sum(), blkS.wViol.Sum(), blkS.violCount)
	}
}

// TestBlockPassAllocations is the allocation-regression guard for the
// block-kernel hot path: a pass driving block-capable fused solvers
// must allocate nothing per block at steady state (the scratch
// buffers are sized on first use and reused), and every block must be
// recorded by the kernel counters under the dimension-specialized
// class.
func TestBlockPassAllocations(t *testing.T) {
	const n, d, batchSize = 4096, 3, 256
	st := cloud(n, d, 17)
	dom := meb.NewDomain(d)
	seedPts := make([]meb.Point, 8)
	for i := range seedPts {
		seedPts[i] = meb.Point(st.Row(i))
	}
	pending, err := dom.Solve(seedPts)
	if err != nil {
		t.Fatal(err)
	}
	sinks := []blockSink{
		mkFusedSolver(st, pending, 5), mkFusedSolver(st, pending, 6),
		mkFusedSolver(st, pending, 7), mkFusedSolver(st, pending, 8),
	}
	cur := st.NewCursor()
	batch := make([]dataset.Row, batchSize)

	blocksBefore := kernel.Blocks(kernel.ClassD3)
	rowsBefore := kernel.Rows()
	allocs := testing.AllocsPerRun(10, func() {
		if err := fanPass(cur, batch, sinks...); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("block pass: %.1f allocs for %d rows × %d solvers (want 0)", allocs, n, len(sinks))
	}
	if kernel.Blocks(kernel.ClassD3) <= blocksBefore {
		t.Fatal("d3 kernel block counter did not advance")
	}
	if kernel.Rows() <= rowsBefore {
		t.Fatal("kernel row counter did not advance")
	}
	t.Logf("block pass over %d rows × %d solvers: %.1f allocs", n, len(sinks), allocs)
}
