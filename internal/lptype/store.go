package lptype

import (
	"fmt"
	"slices"

	"lowdimlp/internal/dataset"
	"lowdimlp/internal/numeric"
)

// Store is local-constraint storage with the §3.2 recompute-on-the-fly
// scan primitives: weights derived, every call, from a list of stored
// bases. One implementation exists — a columnar dataset.Source scanned
// through the domain's row primitives (typed input is converted to
// rows once, at the engine boundary) — with the arithmetic, in the
// order, of the typed per-item reference the package tests keep, so no
// storage layout changes a bit of any protocol transcript.
//
// The distributed backends no longer scan through it: a coordinator
// site or MPC machine holds a SiteWeights (built over the same
// sourceStore), which keeps the exponents Scan and Weights recount.
// The two methods stay because lpmark's probes
// (lptype.*_scan_ns_per_row, lptype.weights_ns_per_row) compile against
// them and because they are the differential oracle of SiteWeights
// (TestSiteWeightsMatchesRecompute, coordinator's siteRef); CI fails a
// non-test caller outside this package. Retire them with the benchmark
// PR that retires those probes.
type Store[C, B any] interface {
	// Size returns the number of local constraints.
	Size() int
	// Scan walks the local constraints once, accumulating (with Kahan
	// compensation, in storage order) the total weight induced by the
	// stored bases, and — when pending is non-nil — the violator
	// weight and count of the pending basis.
	Scan(bases []B, pending *B, mult float64) (wTot, wViol float64, count int)
	// Weights fills w[i] with constraint i's current weight
	// mult^a(i); len(w) must be Size().
	Weights(bases []B, mult float64, w []float64)
	// Item returns constraint i, decoded. The result may alias the
	// underlying arena.
	Item(i int) C
}

// blockScratch is the reusable per-store buffer set of the block scan:
// the per-row weight exponents and the two violation index buffers
// (stored bases vs the pending basis). One allocation set per store,
// 0 allocs/block at steady state.
type blockScratch struct {
	exps, idx, pidx []int32
}

func (b *blockScratch) ensure(n int) {
	if cap(b.exps) < n {
		b.exps = make([]int32, n)
	}
}

// scanBlock runs the §3.2 weight/violation arithmetic for one block.
// Decisions and exponents come from whole-block ViolatesBlock calls
// (the domain's kernels, or RowAccess's counted per-row loop when
// there are none); the Kahan accumulations then walk the rows in
// source order with PowWeight's documented-exact fast paths — so the
// sums, the count and every downstream protocol bit match the per-row
// reference exactly.
func scanBlock[C, B any](ra RowAccess[C, B], blk *blockScratch, rows []dataset.Row, bases []B, pending *B, mult float64, wTot, wViol *numeric.Kahan, count *int) {
	blk.ensure(len(rows))
	exps := blk.exps[:len(rows)]
	blk.idx = ra.WeightExpBlock(bases, rows, exps, blk.idx)
	np := 0
	if pending != nil {
		blk.pidx = ra.ViolatesBlock(*pending, rows, blk.pidx)
		np = len(blk.pidx)
	}
	pi := 0
	for i := range rows {
		w := PowWeight(mult, int(exps[i]))
		wTot.Add(w)
		if pi < np && blk.pidx[pi] == int32(i) {
			pi++
			wViol.Add(w)
			*count++
		}
	}
}

// weightsBlock fills w with the block's current weights mult^a(i) —
// the block form of the Weights contract.
func weightsBlock[C, B any](ra RowAccess[C, B], blk *blockScratch, rows []dataset.Row, bases []B, mult float64, w []float64) {
	blk.ensure(len(rows))
	exps := blk.exps[:len(rows)]
	blk.idx = ra.WeightExpBlock(bases, rows, exps, blk.idx)
	for i := range rows {
		w[i] = PowWeight(mult, int(exps[i]))
	}
}

// ViewStore wraps a columnar view shard (contiguous or strided) as
// site/machine-local storage. A View is a Source, so this is
// SourceStore over it: zero-copy scans of the flat arena, lazy decode
// of sampled constraints only.
func ViewStore[C, B any](ra RowAccess[C, B], view dataset.View) Store[C, B] {
	return SourceStore(ra, view)
}

// SourceStore wraps any columnar source as site/machine-local storage.
// Scan and Weights stream the source through one reusable cursor, a
// block at a time — memory-backed sources hand out arena views,
// file-backed shards their block buffers — and Item reads single rows
// by capability: in place for memory-backed sources, by offset (pread)
// for shard files. So an LDSETM shard file acts as a coordinator site
// or MPC machine without a single row being materialized, and a store
// belongs to one site, which scans sequentially.
func SourceStore[C, B any](ra RowAccess[C, B], src dataset.Source) Store[C, B] {
	return newSourceStore(ra, src)
}

func newSourceStore[C, B any](ra RowAccess[C, B], src dataset.Source) *sourceStore[C, B] {
	s := &sourceStore[C, B]{ra: ra, src: src}
	if m, ok := src.(dataset.RandomAccess); ok {
		s.view, s.mem = m.View(), true
	}
	return s
}

type sourceStore[C, B any] struct {
	ra   RowAccess[C, B]
	src  dataset.Source
	view dataset.View // src's rows in memory, when mem
	mem  bool
	// cur and batch are lazily created and reused across passes.
	cur   dataset.Cursor
	batch []dataset.Row
	blk   blockScratch
	// rowBuf backs row's file-backed reads.
	rowBuf []float64
}

func (s *sourceStore[C, B]) Size() int { return s.src.Rows() }

// pass runs block over every cursor batch of one scan of the source.
// A scan failure mid-protocol (the shard file was validated at open,
// so this means the file changed or I/O died under us) panics: the
// protocol has no recovery path, and garbage answers are worse than a
// crash.
func (s *sourceStore[C, B]) pass(block func(rows []dataset.Row)) {
	if s.cur == nil {
		s.cur = s.src.NewCursor()
		s.batch = make([]dataset.Row, max(1, min(dataset.DefaultBatchRows, s.Size())))
	}
	err := s.cur.Reset()
	for err == nil {
		var n int
		if n, err = s.cur.Next(s.batch); n == 0 {
			break
		}
		block(s.batch[:n])
	}
	if err != nil {
		panic(fmt.Sprintf("lptype: shard scan: %v", err))
	}
}

func (s *sourceStore[C, B]) Scan(bases []B, pending *B, mult float64) (float64, float64, int) {
	var wTot, wViol numeric.Kahan
	count := 0
	s.pass(func(rows []dataset.Row) {
		scanBlock(s.ra, &s.blk, rows, bases, pending, mult, &wTot, &wViol, &count)
	})
	return wTot.Sum(), wViol.Sum(), count
}

func (s *sourceStore[C, B]) Weights(bases []B, mult float64, w []float64) {
	s.pass(func(rows []dataset.Row) {
		weightsBlock(s.ra, &s.blk, rows, bases, mult, w[:len(rows)])
		w = w[len(rows):]
	})
}

// Item decodes row i. A file-backed row is copied into an allocation
// of its own, because the constraint aliases it. Sampling touches
// O(net size) rows per iteration, so the per-call read and copy of the
// file-backed case are cold-path costs.
func (s *sourceStore[C, B]) Item(i int) C {
	if s.mem {
		return s.ra.Item(s.view.Row(i))
	}
	return s.ra.Item(slices.Clone(s.row(i)))
}

// row returns row i: in place for memory-backed sources, read into one
// reused buffer — valid until the next call — for file-backed ones. A
// failed read panics for the reason a failed scan does.
func (s *sourceStore[C, B]) row(i int) []float64 {
	if s.mem {
		return s.view.Row(i)
	}
	rr, ok := s.src.(dataset.RowReaderAt)
	if !ok {
		panic(fmt.Sprintf("lptype: source %T has no random row access", s.src))
	}
	if s.rowBuf == nil {
		s.rowBuf = make([]float64, s.src.Width())
	}
	if err := rr.ReadRowAt(i, s.rowBuf); err != nil {
		panic(fmt.Sprintf("lptype: shard row read: %v", err))
	}
	return s.rowBuf
}

// CloseStore releases the scan cursor a store holds (file-backed
// cursors keep a descriptor; memory cursors are no-ops).
func CloseStore[C, B any](s Store[C, B]) {
	if ss, ok := s.(*sourceStore[C, B]); ok {
		ss.close()
	}
}

func (s *sourceStore[C, B]) close() {
	if s.cur != nil {
		dataset.CloseCursor(s.cur)
		s.cur = nil
	}
}
