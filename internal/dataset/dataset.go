// Package dataset is the columnar constraint-storage layer: the flat,
// cache-friendly representation every backend scans.
//
// The paper's resource bounds (Theorems 1–3 of Assadi–Karpov–Zhang,
// PODS 2019) are about scanning n constraints cheaply while keeping
// only O~(d³·n^{1/r}) working state. A `[]C` of pointer-bearing
// structs (one heap object per constraint) fights that: every scan
// pays a pointer chase and a cache miss per item. This package stores
// an instance as one flat []float64 arena — one width-strided row per
// constraint, in the wire-row layout of the engine registry
// (lp: a_1…a_d b, svm: x_1…x_d y, meb/sea: x_1…x_d) — and hands scans
// zero-copy row views in reusable batches.
//
// # Shapes
//
//   - Store: the in-memory columnar arena (append-only).
//   - View: a zero-copy window into a Store — contiguous (Slice) or
//     strided (Shard's round-robin partitions), so the coordinator and
//     MPC backends shard an instance without copying anything.
//   - Cursor: batched iteration — Next fills a caller-owned []Row with
//     up to len(batch) row views and returns the count. Memory-backed
//     cursors alias the arena; file-backed cursors alias a reusable
//     block buffer, so a row view is valid only until the next Next.
//   - File: the out-of-core source (see file.go) — little-endian rows
//     streamed in fixed-size blocks.
//
// Rows handed out by cursors are read-only views; retaining one across
// a Next (a reservoir accept, a sampled net item) requires a copy.
package dataset

import (
	"errors"
	"fmt"
	"io"
)

// Row is one constraint in flat wire-row form. It is a view: cursors
// reuse the backing memory between batches.
type Row = []float64

// Source is a scannable columnar constraint set: an in-memory Store or
// View, or a file-backed File.
type Source interface {
	// Width returns the numbers per row.
	Width() int
	// Rows returns the row count.
	Rows() int
	// NewCursor returns a fresh cursor positioned at the first row.
	// Cursors are independent: concurrent scans each take their own.
	NewCursor() Cursor
}

// Cursor is batched, restartable iteration over a Source.
type Cursor interface {
	// Reset rewinds to the first row (starts a new pass).
	Reset() error
	// Next fills batch with up to len(batch) row views and returns how
	// many it placed; 0 with a nil error means the end of the pass.
	// The views are valid only until the next Next or Reset.
	Next(batch []Row) (int, error)
}

// ErrWidth reports a row whose length does not match the source width.
var ErrWidth = errors.New("dataset: row width mismatch")

// ErrRowCount reports a source whose cursor yields a different number
// of rows than its Rows declares (a file truncated or grown after it
// was opened, say): a solve over it would run on a different problem.
var ErrRowCount = errors.New("dataset: cursor row count differs from the source's")

// Store is the in-memory columnar arena: rows of a fixed width stored
// back to back in one flat []float64. Appends may grow the arena;
// views and cursors taken before an append remain valid only because
// rows are never mutated in place — callers should finish building a
// store before scanning it concurrently.
type Store struct {
	width int
	data  []float64
}

// NewStore returns an empty store for rows of the given width
// (width ≥ 1).
func NewStore(width int) *Store {
	if width < 1 {
		panic(fmt.Sprintf("dataset: width must be ≥ 1, got %d", width))
	}
	return &Store{width: width}
}

// arenaStore wraps an existing flat arena (len a multiple of width) as
// a Store without copying — the mmap source's zero-copy bridge. The
// caller owns the arena's lifetime and must never append through the
// returned store while views of it are live.
func arenaStore(width int, vals []float64) *Store {
	if width < 1 || len(vals)%width != 0 {
		panic(fmt.Sprintf("dataset: arena of %d values at width %d", len(vals), width))
	}
	return &Store{width: width, data: vals}
}

// FromRows copies a [][]float64 row set into a new columnar store —
// the adapter from the slice world.
func FromRows(width int, rows [][]float64) (*Store, error) {
	s := NewStore(width)
	s.Grow(len(rows))
	for i, r := range rows {
		if len(r) != width {
			return nil, fmt.Errorf("%w: row %d has %d numbers, want %d", ErrWidth, i, len(r), width)
		}
		s.data = append(s.data, r...)
	}
	return s, nil
}

// Width returns the numbers per row.
func (s *Store) Width() int { return s.width }

// Rows returns the row count.
func (s *Store) Rows() int { return len(s.data) / s.width }

// Grow reserves capacity for n additional rows.
func (s *Store) Grow(n int) {
	need := len(s.data) + n*s.width
	if cap(s.data) < need {
		grown := make([]float64, len(s.data), need)
		copy(grown, s.data)
		s.data = grown
	}
}

// AppendRow appends one row. The row is copied into the arena; it
// must have the store width.
func (s *Store) AppendRow(row []float64) {
	if len(row) != s.width {
		panic(fmt.Sprintf("dataset: AppendRow width %d, want %d", len(row), s.width))
	}
	s.data = append(s.data, row...)
}

// AppendValues bulk-appends whole rows given as a flat value run
// (len(vals) must be a multiple of the width) — the zero-decode path
// for ingesting another arena or a decoded file block.
func (s *Store) AppendValues(vals []float64) {
	if len(vals)%s.width != 0 {
		panic(fmt.Sprintf("dataset: AppendValues length %d is not a multiple of width %d", len(vals), s.width))
	}
	s.data = append(s.data, vals...)
}

// Row returns a zero-copy view of row i. The view stays valid (rows
// are never mutated), but must not be written through.
func (s *Store) Row(i int) Row {
	lo := i * s.width
	return s.data[lo : lo+s.width : lo+s.width]
}

// Values returns the flat arena (read-only), rows back to back — the
// digest/serialization fast path.
func (s *Store) Values() []float64 { return s.data }

// View returns the full-store view.
func (s *Store) View() View { return View{store: s, step: 1, count: s.Rows()} }

// NewCursor returns a cursor over the whole store.
func (s *Store) NewCursor() Cursor { return s.View().NewCursor() }

// View is a zero-copy window into a Store: count rows starting at
// start, step apart. step > 1 encodes round-robin shards (Shard), so
// distributing an instance across k sites copies nothing.
type View struct {
	store *Store
	start int
	step  int
	count int
}

// Width returns the numbers per row.
func (v View) Width() int { return v.store.width }

// Rows returns the number of rows in the view.
func (v View) Rows() int { return v.count }

// Row returns a zero-copy view of the view's i-th row.
func (v View) Row(i int) Row { return v.store.Row(v.start + i*v.step) }

// Slice returns the sub-view of rows [lo, hi).
func (v View) Slice(lo, hi int) View {
	if lo < 0 || hi < lo || hi > v.count {
		panic(fmt.Sprintf("dataset: Slice[%d:%d] of %d rows", lo, hi, v.count))
	}
	return View{store: v.store, start: v.start + lo*v.step, step: v.step, count: hi - lo}
}

// Shard splits the view into k round-robin shards: shard j holds rows
// j, j+k, j+2k, … — the same assignment as appending item i to
// partition i%k, without copying a single row.
func (v View) Shard(k int) []View {
	if k < 1 {
		panic(fmt.Sprintf("dataset: Shard into %d parts", k))
	}
	out := make([]View, k)
	for j := range out {
		count := (v.count - j + k - 1) / k
		if count < 0 {
			count = 0
		}
		out[j] = View{store: v.store, start: v.start + j*v.step, step: v.step * k, count: count}
	}
	return out
}

// View returns v itself — the RandomAccess hook.
func (v View) View() View { return v }

// NewCursor returns a cursor over the view. Batches alias the arena:
// no copying, no allocation per batch.
func (v View) NewCursor() Cursor { return &memCursor{v: v} }

// memCursor iterates a View, filling batches with arena views.
type memCursor struct {
	v   View
	pos int
}

func (c *memCursor) Reset() error { c.pos = 0; return nil }

func (c *memCursor) Next(batch []Row) (int, error) {
	n := c.v.count - c.pos
	if n > len(batch) {
		n = len(batch)
	}
	for i := 0; i < n; i++ {
		batch[i] = c.v.Row(c.pos + i)
	}
	c.pos += n
	return n, nil
}

// RandomAccess marks sources whose rows live in memory and support
// O(1) access — Store and View. Backends that need random access
// (coordinator/MPC site sampling) use Materialize to get one.
type RandomAccess interface {
	Source
	View() View
}

// Materialize returns a random-access view of src, reading the whole
// source into a fresh Store unless it is already memory-backed (in
// which case nothing is copied). A copied source whose cursor yields
// other than Rows() rows is an ErrRowCount.
func Materialize(src Source) (View, error) {
	if ra, ok := src.(RandomAccess); ok {
		return ra.View(), nil
	}
	st := NewStore(src.Width())
	st.Grow(src.Rows())
	cur := src.NewCursor()
	defer CloseCursor(cur)
	batch := make([]Row, DefaultBatchRows)
	for {
		n, err := cur.Next(batch)
		if err != nil {
			return View{}, err
		}
		if n == 0 {
			break
		}
		for _, row := range batch[:n] {
			st.data = append(st.data, row...)
		}
	}
	if st.Rows() != src.Rows() {
		return View{}, fmt.Errorf("%w: source declared %d rows, cursor yielded %d", ErrRowCount, src.Rows(), st.Rows())
	}
	return st.View(), nil
}

// CloseCursor releases any resources the cursor holds (file cursors
// own a descriptor); memory cursors are no-ops.
func CloseCursor(c Cursor) {
	if cl, ok := c.(io.Closer); ok {
		cl.Close()
	}
}

// CloseSource releases any resources a source holds (file descriptors,
// mmap mappings); memory sources are no-ops.
func CloseSource(s Source) {
	if cl, ok := s.(io.Closer); ok {
		cl.Close()
	}
}

// Sharded marks sources stored as round-robin shards (shard j holds
// rows j, j+k, j+2k, … of the instance — the same assignment as
// View.Shard and the engine's Partition). The distributed backends map
// one shard onto one site/machine directly, so a sharded file is
// "distributed" without materializing a row; the sequential cursor of
// a Sharded source interleaves the shards back into original order.
type Sharded interface {
	Source
	// NumShards returns the shard count k ≥ 1.
	NumShards() int
	// Shard returns shard j as its own source.
	Shard(j int) Source
}

// RowReaderAt marks sources that can read one row by index without a
// cursor — what site-local sampling needs from a shard file.
type RowReaderAt interface {
	// ReadRowAt copies row i into dst (len(dst) = source width).
	ReadRowAt(i int, dst []float64) error
}

// DefaultBatchRows is the batch size scans use when the caller does
// not choose one: large enough to amortize cursor dispatch to nothing,
// small enough that a batch of rows (256·width·8 bytes) stays L2-warm.
const DefaultBatchRows = 256

// interface conformance
var (
	_ Source       = (*Store)(nil)
	_ Source       = View{}
	_ RandomAccess = (*Store)(nil)
	_ RandomAccess = View{}
)
