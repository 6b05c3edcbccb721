// Sharded multi-file datasets: an LDSETM manifest referencing N LDSET1
// shard files, with rows assigned round-robin (row i lives in shard
// i%N at position i/N — exactly View.Shard's assignment, so a shard
// file maps onto a coordinator site or MPC machine with no shuffling).
// The manifest is the paper's partition made durable: the coordinator
// model's "site j holds S_j" becomes "shard file j is S_j".
//
//	offset  size   field
//	0       6      magic "LDSETM"
//	6       2      kind length (uint16 LE)
//	8       k      kind name
//	·       4      dim (uint32 LE)
//	·       4      width (uint32 LE)
//	·       4      objective length (uint32 LE)
//	·       8·len  objective coefficients (float64 LE)
//	·       8      total rows (uint64 LE)
//	·       4      shard count N (uint32 LE)
//	then, per shard: 2-byte name length, name bytes, 8-byte row count.
//
// Shard names are bare file names resolved relative to the manifest's
// directory — a manifest can never point outside it. Every shard file
// repeats the kind/dim/width/objective header, and OpenSharded verifies
// shard headers and the round-robin row counts against the manifest,
// so a swapped or truncated shard is an open error, not a wrong answer.
package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

var manifestMagic = [6]byte{'L', 'D', 'S', 'E', 'T', 'M'}

// MaxShards caps the shard count a manifest may declare (and a writer
// may create): enough for one shard per core on any realistic machine,
// small enough that a forged manifest cannot drive allocation.
const MaxShards = 4096

const maxShardNameLen = 255

// ShardRef is one manifest entry: a shard file name (relative to the
// manifest directory) and its row count.
type ShardRef struct {
	Name string
	Rows int
}

// shardRows returns the round-robin row count of shard j of n rows
// split k ways: ceil((n-j)/k), matching View.Shard.
func shardRows(n, k, j int) int {
	c := (n - j + k - 1) / k
	if c < 0 {
		return 0
	}
	return c
}

// validShardName accepts bare file names only: no separators, no
// traversal, nothing the OS would resolve outside the manifest's
// directory.
func validShardName(name string) bool {
	return name != "" && name != "." && name != ".." &&
		!strings.ContainsAny(name, "/\\") && name == filepath.Base(name)
}

// EncodeManifestTo writes the LDSETM manifest for info and shards to w.
func EncodeManifestTo(w io.Writer, info Info, shards []ShardRef) error {
	if len(info.Kind) > maxKindLen {
		return fmt.Errorf("dataset: kind %q too long", info.Kind)
	}
	if len(shards) < 1 || len(shards) > MaxShards {
		return fmt.Errorf("dataset: %d shards (want 1..%d)", len(shards), MaxShards)
	}
	total := 0
	for j, sh := range shards {
		if !validShardName(sh.Name) || len(sh.Name) > maxShardNameLen {
			return fmt.Errorf("dataset: bad shard name %q", sh.Name)
		}
		if sh.Rows != shardRows(info.Rows, len(shards), j) {
			return fmt.Errorf("dataset: shard %d has %d rows, round-robin of %d over %d wants %d",
				j, sh.Rows, info.Rows, len(shards), shardRows(info.Rows, len(shards), j))
		}
		total += sh.Rows
	}
	if total != info.Rows {
		return fmt.Errorf("dataset: shards hold %d rows, manifest says %d", total, info.Rows)
	}
	bw := bufio.NewWriter(w)
	bw.Write(manifestMagic[:])
	if err := encodeInfoPrefix(bw, info); err != nil {
		return err
	}
	var scratch [8]byte
	putU16 := func(v uint16) { binary.LittleEndian.PutUint16(scratch[:2], v); bw.Write(scratch[:2]) }
	putU32 := func(v uint32) { binary.LittleEndian.PutUint32(scratch[:4], v); bw.Write(scratch[:4]) }
	putU64 := func(v uint64) { binary.LittleEndian.PutUint64(scratch[:8], v); bw.Write(scratch[:8]) }
	putU32(uint32(len(shards)))
	for _, sh := range shards {
		putU16(uint16(len(sh.Name)))
		bw.WriteString(sh.Name)
		putU64(uint64(sh.Rows))
	}
	return bw.Flush()
}

// DecodeManifestFrom parses an LDSETM manifest, applying the same
// sanity caps as the file-header decoder: every length is bounded
// before it drives an allocation, and structural inconsistencies
// (round-robin counts, totals, names) are explicit ErrBadFile errors —
// never panics (FuzzManifestRoundTrip pins this).
func DecodeManifestFrom(r io.Reader) (Info, []ShardRef, error) {
	br := bufio.NewReader(r)
	read := func(b []byte) error { _, err := io.ReadFull(br, b); return err }
	var magic [6]byte
	if err := read(magic[:]); err != nil || magic != manifestMagic {
		return Info{}, nil, fmt.Errorf("%w: bad manifest magic", ErrBadFile)
	}
	info, err := decodeInfoPrefix(read)
	if err != nil {
		return info, nil, err
	}
	var b8 [8]byte
	if err := read(b8[:4]); err != nil {
		return info, nil, fmt.Errorf("%w: truncated manifest", ErrBadFile)
	}
	nShards := int(binary.LittleEndian.Uint32(b8[:4]))
	if nShards < 1 || nShards > MaxShards {
		return info, nil, fmt.Errorf("%w: shard count %d (want 1..%d)", ErrBadFile, nShards, MaxShards)
	}
	shards := make([]ShardRef, nShards)
	seen := make(map[string]bool, nShards)
	for j := range shards {
		if err := read(b8[:2]); err != nil {
			return info, nil, fmt.Errorf("%w: truncated shard table", ErrBadFile)
		}
		nameLen := int(binary.LittleEndian.Uint16(b8[:2]))
		if nameLen < 1 || nameLen > maxShardNameLen {
			return info, nil, fmt.Errorf("%w: shard %d name length %d", ErrBadFile, j, nameLen)
		}
		name := make([]byte, nameLen)
		if err := read(name); err != nil {
			return info, nil, fmt.Errorf("%w: truncated shard table", ErrBadFile)
		}
		shards[j].Name = string(name)
		if !validShardName(shards[j].Name) {
			return info, nil, fmt.Errorf("%w: shard %d name %q", ErrBadFile, j, shards[j].Name)
		}
		if seen[shards[j].Name] {
			return info, nil, fmt.Errorf("%w: duplicate shard name %q", ErrBadFile, shards[j].Name)
		}
		seen[shards[j].Name] = true
		if err := read(b8[:]); err != nil {
			return info, nil, fmt.Errorf("%w: truncated shard table", ErrBadFile)
		}
		sr := binary.LittleEndian.Uint64(b8[:])
		if want := shardRows(info.Rows, nShards, j); sr != uint64(want) {
			return info, nil, fmt.Errorf("%w: shard %d holds %d rows, round-robin wants %d",
				ErrBadFile, j, sr, want)
		}
		shards[j].Rows = int(sr)
	}
	return info, shards, nil
}

// SniffManifest reports whether b begins with the manifest magic.
func SniffManifest(b []byte) bool {
	return len(b) >= len(manifestMagic) && [6]byte(b[:6]) == manifestMagic
}

// SniffAnyFile reports whether the file at path begins with either
// dataset magic (single-file LDSET1 or manifest LDSETM).
func SniffAnyFile(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var b [6]byte
	if _, err := io.ReadFull(f, b[:]); err != nil {
		return false
	}
	return Sniff(b[:]) || SniffManifest(b[:])
}

// SniffManifestFile reports whether the file at path begins with the
// manifest magic.
func SniffManifestFile(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var b [6]byte
	if _, err := io.ReadFull(f, b[:]); err != nil {
		return false
	}
	return SniffManifest(b[:])
}

// shardSource is what a ShardedFile holds per shard: a buffered *File
// or a zero-copy *Mapped, either way self-describing and closable.
type shardSource interface {
	Source
	Info() Info
	Close() error
}

// ShardedFile is the multi-file Source behind an LDSETM manifest. Its
// sequential cursor interleaves the shards back into original row
// order (bit-identical to the single-file scan); NumShards/Shard hand
// the distributed backends one source per shard file. Shards are
// memory-mapped when the host allows — cursors then hand out views of
// the page cache with no decode — and fall back to buffered block
// streaming otherwise.
type ShardedFile struct {
	path       string
	info       Info
	shards     []shardSource
	shardPaths []string
	// BlockBytes is the per-shard streaming block size for non-mapped
	// shards (0 = DefaultBlockBytes / NumShards, at least 4 KiB).
	BlockBytes int
}

// OpenSharded opens an LDSETM manifest and every shard file it
// references (memory-mapping shards when possible), verifying each
// shard's header (kind, dim, width, objective, row count) against the
// manifest.
func OpenSharded(path string) (*ShardedFile, error) {
	return openSharded(path, true)
}

// OpenShardedBuffered opens the manifest with plain buffered shard
// streaming (no mmap) — the out-of-core path for datasets larger than
// address space, and the baseline the experiments compare against.
func OpenShardedBuffered(path string) (*ShardedFile, error) {
	return openSharded(path, false)
}

func openSharded(path string, tryMap bool) (*ShardedFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	info, refs, err := DecodeManifestFrom(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	dir := filepath.Dir(path)
	s := &ShardedFile{path: path, info: info}
	for j, ref := range refs {
		var sf shardSource
		shardPath := filepath.Join(dir, ref.Name)
		if tryMap {
			if m, err := OpenMapped(shardPath); err == nil {
				sf = m
			}
		}
		if sf == nil {
			ff, err := OpenFile(shardPath)
			if err != nil {
				s.Close()
				return nil, fmt.Errorf("%s: shard %d: %w", path, j, err)
			}
			sf = ff
		}
		si := sf.Info()
		if si.Kind != info.Kind || si.Dim != info.Dim || si.Width != info.Width || si.Rows != ref.Rows ||
			!sameObjective(si.Objective, info.Objective) {
			sf.Close()
			s.Close()
			return nil, fmt.Errorf("%s: %w: shard %d (%s) header disagrees with manifest",
				path, ErrBadFile, j, ref.Name)
		}
		s.shards = append(s.shards, sf)
		s.shardPaths = append(s.shardPaths, shardPath)
	}
	return s, nil
}

// Paths returns the manifest path followed by every shard file path —
// what a layout converter must not overwrite while reading.
func (s *ShardedFile) Paths() []string {
	return append([]string{s.path}, s.shardPaths...)
}

// sameObjective compares objective rows bit for bit.
func sameObjective(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Info returns the manifest metadata.
func (s *ShardedFile) Info() Info { return s.info }

// Width returns the numbers per row.
func (s *ShardedFile) Width() int { return s.info.Width }

// Rows returns the total row count across all shards.
func (s *ShardedFile) Rows() int { return s.info.Rows }

// NumShards returns the shard count.
func (s *ShardedFile) NumShards() int { return len(s.shards) }

// Shard returns shard j as its own source (a mapped or buffered file
// holding rows j, j+k, j+2k, … of the instance, contiguously).
func (s *ShardedFile) Shard(j int) Source {
	if f, ok := s.shards[j].(*File); ok {
		f.BlockBytes = s.shardBlockBytes()
	}
	return s.shards[j]
}

// shardBlockBytes splits the streaming block budget across shards so
// a sharded scan uses about as much buffer memory as a single-file one.
func (s *ShardedFile) shardBlockBytes() int {
	bb := s.BlockBytes
	if bb <= 0 {
		bb = DefaultBlockBytes / len(s.shards)
	}
	if bb < 4<<10 {
		bb = 4 << 10
	}
	return bb
}

// Close releases every shard's descriptors.
func (s *ShardedFile) Close() error {
	var first error
	for _, f := range s.shards {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// NewCursor returns a cursor that merges the shards back into original
// row order: row i is row i/k of shard i%k, so a round-robin walk
// across the shard cursors reproduces the single-file sequence exactly
// (the conformance suite pins sharded scans bit-identical to memory
// ones). For a parallel scan, see ParallelCursor.
func (s *ShardedFile) NewCursor() Cursor {
	k := len(s.shards)
	c := &shardedCursor{
		shards:  make([]Cursor, k),
		batches: make([][]Row, k),
		have:    make([]int, k),
		used:    make([]int, k),
		done:    make([]bool, k),
		touched: make([]bool, k),
	}
	for j := range s.shards {
		c.shards[j] = s.Shard(j).NewCursor()
		c.batches[j] = make([]Row, shardedCursorBatch)
	}
	c.active = k
	return c
}

// shardedCursorBatch is the per-shard buffered row-view count of the
// interleaving cursor.
const shardedCursorBatch = 256

// shardedCursor interleaves k shard cursors round-robin. It buffers a
// batch of row views per shard and refills a shard's batch only before
// handing out any of that shard's rows in the current Next call, so
// views stay valid exactly as the Cursor contract requires.
type shardedCursor struct {
	shards  []Cursor
	batches [][]Row
	have    []int
	used    []int
	done    []bool
	touched []bool // shard contributed a row to the current Next call
	active  int    // shards not yet exhausted
	next    int    // shard owning the next row of the merged order
}

func (c *shardedCursor) Reset() error {
	for j, sc := range c.shards {
		if err := sc.Reset(); err != nil {
			return err
		}
		c.have[j], c.used[j], c.done[j] = 0, 0, false
	}
	c.active = len(c.shards)
	c.next = 0
	return nil
}

func (c *shardedCursor) Next(batch []Row) (int, error) {
	for j := range c.touched {
		c.touched[j] = false
	}
	i := 0
	k := len(c.shards)
	for i < len(batch) && c.active > 0 {
		// Fast path: all shards live at a round boundary — emit whole
		// rounds without per-row bookkeeping.
		if c.active == k && c.next == 0 {
			q := (len(batch) - i) / k
			for j := 0; j < k; j++ {
				if avail := c.have[j] - c.used[j]; avail < q {
					q = avail
				}
			}
			if q > 0 {
				for t := 0; t < q; t++ {
					for j := 0; j < k; j++ {
						batch[i] = c.batches[j][c.used[j]]
						c.used[j]++
						i++
					}
				}
				for j := 0; j < k; j++ {
					c.touched[j] = true
				}
				continue
			}
		}
		j := c.next
		if c.done[j] {
			c.next = (j + 1) % k
			continue
		}
		if c.used[j] == c.have[j] {
			if c.touched[j] {
				// Refilling would invalidate views already placed in
				// this batch; stop here (partial batches are allowed).
				break
			}
			n, err := c.shards[j].Next(c.batches[j])
			if err != nil {
				return i, err
			}
			if n == 0 {
				c.done[j] = true
				c.active--
				c.next = (j + 1) % k
				continue
			}
			c.have[j], c.used[j] = n, 0
		}
		batch[i] = c.batches[j][c.used[j]]
		c.touched[j] = true
		c.used[j]++
		i++
		c.next = (j + 1) % k
	}
	return i, nil
}

func (c *shardedCursor) Close() error {
	for _, sc := range c.shards {
		CloseCursor(sc)
	}
	return nil
}

// ShardWriter streams rows into a sharded layout without knowing the
// row count up front: k shard files are created immediately (row
// counts patched at Finish), rows are distributed round-robin, and
// Finish writes the manifest last — a crashed writer leaves no valid
// manifest behind. It is how `lpsolve -convert -shards k` writes a
// sharded layout.
type ShardWriter struct {
	manifestPath string
	info         Info
	files        []*os.File
	bufs         []*bufio.Writer
	rowsOffs     []int64
	counts       []int
	nextShard    int
	total        int
	finished     bool
	rowBuf       []byte // one encoded row, reused across appends
}

// ShardName returns the conventional shard file name for a manifest
// path: "<base>-NNN.lds" next to the manifest.
func ShardName(manifestPath string, j int) string {
	base := strings.TrimSuffix(filepath.Base(manifestPath), filepath.Ext(manifestPath))
	return fmt.Sprintf("%s-%03d.lds", base, j)
}

// NewShardWriter creates the manifest's shard files (info.Rows is
// ignored; counts are discovered as rows arrive). Call Finish to seal
// or Abort to remove a partial layout.
func NewShardWriter(manifestPath string, info Info, shards int) (*ShardWriter, error) {
	if shards < 1 || shards > MaxShards {
		return nil, fmt.Errorf("dataset: %d shards (want 1..%d)", shards, MaxShards)
	}
	if info.Width < 1 {
		return nil, fmt.Errorf("dataset: shard writer width %d", info.Width)
	}
	if len(info.Kind) > maxKindLen {
		return nil, fmt.Errorf("dataset: kind %q too long", info.Kind)
	}
	w := &ShardWriter{manifestPath: manifestPath, info: info, rowBuf: make([]byte, 8*info.Width)}
	dir := filepath.Dir(manifestPath)
	for j := 0; j < shards; j++ {
		f, err := os.Create(filepath.Join(dir, ShardName(manifestPath, j)))
		if err != nil {
			w.Abort()
			return nil, err
		}
		// Record the shard before writing its header so Abort removes
		// it even on a mid-loop failure.
		w.files = append(w.files, f)
		w.counts = append(w.counts, 0)
		bw := bufio.NewWriter(f)
		rowsOff, err := writeHeader(bw, info, 0)
		if err != nil {
			w.Abort()
			return nil, err
		}
		w.bufs = append(w.bufs, bw)
		w.rowsOffs = append(w.rowsOffs, rowsOff)
	}
	return w, nil
}

// Rows returns the number of rows appended so far.
func (w *ShardWriter) Rows() int { return w.total }

// AppendRow appends one row to the next round-robin shard.
func (w *ShardWriter) AppendRow(row []float64) error {
	if w.finished {
		return fmt.Errorf("dataset: append to finished shard writer")
	}
	if len(row) != w.info.Width {
		return fmt.Errorf("%w: row has %d numbers, want %d", ErrWidth, len(row), w.info.Width)
	}
	j := w.nextShard
	// One encode + one write per row: this is the conversion hot path,
	// so rows are not fed to the writer a float at a time.
	for i, v := range row {
		binary.LittleEndian.PutUint64(w.rowBuf[8*i:], math.Float64bits(v))
	}
	if _, err := w.bufs[j].Write(w.rowBuf); err != nil {
		return err
	}
	w.counts[j]++
	w.total++
	w.nextShard = (j + 1) % len(w.files)
	return nil
}

// AppendSource streams every row of src into the writer.
func (w *ShardWriter) AppendSource(src Source) error {
	if src.Width() != w.info.Width {
		return fmt.Errorf("%w: source width %d, writer width %d", ErrWidth, src.Width(), w.info.Width)
	}
	cur := src.NewCursor()
	defer CloseCursor(cur)
	batch := make([]Row, DefaultBatchRows)
	for {
		n, err := cur.Next(batch)
		if err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
		for _, row := range batch[:n] {
			if err := w.AppendRow(row); err != nil {
				return err
			}
		}
	}
}

// Finish flushes and closes the shard files, patches their row counts,
// and writes the manifest. The writer is unusable afterwards.
func (w *ShardWriter) Finish() error {
	if w.finished {
		return fmt.Errorf("dataset: shard writer already finished")
	}
	w.finished = true
	fail := func(err error) error {
		for _, f := range w.files {
			f.Close()
		}
		w.files = nil
		w.removeFiles()
		return err
	}
	refs := make([]ShardRef, len(w.files))
	var scratch [8]byte
	for j, f := range w.files {
		if err := w.bufs[j].Flush(); err != nil {
			return fail(err)
		}
		binary.LittleEndian.PutUint64(scratch[:], uint64(w.counts[j]))
		if _, err := f.WriteAt(scratch[:], w.rowsOffs[j]); err != nil {
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		refs[j] = ShardRef{Name: ShardName(w.manifestPath, j), Rows: w.counts[j]}
	}
	w.files = nil
	info := w.info
	info.Rows = w.total
	mf, err := os.Create(w.manifestPath)
	if err != nil {
		return fail(err)
	}
	if err := EncodeManifestTo(mf, info, refs); err != nil {
		mf.Close()
		return fail(err)
	}
	return mf.Close()
}

// Abort closes and removes everything the writer created (including
// the manifest, if Finish already wrote one). Safe to call repeatedly.
func (w *ShardWriter) Abort() {
	w.finished = true
	for _, f := range w.files {
		f.Close()
	}
	w.files = nil
	w.removeFiles()
}

// removeFiles deletes the layout's files from disk.
func (w *ShardWriter) removeFiles() {
	dir := filepath.Dir(w.manifestPath)
	for j := range w.counts {
		os.Remove(filepath.Join(dir, ShardName(w.manifestPath, j)))
	}
	os.Remove(w.manifestPath)
}

// WriteShardedFile writes src as an LDSETM manifest at path plus
// `shards` LDSET1 shard files next to it (round-robin row assignment).
func WriteShardedFile(path string, info Info, src Source, shards int) error {
	if src.Width() != info.Width {
		return fmt.Errorf("dataset: encode width %d, source width %d", info.Width, src.Width())
	}
	w, err := NewShardWriter(path, info, shards)
	if err != nil {
		return err
	}
	if err := w.AppendSource(src); err != nil {
		w.Abort()
		return err
	}
	return w.Finish()
}

// interface conformance
var (
	_ Source      = (*ShardedFile)(nil)
	_ Sharded     = (*ShardedFile)(nil)
	_ RowReaderAt = (*File)(nil)
)
