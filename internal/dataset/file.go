// File-backed datasets: the out-of-core source. The format is a small
// self-describing header followed by the raw little-endian row arena,
// so a file can be memory-streamed in fixed-size blocks without any
// per-row decode:
//
//	offset  size        field
//	0       6           magic "LDSET1"
//	6       2           kind length (uint16 LE)
//	8       k           kind name (engine registry kind, e.g. "meb")
//	·       4           dim (uint32 LE)   — ambient dimension d
//	·       4           width (uint32 LE) — numbers per row
//	·       4           objective length (uint32 LE; 0 for kinds without)
//	·       8·len       objective coefficients (float64 LE)
//	·       8           rows (uint64 LE)
//	·       0–7         zero padding to the next 8-byte boundary
//	·       8·rows·width  row payload (float64 LE, rows back to back)
//
// Everything after the header is exactly a Store arena, so writing is
// one buffered copy and reading streams blocks straight into reusable
// float buffers. The padding pins the payload to an 8-byte boundary,
// which is what lets the mmap source (mmap.go) reinterpret the mapped
// payload as a []float64 without copying a byte.
package dataset

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
)

var fileMagic = [6]byte{'L', 'D', 'S', 'E', 'T', '1'}

// ErrBadFile reports a malformed dataset file.
var ErrBadFile = errors.New("dataset: bad dataset file")

// Header-field sanity caps: a corrupt or adversarial header must not
// drive allocation before the payload proves the sizes real.
const (
	maxKindLen  = 255
	maxFileDim  = 1 << 16
	maxObjLen   = 1 << 16
	maxRowWidth = 1 << 20
)

// Info is the self-describing part of a dataset file: enough to route
// the payload through the engine registry with no side channel.
type Info struct {
	// Kind is the registry kind name ("lp", "svm", "meb", "sea", …).
	Kind string
	// Dim is the ambient dimension d.
	Dim int
	// Width is the numbers-per-row of the payload.
	Width int
	// Objective is the objective row for kinds that carry one (lp).
	Objective []float64
	// Rows is the payload row count.
	Rows int
}

// headerLen returns the byte length of a header with the given kind
// and objective lengths, before padding.
func headerLen(kindLen, objLen int) int64 {
	return int64(6 + 2 + kindLen + 4 + 4 + 4 + 8*objLen + 8)
}

// headerPad returns the number of zero bytes that pad a header of the
// given unpadded length to the next 8-byte boundary.
func headerPad(unpadded int64) int64 { return (8 - unpadded%8) % 8 }

// FileSize returns the exact on-disk byte length of the LDSET1 form
// of a dataset with this metadata — header, padding and payload.
func FileSize(info Info) int64 {
	unpadded := headerLen(len(info.Kind), len(info.Objective))
	return unpadded + headerPad(unpadded) + 8*int64(info.Rows)*int64(info.Width)
}

// encodeInfoPrefix writes the Info fields both binary formats share —
// kind, dim, width, objective, row count — to bw. LDSET1 follows it
// with padding and the payload; LDSETM with the shard table.
func encodeInfoPrefix(bw *bufio.Writer, info Info) error {
	if len(info.Kind) > maxKindLen {
		return fmt.Errorf("dataset: kind %q too long", info.Kind)
	}
	var scratch [8]byte
	putU16 := func(v uint16) { binary.LittleEndian.PutUint16(scratch[:2], v); bw.Write(scratch[:2]) }
	putU32 := func(v uint32) { binary.LittleEndian.PutUint32(scratch[:4], v); bw.Write(scratch[:4]) }
	putU64 := func(v uint64) { binary.LittleEndian.PutUint64(scratch[:8], v); bw.Write(scratch[:8]) }
	putU16(uint16(len(info.Kind)))
	bw.WriteString(info.Kind)
	putU32(uint32(info.Dim))
	putU32(uint32(info.Width))
	putU32(uint32(len(info.Objective)))
	for _, v := range info.Objective {
		putU64(math.Float64bits(v))
	}
	putU64(uint64(info.Rows))
	return nil
}

// decodeInfoPrefix is encodeInfoPrefix's inverse, shared by the file
// header and manifest decoders: every length is capped before it
// drives an allocation, so the two formats can never drift on their
// sanity rules. read must fill its argument fully or return an error.
func decodeInfoPrefix(read func([]byte) error) (Info, error) {
	var info Info
	var b8 [8]byte
	if err := read(b8[:2]); err != nil {
		return info, fmt.Errorf("%w: truncated header", ErrBadFile)
	}
	kindLen := int(binary.LittleEndian.Uint16(b8[:2]))
	if kindLen > maxKindLen {
		return info, fmt.Errorf("%w: kind length %d", ErrBadFile, kindLen)
	}
	kind := make([]byte, kindLen)
	if err := read(kind); err != nil {
		return info, fmt.Errorf("%w: truncated kind", ErrBadFile)
	}
	info.Kind = string(kind)
	if err := read(b8[:4]); err != nil {
		return info, fmt.Errorf("%w: truncated header", ErrBadFile)
	}
	info.Dim = int(binary.LittleEndian.Uint32(b8[:4]))
	if err := read(b8[:4]); err != nil {
		return info, fmt.Errorf("%w: truncated header", ErrBadFile)
	}
	info.Width = int(binary.LittleEndian.Uint32(b8[:4]))
	if info.Width < 1 || info.Width > maxRowWidth || info.Dim < 0 || info.Dim > maxFileDim {
		return info, fmt.Errorf("%w: width %d / dim %d out of range", ErrBadFile, info.Width, info.Dim)
	}
	if err := read(b8[:4]); err != nil {
		return info, fmt.Errorf("%w: truncated header", ErrBadFile)
	}
	objLen := int(binary.LittleEndian.Uint32(b8[:4]))
	if objLen > maxObjLen {
		return info, fmt.Errorf("%w: objective length %d", ErrBadFile, objLen)
	}
	if objLen > 0 {
		info.Objective = make([]float64, objLen)
		for i := range info.Objective {
			if err := read(b8[:]); err != nil {
				return info, fmt.Errorf("%w: truncated objective", ErrBadFile)
			}
			info.Objective[i] = math.Float64frombits(binary.LittleEndian.Uint64(b8[:]))
		}
	}
	if err := read(b8[:]); err != nil {
		return info, fmt.Errorf("%w: truncated header", ErrBadFile)
	}
	rows := binary.LittleEndian.Uint64(b8[:])
	if rows > math.MaxInt64/8/uint64(info.Width) {
		return info, fmt.Errorf("%w: row count %d", ErrBadFile, rows)
	}
	info.Rows = int(rows)
	return info, nil
}

// writeHeader writes the header for info (with the given row count) to
// bw, returning the byte offset of the rows field — writers that learn
// the row count late (ShardWriter) patch it there.
func writeHeader(bw *bufio.Writer, info Info, rows int) (rowsOff int64, err error) {
	bw.Write(fileMagic[:])
	info.Rows = rows
	if err := encodeInfoPrefix(bw, info); err != nil {
		return 0, err
	}
	unpadded := headerLen(len(info.Kind), len(info.Objective))
	rowsOff = unpadded - 8
	for i := int64(0); i < headerPad(unpadded); i++ {
		bw.WriteByte(0)
	}
	return rowsOff, nil
}

// EncodeTo writes the dataset file form of src with the given metadata
// to w.
func EncodeTo(w io.Writer, info Info, src Source) error {
	if src.Width() != info.Width {
		return fmt.Errorf("dataset: encode width %d, source width %d", info.Width, src.Width())
	}
	bw := bufio.NewWriter(w)
	if _, err := writeHeader(bw, info, src.Rows()); err != nil {
		return err
	}
	var scratch [8]byte
	putU64 := func(v uint64) { binary.LittleEndian.PutUint64(scratch[:8], v); bw.Write(scratch[:8]) }
	cur := src.NewCursor()
	defer CloseCursor(cur)
	batch := make([]Row, DefaultBatchRows)
	for {
		n, err := cur.Next(batch)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
		for _, row := range batch[:n] {
			for _, v := range row {
				putU64(math.Float64bits(v))
			}
		}
	}
	return bw.Flush()
}

// WriteFile writes src as a dataset file at path (atomically enough
// for our purposes: create/truncate, write, close).
func WriteFile(path string, info Info, src Source) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := EncodeTo(f, info, src); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// decodeHeader parses the header from r, returning the info and the
// number of header bytes consumed.
func decodeHeader(r io.Reader) (Info, int64, error) {
	var off int64
	read := func(b []byte) error {
		n, err := io.ReadFull(r, b)
		off += int64(n)
		return err
	}
	var magic [6]byte
	if err := read(magic[:]); err != nil || magic != fileMagic {
		return Info{}, off, fmt.Errorf("%w: bad magic", ErrBadFile)
	}
	info, err := decodeInfoPrefix(read)
	if err != nil {
		return info, off, err
	}
	var b8 [8]byte
	pad := headerPad(off)
	if pad > 0 {
		if err := read(b8[:pad]); err != nil {
			return info, off, fmt.Errorf("%w: truncated header padding", ErrBadFile)
		}
		for _, b := range b8[:pad] {
			if b != 0 {
				return info, off, fmt.Errorf("%w: nonzero header padding", ErrBadFile)
			}
		}
	}
	return info, off, nil
}

// DecodeFrom reads a whole dataset file from r into memory, returning
// its metadata and a columnar store of the payload. For sources larger
// than memory use OpenFile, which streams.
func DecodeFrom(r io.Reader) (Info, *Store, error) {
	info, st, _, err := decodeFrom(r)
	return info, st, err
}

// DecodeFromStrict is DecodeFrom for streams that must contain exactly
// one dataset block: any byte after the declared payload is an error
// instead of being silently ignored (lpserved's binary appends use
// this so a client that concatenates blocks cannot lose rows to a 200).
func DecodeFromStrict(r io.Reader) (Info, *Store, error) {
	info, st, br, err := decodeFrom(r)
	if err != nil {
		return info, st, err
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return info, nil, fmt.Errorf("%w: trailing bytes after the %d-row payload", ErrBadFile, info.Rows)
	}
	return info, st, nil
}

// decodeFrom is the shared body: it also returns the payload reader so
// DecodeFromStrict can probe for trailing bytes.
func decodeFrom(r io.Reader) (Info, *Store, *bufio.Reader, error) {
	info, _, err := decodeHeader(r)
	if err != nil {
		return info, nil, nil, err
	}
	st := NewStore(info.Width)
	br := bufio.NewReader(r)
	var b8 [8]byte
	// Reserve a capped initial capacity (a forged row count must not
	// force a huge allocation before the payload backs it up) and let
	// append's geometric growth take it from there — per-step exact
	// sizing would re-copy the whole arena on every step.
	const maxPreallocValues = 1 << 16
	pre := info.Rows
	if pre > maxPreallocValues/info.Width {
		pre = maxPreallocValues/info.Width + 1
	}
	st.Grow(pre)
	for got := 0; got < info.Rows; got++ {
		for j := 0; j < info.Width; j++ {
			if _, err := io.ReadFull(br, b8[:]); err != nil {
				return info, nil, br, fmt.Errorf("%w: truncated payload at row %d", ErrBadFile, got)
			}
			st.data = append(st.data, math.Float64frombits(binary.LittleEndian.Uint64(b8[:])))
		}
	}
	return info, st, br, nil
}

// File is a file-backed Source: the header is parsed once at Open;
// each cursor owns its own descriptor and streams the payload in
// fixed-size blocks, so concurrent scans and multi-pass algorithms
// never materialize the instance.
type File struct {
	path    string
	info    Info
	dataOff int64
	// BlockBytes is the streaming block size (0 = DefaultBlockBytes).
	BlockBytes int

	// pread state for ReadRowAt: one lazily opened descriptor shared by
	// all random reads (pread is safe for concurrent use).
	prMu sync.Mutex
	prFd *os.File
}

// DefaultBlockBytes is the file cursor's read-block size.
const DefaultBlockBytes = 256 << 10

// Sniff reports whether b begins with the dataset-file magic.
func Sniff(b []byte) bool {
	return len(b) >= len(fileMagic) && [6]byte(b[:6]) == fileMagic
}

// OpenFile parses the header of the dataset file at path and verifies
// the payload size against it.
func OpenFile(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, off, err := decodeHeader(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if want := FileSize(info); st.Size() != want {
		return nil, fmt.Errorf("%s: %w: size %d, header implies %d", path, ErrBadFile, st.Size(), want)
	}
	return &File{path: path, info: info, dataOff: off}, nil
}

// Info returns the file's metadata.
func (f *File) Info() Info { return f.info }

// Width returns the numbers per row.
func (f *File) Width() int { return f.info.Width }

// Rows returns the payload row count.
func (f *File) Rows() int { return f.info.Rows }

// ReadRowAt reads row i into dst (len(dst) must be the file width) —
// the random-access hook the distributed backends use to sample a few
// constraints from a shard file without materializing it. The first
// call opens one descriptor that later calls (and concurrent ones:
// pread carries its own offset) share until Close.
func (f *File) ReadRowAt(i int, dst []float64) error {
	w := f.info.Width
	if len(dst) != w {
		return fmt.Errorf("dataset: ReadRowAt dst width %d, want %d", len(dst), w)
	}
	if i < 0 || i >= f.info.Rows {
		return fmt.Errorf("dataset: ReadRowAt row %d of %d", i, f.info.Rows)
	}
	f.prMu.Lock()
	if f.prFd == nil {
		fd, err := os.Open(f.path)
		if err != nil {
			f.prMu.Unlock()
			return err
		}
		f.prFd = fd
	}
	fd := f.prFd
	f.prMu.Unlock()
	raw := make([]byte, 8*w)
	if _, err := fd.ReadAt(raw, f.dataOff+int64(8*w)*int64(i)); err != nil {
		return fmt.Errorf("%s: %w: row %d read: %v", f.path, ErrBadFile, i, err)
	}
	for j := 0; j < w; j++ {
		dst[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:]))
	}
	return nil
}

// Close releases the descriptor ReadRowAt may have opened. Cursors own
// their descriptors separately and are unaffected.
func (f *File) Close() error {
	f.prMu.Lock()
	defer f.prMu.Unlock()
	if f.prFd == nil {
		return nil
	}
	err := f.prFd.Close()
	f.prFd = nil
	return err
}

// NewCursor returns a streaming cursor with its own descriptor and
// block buffers. The descriptor is opened lazily on the first read
// and kept for the cursor's lifetime (cursors are pass-scoped; the
// process's file-descriptor budget bounds concurrent scans).
func (f *File) NewCursor() Cursor {
	bb := f.BlockBytes
	if bb <= 0 {
		bb = DefaultBlockBytes
	}
	blockRows := bb / (8 * f.info.Width)
	if blockRows < 1 {
		blockRows = 1
	}
	return &fileCursor{
		file:      f,
		blockRows: blockRows,
		raw:       make([]byte, 8*blockRows*f.info.Width),
		vals:      make([]float64, blockRows*f.info.Width),
	}
}

// fileCursor streams the payload block by block. Row views returned by
// Next alias vals and are invalidated by the following Next/Reset.
type fileCursor struct {
	file      *File
	fd        *os.File
	blockRows int
	raw       []byte    // one block of little-endian payload
	vals      []float64 // decoded block; batch rows point in here
	have      int       // rows currently decoded in vals
	used      int       // rows of vals already handed out
	pos       int       // rows consumed from the file
}

func (c *fileCursor) Reset() error {
	c.pos, c.have, c.used = 0, 0, 0
	if c.fd == nil {
		return nil
	}
	_, err := c.fd.Seek(c.file.dataOff, io.SeekStart)
	return err
}

// Next hands out the rest of the current block, refilling at most once
// per call: refilling mid-call would invalidate the views already
// placed in this batch. Callers therefore see partial batches at block
// boundaries, which the Cursor contract allows.
func (c *fileCursor) Next(batch []Row) (int, error) {
	if c.used == c.have {
		if err := c.fill(); err != nil {
			return 0, err
		}
		if c.have == 0 {
			return 0, nil // end of pass
		}
	}
	w := c.file.info.Width
	n := c.have - c.used
	if n > len(batch) {
		n = len(batch)
	}
	for i := 0; i < n; i++ {
		lo := (c.used + i) * w
		batch[i] = c.vals[lo : lo+w : lo+w]
	}
	c.used += n
	return n, nil
}

// Close releases the cursor's descriptor. Callers that know they hold
// a file cursor (or probe with io.Closer) should Close after the last
// pass; an unclosed cursor holds one descriptor until GC.
func (c *fileCursor) Close() error {
	if c.fd == nil {
		return nil
	}
	err := c.fd.Close()
	c.fd = nil
	return err
}

// fill reads and decodes the next block into vals.
func (c *fileCursor) fill() error {
	c.used, c.have = 0, 0
	left := c.file.info.Rows - c.pos
	if left <= 0 {
		return nil
	}
	if c.fd == nil {
		fd, err := os.Open(c.file.path)
		if err != nil {
			return err
		}
		if _, err := fd.Seek(c.file.dataOff, io.SeekStart); err != nil {
			fd.Close()
			return err
		}
		c.fd = fd
	}
	rows := c.blockRows
	if rows > left {
		rows = left
	}
	w := c.file.info.Width
	raw := c.raw[:8*rows*w]
	if _, err := io.ReadFull(c.fd, raw); err != nil {
		return fmt.Errorf("%s: %w: short payload read: %v", c.file.path, ErrBadFile, err)
	}
	for i := 0; i < rows*w; i++ {
		c.vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	c.have = rows
	c.pos += rows
	return nil
}

// interface conformance
var _ Source = (*File)(nil)
