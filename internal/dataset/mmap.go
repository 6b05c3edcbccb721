//go:build unix

// The mmap read path: a dataset file's payload is already a flat
// little-endian float64 arena (8-byte aligned, thanks to the header
// padding), so on a little-endian host the mapped bytes *are* a Store
// arena — cursors and views over a hot instance are zero-copy and the
// page cache is the only buffer. See DESIGN.md §2 for the lifecycle:
// Open validates exactly like OpenFile, Close unmaps (after which
// every view and cursor taken from the Mapped is invalid), and callers
// that cannot mmap (non-unix builds, big-endian hosts) fall back to
// the buffered *File source.
package dataset

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"syscall"
	"unsafe"
)

// ErrMmapUnavailable reports that the mmap source cannot be used on
// this host or file; callers fall back to the buffered File source.
var ErrMmapUnavailable = fmt.Errorf("dataset: mmap unavailable")

// hostLittleEndian reports whether the host stores floats in the
// file's byte order, which is what makes the zero-copy cast sound.
func hostLittleEndian() bool {
	var b [2]byte
	binary.NativeEndian.PutUint16(b[:], 0x0102)
	return b[0] == 0x02
}

// Mapped is a memory-mapped dataset file: a RandomAccess source whose
// arena is the kernel page cache. It solves like an in-memory Store
// (the ram backend materializes it with zero copies; coordinator/MPC
// shard it zero-copy) while the file stays on disk.
type Mapped struct {
	path string
	info Info

	mu    sync.Mutex
	data  []byte // the whole-file mapping (nil for empty payloads)
	store *Store // arena view over the mapped payload
}

// OpenMapped maps the dataset file at path read-only. It returns
// ErrMmapUnavailable (wrapped) when the host is big-endian, or —
// defense in depth; decodeHeader's padding rule makes it unreachable
// for files it accepts — when the payload is not 8-byte aligned;
// callers should fall back to OpenFile.
func OpenMapped(path string) (*Mapped, error) {
	f, err := OpenFile(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info := f.info
	if !hostLittleEndian() {
		return nil, fmt.Errorf("%w: big-endian host", ErrMmapUnavailable)
	}
	if f.dataOff%8 != 0 {
		return nil, fmt.Errorf("%w: %s: payload at offset %d is not 8-byte aligned", ErrMmapUnavailable, path, f.dataOff)
	}
	m := &Mapped{path: path, info: info}
	n := info.Rows * info.Width
	if n == 0 {
		m.store = NewStore(info.Width)
		return m, nil
	}
	fd, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fd.Close()
	size := f.dataOff + int64(8*n)
	data, err := syscall.Mmap(int(fd.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrMmapUnavailable, path, err)
	}
	vals := unsafe.Slice((*float64)(unsafe.Pointer(&data[f.dataOff])), n)
	m.data = data
	m.store = arenaStore(info.Width, vals)
	return m, nil
}

// Info returns the file's metadata.
func (m *Mapped) Info() Info { return m.info }

// Width returns the numbers per row.
func (m *Mapped) Width() int { return m.info.Width }

// Rows returns the payload row count.
func (m *Mapped) Rows() int { return m.info.Rows }

// View returns the zero-copy view over the mapped arena (RandomAccess:
// Materialize copies nothing). Valid until Close.
func (m *Mapped) View() View { return m.store.View() }

// NewCursor returns an in-memory cursor over the mapped arena.
func (m *Mapped) NewCursor() Cursor { return m.store.NewCursor() }

// Close unmaps the file. Every View, Row and Cursor taken from the
// source is invalid afterwards — close only once all solves over the
// instance have finished. Safe to call repeatedly.
func (m *Mapped) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.data == nil {
		return nil
	}
	data := m.data
	m.data = nil
	m.store = NewStore(m.info.Width) // leave a valid, empty arena behind
	return syscall.Munmap(data)
}

// interface conformance
var (
	_ Source       = (*Mapped)(nil)
	_ RandomAccess = (*Mapped)(nil)
)
