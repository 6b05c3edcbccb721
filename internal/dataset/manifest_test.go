package dataset

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// seqStore returns a store of n rows, row i = [i*width, …, i*width+width-1].
func seqStore(n, width int) *Store {
	s := NewStore(width)
	row := make([]float64, width)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = float64(i*width + j)
		}
		s.AppendRow(row)
	}
	return s
}

// drainSource reads every row of src through its cursor, copying.
func drainSource(t *testing.T, src Source) [][]float64 {
	t.Helper()
	cur := src.NewCursor()
	defer CloseCursor(cur)
	if err := cur.Reset(); err != nil {
		t.Fatal(err)
	}
	batch := make([]Row, 7) // odd batch size exercises partial fills
	var out [][]float64
	for {
		n, err := cur.Next(batch)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return out
		}
		for _, row := range batch[:n] {
			out = append(out, append([]float64(nil), row...))
		}
	}
}

func assertRowsEqual(t *testing.T, what string, want Source, got [][]float64) {
	t.Helper()
	ra, ok := want.(RandomAccess)
	if !ok {
		t.Fatalf("%s: reference is not random access", what)
	}
	v := ra.View()
	if len(got) != v.Rows() {
		t.Fatalf("%s: %d rows, want %d", what, len(got), v.Rows())
	}
	for i := range got {
		ref := v.Row(i)
		for j := range ref {
			if math.Float64bits(got[i][j]) != math.Float64bits(ref[j]) {
				t.Fatalf("%s: row %d[%d] = %v, want %v", what, i, j, got[i][j], ref[j])
			}
		}
	}
}

func TestShardedRoundTripAndOrder(t *testing.T) {
	for _, tc := range []struct{ n, width, shards int }{
		{0, 3, 2}, {1, 3, 4}, {5, 2, 4}, {100, 3, 7}, {64, 4, 8},
	} {
		st := seqStore(tc.n, tc.width)
		dir := t.TempDir()
		path := filepath.Join(dir, "x.ldm")
		info := Info{Kind: "meb", Dim: tc.width, Width: tc.width, Rows: tc.n}
		if err := WriteShardedFile(path, info, st, tc.shards); err != nil {
			t.Fatalf("n=%d k=%d: %v", tc.n, tc.shards, err)
		}
		sh, err := OpenSharded(path)
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", tc.n, tc.shards, err)
		}
		if sh.Rows() != tc.n || sh.Width() != tc.width || sh.NumShards() != tc.shards {
			t.Fatalf("n=%d k=%d: opened %d rows × %d, %d shards", tc.n, tc.shards, sh.Rows(), sh.Width(), sh.NumShards())
		}
		// Sequential interleaved cursor reproduces the original order.
		assertRowsEqual(t, "sharded cursor", st, drainSource(t, sh))
		// Each shard holds the round-robin rows, contiguously.
		for j := 0; j < tc.shards; j++ {
			shard := sh.Shard(j)
			got := drainSource(t, shard)
			if len(got) != shardRows(tc.n, tc.shards, j) {
				t.Fatalf("shard %d: %d rows", j, len(got))
			}
			for i, row := range got {
				want := st.Row(j + i*tc.shards)
				for c := range row {
					if row[c] != want[c] {
						t.Fatalf("shard %d row %d: %v, want %v", j, i, row, want)
					}
				}
			}
		}
		// Parallel cursor: same order, same bits.
		assertRowsEqual(t, "parallel cursor", st, drainSource(t, Parallel(Source(sh))))
		// Materialize (the ram path) sees the same arena.
		view, err := Materialize(sh)
		if err != nil {
			t.Fatal(err)
		}
		if view.Rows() != tc.n {
			t.Fatalf("materialized %d rows", view.Rows())
		}
		sh.Close()
	}
}

func TestShardedCursorMultiPass(t *testing.T) {
	st := seqStore(301, 3)
	path := filepath.Join(t.TempDir(), "x.ldm")
	if err := WriteShardedFile(path, Info{Kind: "meb", Dim: 3, Width: 3, Rows: 301}, st, 5); err != nil {
		t.Fatal(err)
	}
	sh, err := OpenSharded(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	for _, src := range []Source{sh, Parallel(Source(sh))} {
		cur := src.NewCursor()
		batch := make([]Row, 16)
		// Abandon a pass mid-way, then run two clean passes.
		if err := cur.Reset(); err != nil {
			t.Fatal(err)
		}
		if _, err := cur.Next(batch); err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			if err := cur.Reset(); err != nil {
				t.Fatal(err)
			}
			count := 0
			for {
				n, err := cur.Next(batch)
				if err != nil {
					t.Fatal(err)
				}
				if n == 0 {
					break
				}
				count += n
			}
			if count != 301 {
				t.Fatalf("pass %d: %d rows", pass, count)
			}
		}
		CloseCursor(cur)
	}
}

// TestParallelScanAllocations pins the steady-state allocation cost of
// a full parallel pass at zero: workers recycle their block buffers
// and the merger hands out views, so scanning allocates nothing after
// the first pass warmed the pipeline.
func TestParallelScanAllocations(t *testing.T) {
	st := seqStore(8192, 3)
	path := filepath.Join(t.TempDir(), "x.ldm")
	if err := WriteShardedFile(path, Info{Kind: "meb", Dim: 3, Width: 3, Rows: 8192}, st, 4); err != nil {
		t.Fatal(err)
	}
	for _, open := range []struct {
		name string
		fn   func(string) (*ShardedFile, error)
	}{{"mapped", OpenSharded}, {"buffered", OpenShardedBuffered}} {
		sh, err := open.fn(path)
		if err != nil {
			t.Fatal(err)
		}
		defer sh.Close()
		cur := NewParallelCursor(sh)
		defer cur.Close()
		batch := make([]Row, DefaultBatchRows)
		pass := func() {
			if err := cur.Reset(); err != nil {
				t.Fatal(err)
			}
			rows := 0
			for {
				n, err := cur.Next(batch)
				if err != nil {
					t.Fatal(err)
				}
				if n == 0 {
					break
				}
				rows += n
			}
			if rows != 8192 {
				t.Fatalf("pass saw %d rows", rows)
			}
		}
		pass() // warm the pipeline
		allocs := testing.AllocsPerRun(10, pass)
		if allocs > 0 {
			t.Fatalf("%s: parallel pass allocates %.1f times, want 0", open.name, allocs)
		}
	}
}

func TestShardWriterIncremental(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "incremental.ldm")
	info := Info{Kind: "svm", Dim: 2, Width: 3}
	w, err := NewShardWriter(path, info, 3)
	if err != nil {
		t.Fatal(err)
	}
	st := seqStore(10, 3)
	if err := w.AppendSource(st); err != nil {
		t.Fatal(err)
	}
	for _, row := range [][]float64{{100, 101, 102}, {103, 104, 105}} {
		if err := w.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	if w.Rows() != 12 {
		t.Fatalf("writer rows %d", w.Rows())
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err == nil {
		t.Fatal("double Finish accepted")
	}
	sh, err := OpenSharded(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	want := seqStore(10, 3)
	want.AppendValues([]float64{100, 101, 102, 103, 104, 105})
	assertRowsEqual(t, "incremental", want, drainSource(t, sh))
	// Random row reads through the buffered shard files.
	shb, err := OpenShardedBuffered(path)
	if err != nil {
		t.Fatal(err)
	}
	defer shb.Close()
	assertRowsEqual(t, "buffered sharded", want, drainSource(t, shb))
	buf := make([]float64, 3)
	f, ok := shb.Shard(1).(*File)
	if !ok {
		t.Fatalf("buffered shard is %T, want *File", shb.Shard(1))
	}
	if err := f.ReadRowAt(2, buf); err != nil { // global row 1+2*3 = 7
		t.Fatal(err)
	}
	if buf[0] != 21 {
		t.Fatalf("ReadRowAt: %v", buf)
	}
	if err := f.ReadRowAt(99, buf); err == nil {
		t.Fatal("out-of-range ReadRowAt accepted")
	}
}

func TestShardWriterAbort(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gone.ldm")
	w, err := NewShardWriter(path, Info{Kind: "meb", Dim: 2, Width: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendRow([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	w.Abort()
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("abort left %d files behind", len(left))
	}
	if err := w.AppendRow([]float64{1, 2}); err == nil {
		t.Fatal("append after Abort accepted")
	}
}

func TestOpenShardedRejectsCorruption(t *testing.T) {
	st := seqStore(20, 2)
	dir := t.TempDir()
	path := filepath.Join(dir, "x.ldm")
	info := Info{Kind: "meb", Dim: 2, Width: 2, Rows: 20}
	if err := WriteShardedFile(path, info, st, 3); err != nil {
		t.Fatal(err)
	}
	// A missing shard file.
	if err := os.Remove(filepath.Join(dir, ShardName(path, 1))); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSharded(path); err == nil {
		t.Fatal("missing shard accepted")
	}
	// A shard with the wrong header (kind drift).
	if err := WriteShardedFile(path, info, st, 3); err != nil {
		t.Fatal(err)
	}
	wrong := NewStore(2)
	for i := 0; i < shardRows(20, 3, 1); i++ {
		wrong.AppendRow([]float64{1, 2})
	}
	if err := WriteFile(filepath.Join(dir, ShardName(path, 1)),
		Info{Kind: "sea", Dim: 2, Width: 2, Rows: wrong.Rows()}, wrong); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSharded(path); err == nil {
		t.Fatal("kind-drifted shard accepted")
	}
	// Manifest truncation.
	if err := WriteShardedFile(path, info, st, 3); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSharded(path); !errors.Is(err, ErrBadFile) {
		t.Fatalf("truncated manifest: %v", err)
	}
	// Bad magic.
	raw[0] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSharded(path); !errors.Is(err, ErrBadFile) {
		t.Fatalf("bad magic: %v", err)
	}
}

func TestManifestRejectsTraversalNames(t *testing.T) {
	var buf bytes.Buffer
	info := Info{Kind: "meb", Dim: 2, Width: 2, Rows: 2}
	err := EncodeManifestTo(&buf, info, []ShardRef{
		{Name: "../evil.lds", Rows: 1}, {Name: "ok.lds", Rows: 1},
	})
	if err == nil {
		t.Fatal("traversal shard name accepted by encoder")
	}
	err = EncodeManifestTo(&buf, info, []ShardRef{
		{Name: "a/b.lds", Rows: 1}, {Name: "ok.lds", Rows: 1},
	})
	if err == nil {
		t.Fatal("separator shard name accepted by encoder")
	}
}

func TestSniffAny(t *testing.T) {
	dir := t.TempDir()
	st := seqStore(4, 2)
	single := filepath.Join(dir, "a.lds")
	if err := WriteFile(single, Info{Kind: "meb", Dim: 2, Width: 2, Rows: 4}, st); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, "a.ldm")
	if err := WriteShardedFile(manifest, Info{Kind: "meb", Dim: 2, Width: 2, Rows: 4}, st, 2); err != nil {
		t.Fatal(err)
	}
	text := filepath.Join(dir, "a.txt")
	if err := os.WriteFile(text, []byte("meb 2\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if !SniffAnyFile(single) || !SniffAnyFile(manifest) || SniffAnyFile(text) {
		t.Fatal("sniff misroutes")
	}
	if SniffManifestFile(single) || !SniffManifestFile(manifest) {
		t.Fatal("manifest sniff misroutes")
	}
}

// FuzzManifestRoundTrip feeds arbitrary bytes to the manifest decoder:
// it must never panic or over-allocate, and every successfully decoded
// manifest must re-encode to an identical decode.
func FuzzManifestRoundTrip(f *testing.F) {
	seed := func(info Info, refs []ShardRef) []byte {
		var buf bytes.Buffer
		if err := EncodeManifestTo(&buf, info, refs); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(seed(Info{Kind: "meb", Dim: 2, Width: 2, Rows: 5},
		[]ShardRef{{Name: "x-000.lds", Rows: 3}, {Name: "x-001.lds", Rows: 2}}))
	f.Add(seed(Info{Kind: "lp", Dim: 1, Width: 2, Objective: []float64{1}, Rows: 0},
		[]ShardRef{{Name: "only.lds", Rows: 0}}))
	f.Add([]byte("LDSETM"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		info, refs, err := DecodeManifestFrom(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := EncodeManifestTo(&buf, info, refs); err != nil {
			t.Fatalf("re-encode of decoded manifest failed: %v", err)
		}
		info2, refs2, err := DecodeManifestFrom(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if info2.Kind != info.Kind || info2.Dim != info.Dim || info2.Width != info.Width ||
			info2.Rows != info.Rows || len(info2.Objective) != len(info.Objective) || len(refs2) != len(refs) {
			t.Fatalf("manifest drift: %+v/%d → %+v/%d", info, len(refs), info2, len(refs2))
		}
		for i := range info.Objective {
			if math.Float64bits(info.Objective[i]) != math.Float64bits(info2.Objective[i]) {
				t.Fatalf("objective drift at %d", i)
			}
		}
		for i := range refs {
			if refs[i] != refs2[i] {
				t.Fatalf("shard ref drift at %d: %+v → %+v", i, refs[i], refs2[i])
			}
		}
	})
}

func TestMappedMatchesFile(t *testing.T) {
	st := seqStore(500, 3)
	path := filepath.Join(t.TempDir(), "m.lds")
	info := Info{Kind: "lp", Dim: 2, Width: 3, Objective: []float64{1, -1}, Rows: 500}
	if err := WriteFile(path, info, st); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Skipf("mmap unavailable: %v", err)
	}
	defer m.Close()
	if m.Rows() != 500 || m.Width() != 3 {
		t.Fatalf("mapped %d×%d", m.Rows(), m.Width())
	}
	if !sameObjective(m.Info().Objective, info.Objective) {
		t.Fatalf("mapped objective %v", m.Info().Objective)
	}
	assertRowsEqual(t, "mapped cursor", st, drainSource(t, m))
	// Zero-copy random access through the view.
	v := m.View()
	if v.Row(123)[1] != st.Row(123)[1] {
		t.Fatal("mapped view row drift")
	}
	// Close twice is fine; views die with the mapping.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMappedEmptyPayload(t *testing.T) {
	st := NewStore(3)
	path := filepath.Join(t.TempDir(), "e.lds")
	if err := WriteFile(path, Info{Kind: "lp", Dim: 2, Width: 3, Objective: []float64{0, 0}}, st); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Skipf("mmap unavailable: %v", err)
	}
	defer m.Close()
	if m.Rows() != 0 {
		t.Fatalf("mapped %d rows", m.Rows())
	}
	if got := drainSource(t, m); len(got) != 0 {
		t.Fatalf("empty mapped yielded %d rows", len(got))
	}
}

func TestDecodeFromStrictRejectsTrailing(t *testing.T) {
	st := seqStore(3, 2)
	var buf bytes.Buffer
	if err := EncodeTo(&buf, Info{Kind: "meb", Dim: 2, Width: 2, Rows: 3}, st); err != nil {
		t.Fatal(err)
	}
	one := append([]byte(nil), buf.Bytes()...)
	if _, _, err := DecodeFromStrict(bytes.NewReader(one)); err != nil {
		t.Fatalf("single block rejected: %v", err)
	}
	if _, _, err := DecodeFromStrict(bytes.NewReader(append(one, one...))); !errors.Is(err, ErrBadFile) {
		t.Fatalf("concatenated blocks: %v", err)
	}
	if _, _, err := DecodeFromStrict(bytes.NewReader(append(one, 0))); !errors.Is(err, ErrBadFile) {
		t.Fatalf("single trailing byte: %v", err)
	}
	// Plain DecodeFrom keeps its lenient contract (readers that carry
	// more than one block slice it themselves).
	if _, _, err := DecodeFrom(bytes.NewReader(append(one, one...))); err != nil {
		t.Fatalf("lenient decode: %v", err)
	}
}
