package engine

import (
	"errors"
	"fmt"
	"path/filepath"

	"lowdimlp/internal/dataset"
)

// This file bridges the registry and the columnar dataset layer:
// every registered kind gets in-memory columnar and file-backed
// binary sources for free — the Spec's Width/Item/Check row codec is
// reused as the dataset codec, so there is nothing per-kind to write.

// Columnar converts a flat instance's rows into a columnar store,
// running CheckRow on each row on the way in (SolveSource trusts its
// input, so ingestion is where rows are checked).
func Columnar(m Model, inst Instance) (*dataset.Store, error) {
	if inst.Dim < 1 {
		return nil, fmt.Errorf("%s: dim must be ≥ 1, got %d", m.Kind(), inst.Dim)
	}
	st := dataset.NewStore(m.RowWidth(inst.Dim))
	st.Grow(len(inst.Rows))
	for i, row := range inst.Rows {
		if err := m.CheckRow(inst.Dim, row); err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
		st.AppendRow(row)
	}
	return st, nil
}

// checkedStore is what both dataset writers write: inst's objective
// and rows after the ingestion checks, and the header naming them. A
// writer never writes a file its own reader would refuse.
func checkedStore(kind string, inst Instance) (dataset.Info, *dataset.Store, error) {
	m, err := lookup(kind)
	if err != nil {
		return dataset.Info{}, nil, err
	}
	if err := CheckObjective(m, inst.Dim, inst.Objective); err != nil {
		return dataset.Info{}, nil, err
	}
	st, err := Columnar(m, inst)
	if err != nil {
		return dataset.Info{}, nil, err
	}
	return dataset.Info{
		Kind:      m.Kind(),
		Dim:       inst.Dim,
		Width:     st.Width(),
		Objective: inst.Objective,
		Rows:      st.Rows(),
	}, st, nil
}

// WriteDatasetFile writes inst as a self-describing binary dataset
// file (internal/dataset file format) for the given kind.
func WriteDatasetFile(path, kind string, inst Instance) error {
	info, st, err := checkedStore(kind, inst)
	if err != nil {
		return err
	}
	return dataset.WriteFile(path, info, st)
}

// OpenDatasetFile opens a binary dataset file, resolves its kind in
// the registry, and checks the objective and every row with one
// streaming pass — files come from arbitrary paths, so they get the
// same ingestion checks as JSON uploads, without being materialized.
func OpenDatasetFile(path string) (Model, *dataset.File, error) {
	f, err := dataset.OpenFile(path)
	if err != nil {
		return nil, nil, err
	}
	m, err := checkDataset(path, f.Info(), f)
	if err != nil {
		return nil, nil, err
	}
	return m, f, nil
}

// checkDataset applies the ingestion checks to an opened dataset
// source: registry kind, CheckObjective, and ValidateSource's pass
// over the rows.
func checkDataset(path string, info dataset.Info, src dataset.Source) (Model, error) {
	m, err := lookup(info.Kind)
	if err == nil {
		err = CheckObjective(m, info.Dim, info.Objective)
	}
	if err == nil {
		err = ValidateSource(m, info.Dim, src)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// OpenDatasetSource opens a dataset path of either layout and returns
// the best source for it: an LDSETM manifest becomes a ShardedFile
// (per-shard cursors, parallel scans, direct shard→site mapping), and
// a single LDSET1 file is memory-mapped when the host allows (zero-
// copy cursors off the page cache), falling back to the buffered
// streaming File otherwise. The source holds descriptors and possibly
// a mapping: release it with dataset.CloseSource once solving is done.
// Validation is identical across layouts.
func OpenDatasetSource(path string) (Model, dataset.Info, dataset.Source, error) {
	if dataset.SniffManifestFile(path) {
		sh, err := dataset.OpenSharded(path)
		if err != nil {
			return nil, dataset.Info{}, nil, err
		}
		m, err := checkDataset(path, sh.Info(), sh)
		if err != nil {
			sh.Close()
			return nil, dataset.Info{}, nil, err
		}
		return m, sh.Info(), sh, nil
	}
	if mm, err := dataset.OpenMapped(path); err == nil {
		m, cerr := checkDataset(path, mm.Info(), mm)
		if cerr != nil {
			mm.Close()
			return nil, dataset.Info{}, nil, cerr
		}
		return m, mm.Info(), mm, nil
	} else if !errors.Is(err, dataset.ErrMmapUnavailable) {
		return nil, dataset.Info{}, nil, err
	}
	m, f, err := OpenDatasetFile(path)
	if err != nil {
		return nil, dataset.Info{}, nil, err
	}
	return m, f.Info(), f, nil
}

// ValidateSource runs CheckRow on every row of src in one cursor pass:
// the row check for input that arrives columnar — dataset files,
// manifests, worker shards and binary chunk uploads. It rejects at the
// same row, with the same error, as Columnar over the same rows.
func ValidateSource(m Model, dim int, src dataset.Source) error {
	cur := src.NewCursor()
	defer dataset.CloseCursor(cur)
	batch := make([]dataset.Row, dataset.DefaultBatchRows)
	i := 0
	for {
		n, err := cur.Next(batch)
		if err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
		for _, row := range batch[:n] {
			if err := m.CheckRow(dim, row); err != nil {
				return fmt.Errorf("row %d: %w", i, err)
			}
			i++
		}
	}
}

// SolveDatasetFile opens a dataset path (single file or sharded
// manifest) and solves it on the named backend — the one-call
// out-of-core entry point (streaming never materializes the file; a
// sharded manifest maps straight onto coordinator sites and parallel
// scans).
func SolveDatasetFile(path, backend string, opt Options) (Solution, Stats, error) {
	m, info, src, err := OpenDatasetSource(path)
	if err != nil {
		return Solution{}, Stats{}, err
	}
	defer dataset.CloseSource(src)
	return m.SolveSource(backend, info.Dim, info.Objective, src, opt)
}

// WriteShardedDatasetFile writes inst as an LDSETM manifest at path
// plus round-robin LDSET1 shard files next to it.
func WriteShardedDatasetFile(path, kind string, inst Instance, shards int) error {
	info, st, err := checkedStore(kind, inst)
	if err != nil {
		return err
	}
	return dataset.WriteShardedFile(path, info, st, shards)
}

// ConvertDatasetLayout rewrites the dataset at inPath (either layout)
// as a single LDSET1 file (shards ≤ 1) or an LDSETM manifest with the
// given shard count at outPath — lpsolve's split/merge. The input is
// fully validated (it may come from anywhere); rows stream straight
// from the source cursor to the writer. Output paths that collide
// with the open input (including its shard files, and the shard files
// the output would generate) are rejected: the writer would truncate
// what the reader is still streaming — or mmap-reading — from.
func ConvertDatasetLayout(inPath, outPath string, shards int) (dataset.Info, error) {
	_, info, src, err := OpenDatasetSource(inPath)
	if err != nil {
		return dataset.Info{}, err
	}
	defer dataset.CloseSource(src)
	inPaths := map[string]bool{canonPath(inPath): true}
	if sh, ok := src.(*dataset.ShardedFile); ok {
		for _, p := range sh.Paths() {
			inPaths[canonPath(p)] = true
		}
	}
	outPaths := []string{outPath}
	if shards > 1 {
		dir := filepath.Dir(outPath)
		for j := 0; j < shards; j++ {
			outPaths = append(outPaths, filepath.Join(dir, dataset.ShardName(outPath, j)))
		}
	}
	for _, p := range outPaths {
		if inPaths[canonPath(p)] {
			return dataset.Info{}, fmt.Errorf("convert would overwrite its own input %s; choose a different output path", p)
		}
	}
	if shards <= 1 {
		return info, dataset.WriteFile(outPath, info, src)
	}
	return info, dataset.WriteShardedFile(outPath, info, src, shards)
}

// canonPath normalizes a path for the self-overwrite check (absolute
// and cleaned; symlink games are out of scope for a local CLI guard).
func canonPath(p string) string {
	if abs, err := filepath.Abs(p); err == nil {
		return abs
	}
	return filepath.Clean(p)
}

// IsDatasetFile reports whether path starts with either binary dataset
// magic (single-file or sharded manifest) — the sniff CLIs use to
// route a file argument to the dataset reader instead of the text
// parser.
func IsDatasetFile(path string) bool { return dataset.SniffAnyFile(path) }

// lookup resolves a kind or reports the catalog.
func lookup(kind string) (Model, error) {
	m, ok := Lookup(kind)
	if !ok {
		return nil, fmt.Errorf("unknown kind %q (registered: %v)", kind, Kinds())
	}
	return m, nil
}
