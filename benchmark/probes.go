package main

import (
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"lowdimlp/internal/comm"
	"lowdimlp/internal/dataset"
	"lowdimlp/internal/engine"
	"lowdimlp/internal/lp"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/models"
	"lowdimlp/internal/sampling"
)

// Standalone probes: single-layer costs that no op isolates, measured
// by calling the layer's public functions directly on an lp(sphere)
// d=3 instance. Each is the median of probeReps repetitions. They run
// in the supervisor after the timed ops, while the child idles.

const probeReps = 5

// timeIt returns the median wall of probeReps calls of f in ms.
func timeIt(f func() error) (float64, error) {
	var t []float64
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		t = append(t, ms(time.Since(t0)))
	}
	return median(t), nil
}

// scanCursor drains one cursor over src and returns the rows seen.
func scanCursor(src dataset.Source) (int, error) {
	cur := src.NewCursor()
	defer dataset.CloseCursor(cur)
	if err := cur.Reset(); err != nil {
		return 0, err
	}
	batch := make([]dataset.Row, dataset.DefaultBatchRows)
	rows := 0
	for {
		n, err := cur.Next(batch)
		if err != nil {
			return rows, err
		}
		if n == 0 {
			return rows, nil
		}
		rows += n
	}
}

func fileSizes(paths ...string) float64 {
	t := 0.0
	for _, p := range paths {
		if fi, err := os.Stat(p); err == nil {
			t += float64(fi.Size())
		}
	}
	return t
}

// datasetProbes measures the dataset layer (cursors over every source
// kind, writers, opens, materialization) and engine.Columnar, over the
// files the workload's set-up wrote for li; its own files go to dir.
func datasetProbes(out map[string]float64, li *labInst, dir string) error {
	single, manifest := li.single, li.manifest
	store, err := engine.Columnar(li.model, li.inst)
	if err != nil {
		return err
	}
	rows := float64(store.Rows())
	info := dataset.Info{Kind: li.spec.Kind, Dim: li.inst.Dim, Width: store.Width(), Objective: li.inst.Objective, Rows: store.Rows()}

	cursor := func(name string, open func() (dataset.Source, error)) error {
		src, err := open()
		if err != nil {
			return err
		}
		defer dataset.CloseSource(src)
		t, err := timeIt(func() error { _, err := scanCursor(src); return err })
		out["dataset.cursor_ns_per_row."+name] = t * 1e6 / rows
		return err
	}
	steps := []func() error{
		func() error { return cursor("mem", func() (dataset.Source, error) { return store, nil }) },
		func() error {
			return cursor("file", func() (dataset.Source, error) { return dataset.OpenFile(single) })
		},
		func() error {
			return cursor("mmap", func() (dataset.Source, error) { return dataset.OpenMapped(single) })
		},
		func() error {
			return cursor("sharded", func() (dataset.Source, error) { return dataset.OpenSharded(manifest) })
		},
		func() error {
			return cursor("sharded_par", func() (dataset.Source, error) {
				sh, err := dataset.OpenSharded(manifest)
				if err != nil {
					return nil, err
				}
				return dataset.Parallel(sh), nil
			})
		},
		func() error {
			path := filepath.Join(dir, "probe-single.lds")
			t, err := timeIt(func() error { return dataset.WriteFile(path, info, store) })
			out["dataset.write_mb_per_s.single"] = ratio(fileSizes(path)/(1<<20), t/1e3)
			return err
		},
		func() error {
			path := filepath.Join(dir, "probe-sharded.ldm")
			t, err := timeIt(func() error { return dataset.WriteShardedFile(path, info, store, 4) })
			shards := []string{path}
			for j := 0; j < 4; j++ {
				shards = append(shards, filepath.Join(dir, dataset.ShardName(path, j)))
			}
			out["dataset.write_mb_per_s.sharded"] = ratio(fileSizes(shards...)/(1<<20), t/1e3)
			return err
		},
		func() (err error) {
			out["dataset.open_ms.mmap"], err = timeIt(func() error {
				m, err := dataset.OpenMapped(single)
				if err != nil {
					return err
				}
				return m.Close()
			})
			return err
		},
		func() (err error) {
			out["dataset.open_ms.sharded"], err = timeIt(func() error {
				sh, err := dataset.OpenSharded(manifest)
				if err != nil {
					return err
				}
				return sh.Close()
			})
			return err
		},
		func() (err error) {
			f, err := dataset.OpenFile(single)
			if err != nil {
				return err
			}
			defer f.Close()
			out["dataset.materialize_ms"], err = timeIt(func() error { _, err := dataset.Materialize(f); return err })
			return err
		},
		func() (err error) {
			out["engine.columnar_ms"], err = timeIt(func() error { _, err := engine.Columnar(li.model, li.inst); return err })
			return err
		},
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// lptypeProbes measures the coordinator/mpc site-local scan
// primitives (lptype.Store) over a memory view and a file source, with
// two stored bases and a pending one — the state of a mid-solve round.
func lptypeProbes(out map[string]float64, li *labInst) error {
	s := models.LP
	p, err := s.Problem(li.inst)
	if err != nil {
		return err
	}
	dim := li.inst.Dim
	dom := s.NewDomain(p, 1)
	ra := lptype.NewRowAccess(dom, func(row []float64) lp.Halfspace { return s.Item(dim, row) })
	store, err := engine.Columnar(li.model, li.inst)
	if err != nil {
		return err
	}
	rows := store.Rows()
	var bases []lp.Basis
	for k := 0; k < 3; k++ { // bases of three disjoint slices: plausible, distinct, violated by some rows
		lo, hi := k*rows/3, k*rows/3+min(2000, rows/3)
		items := make([]lp.Halfspace, 0, hi-lo)
		for i := lo; i < hi; i++ {
			items = append(items, ra.Item(store.Row(i)))
		}
		b, err := dom.Solve(items)
		if err != nil {
			return err
		}
		bases = append(bases, b)
	}
	stored, pending := bases[:2], bases[2]
	mult := math.Sqrt(float64(rows))

	view := lptype.ViewStore(ra, store.View())
	t, _ := timeIt(func() error { view.Scan(stored, &pending, mult); return nil })
	out["lptype.viewstore_scan_ns_per_row"] = t * 1e6 / float64(rows)
	w := make([]float64, rows)
	t, _ = timeIt(func() error { view.Weights(stored, mult, w); return nil })
	out["lptype.weights_ns_per_row"] = t * 1e6 / float64(rows)

	f, err := dataset.OpenFile(li.single)
	if err != nil {
		return err
	}
	defer f.Close()
	cs := lptype.SourceStore(ra, f)
	defer lptype.CloseStore(cs)
	t, _ = timeIt(func() error { cs.Scan(stored, &pending, mult); return nil })
	out["lptype.sourcestore_scan_ns_per_row"] = t * 1e6 / float64(rows)
	return nil
}

// offerNS is the cost of one sampling.RowReservoir.Offer at unit
// weight into a reservoir of m slots — the call the streaming driver
// makes twice per scanned row.
func offerNS(m, rows int) float64 {
	row := []float64{0.1, 0.2, 0.3, 0.4}
	t, _ := timeIt(func() error {
		res := sampling.NewRowReservoir(m, len(row), rand.New(rand.NewPCG(1, 2)))
		for i := 0; i < rows; i++ {
			res.Offer(row, 1)
		}
		return nil
	})
	return t * 1e6 / float64(rows)
}

func samplingProbes(out map[string]float64, rows int) {
	out["sampling.offer_ns_per_row.m4k"] = offerNS(4<<10, rows)
	out["sampling.offer_ns_per_row.m32k"] = offerNS(32<<10, rows)
}

// commProbes measures the item codec (what round-B replies are made
// of) and the frame envelope.
func commProbes(out map[string]float64, li *labInst) {
	dim := li.inst.Dim
	codec := models.LP.ItemCodec(dim)
	items := make([]lp.Halfspace, len(li.inst.Rows))
	for i, row := range li.inst.Rows {
		items[i] = models.LP.Item(dim, row)
	}
	var encoded []byte
	t, _ := timeIt(func() error {
		buf := comm.NewBuffer()
		for _, it := range items {
			comm.PutValue(buf, codec, it)
		}
		encoded = buf.Bytes()
		return nil
	})
	mb := float64(len(encoded)) / (1 << 20)
	out["comm.item_codec_mb_per_s.encode"] = ratio(mb, t/1e3)
	t, _ = timeIt(func() error {
		buf := comm.FromBytes(encoded)
		for range items {
			if _, err := comm.Value(buf, codec); err != nil {
				return err
			}
		}
		return nil
	})
	out["comm.item_codec_mb_per_s.decode"] = ratio(mb, t/1e3)

	const frames = 20000
	payload := encoded[:min(4096, len(encoded))]
	var scratch []byte
	t, _ = timeIt(func() error {
		for i := 0; i < frames; i++ {
			scratch = comm.AppendFrame(scratch[:0], comm.Frame{Type: comm.FrameRoundB, Session: 7, Seq: uint64(i), Payload: payload})
			if _, err := comm.DecodeFrameStrict(scratch); err != nil {
				return err
			}
		}
		return nil
	})
	out["comm.frame_ns_per_roundtrip"] = t * 1e6 / frames
}
