package stream_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"lowdimlp/internal/comm"
	"lowdimlp/internal/core"
	"lowdimlp/internal/dataset"
	"lowdimlp/internal/lp"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/meb"
	"lowdimlp/internal/models"
	"lowdimlp/internal/numeric"
	"lowdimlp/internal/sea"
	"lowdimlp/internal/stream"
)

// streamGoldenRow is one recorded stream.SolveDataset run: every Stats
// field (compared with ==, so Passes, ItemsScanned, StoredBases and
// PeakSpaceBits too, with bit accounting on), an FNV hash of the
// rendered basis (the basis codec's bytes, then each basis constraint
// through the item codec) and the error text.
type streamGoldenRow struct {
	stats stream.Stats
	basis uint64
	err   string
}

func streamGoldenHash[C, B any](dom lptype.Domain[C, B], cc comm.Codec[C], bc comm.Codec[B], b B) uint64 {
	buf := bc.Append(nil, b)
	for _, c := range dom.Basis(b) {
		buf = cc.Append(buf, c)
	}
	h := fnv.New64a()
	h.Write(buf)
	return h.Sum64()
}

func streamGoldenSolve[C, B any](dom lptype.Domain[C, B], decode func([]float64) C, st *dataset.Store,
	cc comm.Codec[C], bc comm.Codec[B], copt core.Options) streamGoldenRow {
	var zc C
	var zb B
	opt := stream.Options{Core: copt, BitsPerItem: cc.Bits(zc), BitsPerBasis: bc.Bits(zb)}
	b, stats, err := stream.SolveDataset(lptype.NewRowAccess(dom, decode), st, opt)
	row := streamGoldenRow{stats: stats}
	if err != nil {
		row.err = err.Error()
	} else {
		row.basis = streamGoldenHash(dom, cc, bc, b)
	}
	return row
}

const streamGoldenN = 20000

func streamGoldenRun(kind string, r int, opt core.Options) streamGoldenRow {
	const d = 2
	switch kind {
	case "lp":
		rng := numeric.NewRand(900+uint64(r), 0xc0de)
		obj := []float64{rng.NormFloat64(), rng.NormFloat64()}
		st := dataset.NewStore(d + 1)
		for i := 0; i < streamGoldenN; i++ {
			a := []float64{rng.NormFloat64(), rng.NormFloat64()}
			nrm := numeric.Norm2(a)
			st.AppendRow([]float64{a[0] / nrm, a[1] / nrm, 1})
		}
		return streamGoldenSolve[lp.Halfspace, lp.Basis](lp.NewDomain(lp.NewProblem(obj), 7),
			func(row []float64) lp.Halfspace { return lp.Halfspace{A: row[:d], B: row[d]} }, st,
			models.LP.ItemCodec(d), lp.BasisCodec{Dim: d}, opt)
	case "meb":
		return streamGoldenSolve[meb.Point, meb.Basis](meb.NewDomain(d),
			func(row []float64) meb.Point { return meb.Point(row) }, streamGoldenGaussian(700+uint64(r)),
			models.MEB.ItemCodec(d), meb.BasisCodec{Dim: d}, opt)
	case "sea":
		return streamGoldenSolve[sea.Point, sea.Basis](sea.NewDomain(d, 5),
			func(row []float64) sea.Point { return sea.Point(row) }, streamGoldenGaussian(500+uint64(r)),
			sea.Spec.ItemCodec(d), sea.BasisCodec{Dim: d}, opt)
	}
	panic("streamGoldenRun: unknown kind")
}

// streamGoldenGaussian returns a store of standard-normal points in the
// plane.
func streamGoldenGaussian(seed uint64) *dataset.Store {
	rng := numeric.NewRand(seed, 3)
	st := dataset.NewStore(2)
	for i := 0; i < streamGoldenN; i++ {
		st.AppendRow([]float64{rng.NormFloat64(), rng.NormFloat64()})
	}
	return st
}

// TestStreamGolden pins stream.SolveDataset — the streaming substrate of
// Algorithm 1, which recomputes every weight from the stored bases on
// each pass — on lp, meb and sea × r ∈ {2, 3} × 5 seeds × NetConst
// {0.5, 0.2} × Monte-Carlo off/on, plus one theory-net run that takes
// the direct path and one run that exhausts a small iteration budget.
// NetConst 0.2 makes iterations fail; the Monte-Carlo rows either
// iterate with the enlarged net, abort with ErrRoundFailed, or ship the
// input. A row that moves on purpose is re-recorded from the failure
// message, which prints the run as a table line.
func TestStreamGolden(t *testing.T) {
	type run struct {
		key  string
		kind string
		r    int
		opt  core.Options
	}
	var runs []run
	for _, kind := range []string{"lp", "meb", "sea"} {
		for _, r := range []int{2, 3} {
			for _, nc := range []float64{0.5, 0.2} {
				for _, mc := range []bool{false, true} {
					for seed := uint64(1); seed <= 5; seed++ {
						runs = append(runs, run{
							key:  fmt.Sprintf("%s/r=%d/nc=%v/mc=%v/seed=%d", kind, r, nc, mc, seed),
							kind: kind, r: r,
							opt: core.Options{R: r, Seed: seed, NetConst: nc, MonteCarlo: mc},
						})
					}
				}
			}
		}
	}
	runs = append(runs,
		run{key: "lp/r=2/theory/seed=1", kind: "lp", r: 2, opt: core.Options{R: 2, Seed: 1, TheoryNet: true}},
		run{key: "meb/r=3/nc=0.2/budget=3/seed=1", kind: "meb", r: 3, opt: core.Options{R: 3, Seed: 1, NetConst: 0.2, MaxIters: 3}})

	iterated, failed, mcAborted, budget, direct := 0, 0, 0, 0, 0
	for _, rn := range runs {
		got := streamGoldenRun(rn.kind, rn.r, rn.opt)
		if got.stats.Iterations > 1 {
			iterated++
		}
		failed += got.stats.Failures
		switch got.err {
		case core.ErrRoundFailed.Error():
			mcAborted++
		case core.ErrIterationBudget.Error():
			budget++
		}
		if got.stats.DirectSolve {
			direct++
		}
		if want, ok := streamGolden[rn.key]; !ok || want != got {
			s := got.stats
			t.Errorf("golden drift (have the table line below; recorded: %v)\n\t%q: {stream.Stats{RunStats: core.RunStats{N: %d, R: %d, NetSize: %d, Iterations: %d, Successes: %d, Failures: %d, DirectSolve: %v}, Passes: %d, ItemsScanned: %d, StoredBases: %d, PeakSpaceBits: %d}, %#x, %q},",
				ok, rn.key, s.N, s.R, s.NetSize, s.Iterations, s.Successes, s.Failures, s.DirectSolve, s.Passes, s.ItemsScanned, s.StoredBases, s.PeakSpaceBits, got.basis, got.err)
		}
	}
	if iterated == 0 || failed == 0 || mcAborted == 0 || budget == 0 || direct == 0 {
		t.Fatalf("matrix too tame: %d iterated runs, %d failed iterations, %d Monte-Carlo aborts, %d budget stops, %d direct solves",
			iterated, failed, mcAborted, budget, direct)
	}
}

// Recorded before the stream became one of core.Run's substrates.
var streamGolden = map[string]streamGoldenRow{
	"lp/r=2/nc=0.5/mc=false/seed=1":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 6364, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, Passes: 3, ItemsScanned: 60000, StoredBases: 1, PeakSpaceBits: 2444160}, 0xf1e46689af0fa3c2, ""},
	"lp/r=2/nc=0.5/mc=false/seed=2":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 6364, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, Passes: 3, ItemsScanned: 60000, StoredBases: 1, PeakSpaceBits: 2444160}, 0xf48cb5295c709435, ""},
	"lp/r=2/nc=0.5/mc=false/seed=3":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 6364, Iterations: 1, Successes: 0, Failures: 0, DirectSolve: false}, Passes: 2, ItemsScanned: 40000, StoredBases: 0, PeakSpaceBits: 2443968}, 0xe7b131d7f9ba7400, ""},
	"lp/r=2/nc=0.5/mc=false/seed=4":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 6364, Iterations: 3, Successes: 2, Failures: 0, DirectSolve: false}, Passes: 4, ItemsScanned: 80000, StoredBases: 2, PeakSpaceBits: 2444352}, 0x8dae570bdf21c811, ""},
	"lp/r=2/nc=0.5/mc=false/seed=5":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 6364, Iterations: 1, Successes: 0, Failures: 0, DirectSolve: false}, Passes: 2, ItemsScanned: 40000, StoredBases: 0, PeakSpaceBits: 2443968}, 0x6335f655e4c12310, ""},
	"lp/r=2/nc=0.5/mc=true/seed=1":   {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 3840000}, 0xdc63238956110e7a, ""},
	"lp/r=2/nc=0.5/mc=true/seed=2":   {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 3840000}, 0xdc63238956110e7a, ""},
	"lp/r=2/nc=0.5/mc=true/seed=3":   {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 3840000}, 0xdc63238956110e7a, ""},
	"lp/r=2/nc=0.5/mc=true/seed=4":   {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 3840000}, 0xdc63238956110e7a, ""},
	"lp/r=2/nc=0.5/mc=true/seed=5":   {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 3840000}, 0xdc63238956110e7a, ""},
	"lp/r=2/nc=0.2/mc=false/seed=1":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 2546, Iterations: 10, Successes: 2, Failures: 7, DirectSolve: false}, Passes: 11, ItemsScanned: 220000, StoredBases: 2, PeakSpaceBits: 978240}, 0x90513edd7517556b, ""},
	"lp/r=2/nc=0.2/mc=false/seed=2":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 2546, Iterations: 3, Successes: 1, Failures: 1, DirectSolve: false}, Passes: 4, ItemsScanned: 80000, StoredBases: 1, PeakSpaceBits: 978048}, 0xdd6570f68b6d9744, ""},
	"lp/r=2/nc=0.2/mc=false/seed=3":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 2546, Iterations: 9, Successes: 2, Failures: 6, DirectSolve: false}, Passes: 10, ItemsScanned: 200000, StoredBases: 2, PeakSpaceBits: 978240}, 0xa7c17bc821ae26b6, ""},
	"lp/r=2/nc=0.2/mc=false/seed=4":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 2546, Iterations: 22, Successes: 1, Failures: 20, DirectSolve: false}, Passes: 23, ItemsScanned: 460000, StoredBases: 1, PeakSpaceBits: 978048}, 0x479384829aa7df2e, ""},
	"lp/r=2/nc=0.2/mc=false/seed=5":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 2546, Iterations: 7, Successes: 1, Failures: 5, DirectSolve: false}, Passes: 8, ItemsScanned: 160000, StoredBases: 1, PeakSpaceBits: 978048}, 0x57aa1bc301e4b112, ""},
	"lp/r=2/nc=0.2/mc=true/seed=1":   {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 3840000}, 0xdc63238956110e7a, ""},
	"lp/r=2/nc=0.2/mc=true/seed=2":   {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 3840000}, 0xdc63238956110e7a, ""},
	"lp/r=2/nc=0.2/mc=true/seed=3":   {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 3840000}, 0xdc63238956110e7a, ""},
	"lp/r=2/nc=0.2/mc=true/seed=4":   {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 3840000}, 0xdc63238956110e7a, ""},
	"lp/r=2/nc=0.2/mc=true/seed=5":   {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 3840000}, 0xdc63238956110e7a, ""},
	"lp/r=3/nc=0.5/mc=false/seed=1":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1222, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, Passes: 3, ItemsScanned: 60000, StoredBases: 1, PeakSpaceBits: 469632}, 0xefb986e6abcb26ea, ""},
	"lp/r=3/nc=0.5/mc=false/seed=2":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1222, Iterations: 3, Successes: 1, Failures: 1, DirectSolve: false}, Passes: 4, ItemsScanned: 80000, StoredBases: 1, PeakSpaceBits: 469632}, 0x1a799290b8b3a862, ""},
	"lp/r=3/nc=0.5/mc=false/seed=3":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1222, Iterations: 4, Successes: 2, Failures: 1, DirectSolve: false}, Passes: 5, ItemsScanned: 100000, StoredBases: 2, PeakSpaceBits: 469824}, 0x474234afff0d914d, ""},
	"lp/r=3/nc=0.5/mc=false/seed=4":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1222, Iterations: 3, Successes: 1, Failures: 1, DirectSolve: false}, Passes: 4, ItemsScanned: 80000, StoredBases: 1, PeakSpaceBits: 469632}, 0x9c3610a4467f2c7b, ""},
	"lp/r=3/nc=0.5/mc=false/seed=5":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1222, Iterations: 3, Successes: 1, Failures: 1, DirectSolve: false}, Passes: 4, ItemsScanned: 80000, StoredBases: 1, PeakSpaceBits: 469632}, 0x3d29ec19c3cef693, ""},
	"lp/r=3/nc=0.5/mc=true/seed=1":   {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 7501, Iterations: 1, Successes: 0, Failures: 0, DirectSolve: false}, Passes: 2, ItemsScanned: 40000, StoredBases: 0, PeakSpaceBits: 2880576}, 0x5330b5eb540cb9bd, ""},
	"lp/r=3/nc=0.5/mc=true/seed=2":   {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 7501, Iterations: 3, Successes: 2, Failures: 0, DirectSolve: false}, Passes: 4, ItemsScanned: 80000, StoredBases: 2, PeakSpaceBits: 2880960}, 0xb8dd780c9773b6dd, ""},
	"lp/r=3/nc=0.5/mc=true/seed=3":   {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 7501, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, Passes: 3, ItemsScanned: 60000, StoredBases: 1, PeakSpaceBits: 2880768}, 0x1d5461847093124e, ""},
	"lp/r=3/nc=0.5/mc=true/seed=4":   {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 7501, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, Passes: 3, ItemsScanned: 60000, StoredBases: 1, PeakSpaceBits: 2880768}, 0x9b07661810d3b800, ""},
	"lp/r=3/nc=0.5/mc=true/seed=5":   {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 7501, Iterations: 1, Successes: 0, Failures: 0, DirectSolve: false}, Passes: 2, ItemsScanned: 40000, StoredBases: 0, PeakSpaceBits: 2880576}, 0xc6c7dcc0f88be62a, ""},
	"lp/r=3/nc=0.2/mc=false/seed=1":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 489, Iterations: 7, Successes: 2, Failures: 4, DirectSolve: false}, Passes: 8, ItemsScanned: 160000, StoredBases: 2, PeakSpaceBits: 188352}, 0xc1f532d8df9e86cc, ""},
	"lp/r=3/nc=0.2/mc=false/seed=2":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 489, Iterations: 5, Successes: 1, Failures: 3, DirectSolve: false}, Passes: 6, ItemsScanned: 120000, StoredBases: 1, PeakSpaceBits: 188160}, 0xc761ce6118719f2b, ""},
	"lp/r=3/nc=0.2/mc=false/seed=3":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 489, Iterations: 16, Successes: 1, Failures: 14, DirectSolve: false}, Passes: 17, ItemsScanned: 340000, StoredBases: 1, PeakSpaceBits: 188160}, 0xe25ab554933712ec, ""},
	"lp/r=3/nc=0.2/mc=false/seed=4":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 489, Iterations: 4, Successes: 1, Failures: 2, DirectSolve: false}, Passes: 5, ItemsScanned: 100000, StoredBases: 1, PeakSpaceBits: 188160}, 0xbe81132c3d9cf681, ""},
	"lp/r=3/nc=0.2/mc=false/seed=5":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 489, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, Passes: 3, ItemsScanned: 60000, StoredBases: 1, PeakSpaceBits: 188160}, 0x2002c8883fd4240d, ""},
	"lp/r=3/nc=0.2/mc=true/seed=1":   {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 3001, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, Passes: 3, ItemsScanned: 60000, StoredBases: 1, PeakSpaceBits: 1152768}, 0x332e56ba31c13da8, ""},
	"lp/r=3/nc=0.2/mc=true/seed=2":   {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 3001, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, Passes: 3, ItemsScanned: 60000, StoredBases: 1, PeakSpaceBits: 1152768}, 0xb8014d278621774d, ""},
	"lp/r=3/nc=0.2/mc=true/seed=3":   {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 3001, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, Passes: 3, ItemsScanned: 60000, StoredBases: 1, PeakSpaceBits: 1152768}, 0x59afc23b073576eb, ""},
	"lp/r=3/nc=0.2/mc=true/seed=4":   {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 3001, Iterations: 3, Successes: 2, Failures: 0, DirectSolve: false}, Passes: 4, ItemsScanned: 80000, StoredBases: 2, PeakSpaceBits: 1152960}, 0x3b94e21eb4a2545a, ""},
	"lp/r=3/nc=0.2/mc=true/seed=5":   {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 3001, Iterations: 3, Successes: 2, Failures: 0, DirectSolve: false}, Passes: 4, ItemsScanned: 80000, StoredBases: 2, PeakSpaceBits: 1152960}, 0x52bd7a2418747c0a, ""},
	"meb/r=2/nc=0.5/mc=false/seed=1": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 6364, Iterations: 3, Successes: 2, Failures: 0, DirectSolve: false}, Passes: 4, ItemsScanned: 80000, StoredBases: 2, PeakSpaceBits: 1629696}, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.5/mc=false/seed=2": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 6364, Iterations: 3, Successes: 2, Failures: 0, DirectSolve: false}, Passes: 4, ItemsScanned: 80000, StoredBases: 2, PeakSpaceBits: 1629696}, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.5/mc=false/seed=3": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 6364, Iterations: 6, Successes: 2, Failures: 3, DirectSolve: false}, Passes: 7, ItemsScanned: 140000, StoredBases: 2, PeakSpaceBits: 1629696}, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.5/mc=false/seed=4": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 6364, Iterations: 5, Successes: 3, Failures: 1, DirectSolve: false}, Passes: 6, ItemsScanned: 120000, StoredBases: 3, PeakSpaceBits: 1629888}, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.5/mc=false/seed=5": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 6364, Iterations: 8, Successes: 2, Failures: 5, DirectSolve: false}, Passes: 9, ItemsScanned: 180000, StoredBases: 2, PeakSpaceBits: 1629696}, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.5/mc=true/seed=1":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 2560000}, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.5/mc=true/seed=2":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 2560000}, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.5/mc=true/seed=3":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 2560000}, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.5/mc=true/seed=4":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 2560000}, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.5/mc=true/seed=5":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 2560000}, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.2/mc=false/seed=1": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 2546, Iterations: 33, Successes: 2, Failures: 30, DirectSolve: false}, Passes: 34, ItemsScanned: 680000, StoredBases: 2, PeakSpaceBits: 652288}, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.2/mc=false/seed=2": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 2546, Iterations: 5, Successes: 2, Failures: 2, DirectSolve: false}, Passes: 6, ItemsScanned: 120000, StoredBases: 2, PeakSpaceBits: 652288}, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.2/mc=false/seed=3": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 2546, Iterations: 49, Successes: 3, Failures: 45, DirectSolve: false}, Passes: 50, ItemsScanned: 1000000, StoredBases: 3, PeakSpaceBits: 652480}, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.2/mc=false/seed=4": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 2546, Iterations: 4, Successes: 1, Failures: 2, DirectSolve: false}, Passes: 5, ItemsScanned: 100000, StoredBases: 1, PeakSpaceBits: 652096}, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.2/mc=false/seed=5": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 2546, Iterations: 16, Successes: 1, Failures: 14, DirectSolve: false}, Passes: 17, ItemsScanned: 340000, StoredBases: 1, PeakSpaceBits: 652096}, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.2/mc=true/seed=1":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 2560000}, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.2/mc=true/seed=2":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 2560000}, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.2/mc=true/seed=3":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 2560000}, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.2/mc=true/seed=4":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 2560000}, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.2/mc=true/seed=5":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 2560000}, 0x6b14f40616399732, ""},
	"meb/r=3/nc=0.5/mc=false/seed=1": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1222, Iterations: 3, Successes: 1, Failures: 1, DirectSolve: false}, Passes: 4, ItemsScanned: 80000, StoredBases: 1, PeakSpaceBits: 313152}, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.5/mc=false/seed=2": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1222, Iterations: 4, Successes: 2, Failures: 1, DirectSolve: false}, Passes: 5, ItemsScanned: 100000, StoredBases: 2, PeakSpaceBits: 313344}, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.5/mc=false/seed=3": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1222, Iterations: 3, Successes: 1, Failures: 1, DirectSolve: false}, Passes: 4, ItemsScanned: 80000, StoredBases: 1, PeakSpaceBits: 313152}, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.5/mc=false/seed=4": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1222, Iterations: 3, Successes: 1, Failures: 1, DirectSolve: false}, Passes: 4, ItemsScanned: 80000, StoredBases: 1, PeakSpaceBits: 313152}, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.5/mc=false/seed=5": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1222, Iterations: 9, Successes: 1, Failures: 7, DirectSolve: false}, Passes: 10, ItemsScanned: 200000, StoredBases: 1, PeakSpaceBits: 313152}, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.5/mc=true/seed=1":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 7501, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, Passes: 3, ItemsScanned: 60000, StoredBases: 1, PeakSpaceBits: 1920576}, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.5/mc=true/seed=2":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 7501, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, Passes: 3, ItemsScanned: 60000, StoredBases: 1, PeakSpaceBits: 1920576}, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.5/mc=true/seed=3":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 7501, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, Passes: 3, ItemsScanned: 60000, StoredBases: 1, PeakSpaceBits: 1920576}, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.5/mc=true/seed=4":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 7501, Iterations: 3, Successes: 2, Failures: 0, DirectSolve: false}, Passes: 4, ItemsScanned: 80000, StoredBases: 2, PeakSpaceBits: 1920768}, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.5/mc=true/seed=5":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 7501, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, Passes: 3, ItemsScanned: 60000, StoredBases: 1, PeakSpaceBits: 1920576}, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.2/mc=false/seed=1": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 489, Iterations: 30, Successes: 1, Failures: 28, DirectSolve: false}, Passes: 31, ItemsScanned: 620000, StoredBases: 1, PeakSpaceBits: 125504}, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.2/mc=false/seed=2": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 489, Iterations: 31, Successes: 2, Failures: 28, DirectSolve: false}, Passes: 32, ItemsScanned: 640000, StoredBases: 2, PeakSpaceBits: 125696}, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.2/mc=false/seed=3": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 489, Iterations: 52, Successes: 2, Failures: 49, DirectSolve: false}, Passes: 53, ItemsScanned: 1060000, StoredBases: 2, PeakSpaceBits: 125696}, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.2/mc=false/seed=4": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 489, Iterations: 35, Successes: 1, Failures: 33, DirectSolve: false}, Passes: 36, ItemsScanned: 720000, StoredBases: 1, PeakSpaceBits: 125504}, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.2/mc=false/seed=5": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 489, Iterations: 45, Successes: 2, Failures: 42, DirectSolve: false}, Passes: 46, ItemsScanned: 920000, StoredBases: 2, PeakSpaceBits: 125696}, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.2/mc=true/seed=1":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 3001, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, Passes: 3, ItemsScanned: 60000, StoredBases: 1, PeakSpaceBits: 768576}, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.2/mc=true/seed=2":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 3001, Iterations: 1, Successes: 0, Failures: 1, DirectSolve: false}, Passes: 2, ItemsScanned: 40000, StoredBases: 0, PeakSpaceBits: 768384}, 0x0, "core: monte-carlo round failed (w(V) > ε·w(S))"},
	"meb/r=3/nc=0.2/mc=true/seed=3":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 3001, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, Passes: 3, ItemsScanned: 60000, StoredBases: 1, PeakSpaceBits: 768576}, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.2/mc=true/seed=4":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 3001, Iterations: 3, Successes: 2, Failures: 0, DirectSolve: false}, Passes: 4, ItemsScanned: 80000, StoredBases: 2, PeakSpaceBits: 768768}, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.2/mc=true/seed=5":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 3001, Iterations: 1, Successes: 0, Failures: 1, DirectSolve: false}, Passes: 2, ItemsScanned: 40000, StoredBases: 0, PeakSpaceBits: 768384}, 0x0, "core: monte-carlo round failed (w(V) > ε·w(S))"},
	"sea/r=2/nc=0.5/mc=false/seed=1": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 2560000}, 0xc21ba84ae4ecea09, ""},
	"sea/r=2/nc=0.5/mc=false/seed=2": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 2560000}, 0xc21ba84ae4ecea09, ""},
	"sea/r=2/nc=0.5/mc=false/seed=3": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 2560000}, 0xc21ba84ae4ecea09, ""},
	"sea/r=2/nc=0.5/mc=false/seed=4": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 2560000}, 0xc21ba84ae4ecea09, ""},
	"sea/r=2/nc=0.5/mc=false/seed=5": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 2560000}, 0xc21ba84ae4ecea09, ""},
	"sea/r=2/nc=0.5/mc=true/seed=1":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 2560000}, 0xc21ba84ae4ecea09, ""},
	"sea/r=2/nc=0.5/mc=true/seed=2":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 2560000}, 0xc21ba84ae4ecea09, ""},
	"sea/r=2/nc=0.5/mc=true/seed=3":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 2560000}, 0xc21ba84ae4ecea09, ""},
	"sea/r=2/nc=0.5/mc=true/seed=4":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 2560000}, 0xc21ba84ae4ecea09, ""},
	"sea/r=2/nc=0.5/mc=true/seed=5":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 2560000}, 0xc21ba84ae4ecea09, ""},
	"sea/r=2/nc=0.2/mc=false/seed=1": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 5657, Iterations: 24, Successes: 3, Failures: 20, DirectSolve: false}, Passes: 25, ItemsScanned: 500000, StoredBases: 3, PeakSpaceBits: 1449088}, 0x6699484d9d316699, ""},
	"sea/r=2/nc=0.2/mc=false/seed=2": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 5657, Iterations: 81, Successes: 0, Failures: 80, DirectSolve: false}, Passes: 82, ItemsScanned: 1640000, StoredBases: 0, PeakSpaceBits: 1448320}, 0x868cbf480f8d8eb6, ""},
	"sea/r=2/nc=0.2/mc=false/seed=3": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 5657, Iterations: 6, Successes: 2, Failures: 3, DirectSolve: false}, Passes: 7, ItemsScanned: 140000, StoredBases: 2, PeakSpaceBits: 1448832}, 0x53ee7e8339fc34be, ""},
	"sea/r=2/nc=0.2/mc=false/seed=4": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 5657, Iterations: 107, Successes: 2, Failures: 104, DirectSolve: false}, Passes: 108, ItemsScanned: 2160000, StoredBases: 2, PeakSpaceBits: 1448832}, 0x9db1423a63cbd086, ""},
	"sea/r=2/nc=0.2/mc=false/seed=5": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 5657, Iterations: 75, Successes: 4, Failures: 70, DirectSolve: false}, Passes: 76, ItemsScanned: 1520000, StoredBases: 4, PeakSpaceBits: 1449344}, 0xdeabf2f378875254, ""},
	"sea/r=2/nc=0.2/mc=true/seed=1":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 2560000}, 0xc21ba84ae4ecea09, ""},
	"sea/r=2/nc=0.2/mc=true/seed=2":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 2560000}, 0xc21ba84ae4ecea09, ""},
	"sea/r=2/nc=0.2/mc=true/seed=3":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 2560000}, 0xc21ba84ae4ecea09, ""},
	"sea/r=2/nc=0.2/mc=true/seed=4":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 2560000}, 0xc21ba84ae4ecea09, ""},
	"sea/r=2/nc=0.2/mc=true/seed=5":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 2560000}, 0xc21ba84ae4ecea09, ""},
	"sea/r=3/nc=0.5/mc=false/seed=1": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 2715, Iterations: 12, Successes: 3, Failures: 8, DirectSolve: false}, Passes: 13, ItemsScanned: 260000, StoredBases: 3, PeakSpaceBits: 695936}, 0xdd36e68fb2c9a339, ""},
	"sea/r=3/nc=0.5/mc=false/seed=2": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 2715, Iterations: 17, Successes: 3, Failures: 13, DirectSolve: false}, Passes: 18, ItemsScanned: 360000, StoredBases: 3, PeakSpaceBits: 695936}, 0x7d4c94742a818344, ""},
	"sea/r=3/nc=0.5/mc=false/seed=3": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 2715, Iterations: 14, Successes: 3, Failures: 10, DirectSolve: false}, Passes: 15, ItemsScanned: 300000, StoredBases: 3, PeakSpaceBits: 695936}, 0x494dfc03bc156003, ""},
	"sea/r=3/nc=0.5/mc=false/seed=4": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 2715, Iterations: 9, Successes: 2, Failures: 6, DirectSolve: false}, Passes: 10, ItemsScanned: 200000, StoredBases: 2, PeakSpaceBits: 695680}, 0xf14c0cfd35e9ee60, ""},
	"sea/r=3/nc=0.5/mc=false/seed=5": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 2715, Iterations: 15, Successes: 2, Failures: 12, DirectSolve: false}, Passes: 16, ItemsScanned: 320000, StoredBases: 2, PeakSpaceBits: 695680}, 0x5ff03fb324b4e51e, ""},
	"sea/r=3/nc=0.5/mc=true/seed=1":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 2560000}, 0xb8f1fde71955671e, ""},
	"sea/r=3/nc=0.5/mc=true/seed=2":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 2560000}, 0xb8f1fde71955671e, ""},
	"sea/r=3/nc=0.5/mc=true/seed=3":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 2560000}, 0xb8f1fde71955671e, ""},
	"sea/r=3/nc=0.5/mc=true/seed=4":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 2560000}, 0xb8f1fde71955671e, ""},
	"sea/r=3/nc=0.5/mc=true/seed=5":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 2560000}, 0xb8f1fde71955671e, ""},
	"sea/r=3/nc=0.2/mc=false/seed=1": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1086, Iterations: 134, Successes: 4, Failures: 129, DirectSolve: false}, Passes: 135, ItemsScanned: 2700000, StoredBases: 4, PeakSpaceBits: 279168}, 0xe2ae80d84093a236, ""},
	"sea/r=3/nc=0.2/mc=false/seed=2": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1086, Iterations: 122, Successes: 4, Failures: 117, DirectSolve: false}, Passes: 123, ItemsScanned: 2460000, StoredBases: 4, PeakSpaceBits: 279168}, 0x58ef381d7ab36aee, ""},
	"sea/r=3/nc=0.2/mc=false/seed=3": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1086, Iterations: 46, Successes: 4, Failures: 41, DirectSolve: false}, Passes: 47, ItemsScanned: 940000, StoredBases: 4, PeakSpaceBits: 279168}, 0x498050795e742890, ""},
	"sea/r=3/nc=0.2/mc=false/seed=4": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1086, Iterations: 138, Successes: 3, Failures: 134, DirectSolve: false}, Passes: 139, ItemsScanned: 2780000, StoredBases: 3, PeakSpaceBits: 278912}, 0x7268f83bdd631de2, ""},
	"sea/r=3/nc=0.2/mc=false/seed=5": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1086, Iterations: 51, Successes: 3, Failures: 47, DirectSolve: false}, Passes: 52, ItemsScanned: 1040000, StoredBases: 3, PeakSpaceBits: 278912}, 0x162e330ce1e73cc6, ""},
	"sea/r=3/nc=0.2/mc=true/seed=1":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 6977, Iterations: 3, Successes: 2, Failures: 0, DirectSolve: false}, Passes: 4, ItemsScanned: 80000, StoredBases: 2, PeakSpaceBits: 1786752}, 0x68539d1eb0109cb3, ""},
	"sea/r=3/nc=0.2/mc=true/seed=2":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 6977, Iterations: 2, Successes: 1, Failures: 1, DirectSolve: false}, Passes: 3, ItemsScanned: 60000, StoredBases: 1, PeakSpaceBits: 1786496}, 0x0, "core: monte-carlo round failed (w(V) > ε·w(S))"},
	"sea/r=3/nc=0.2/mc=true/seed=3":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 6977, Iterations: 1, Successes: 0, Failures: 1, DirectSolve: false}, Passes: 2, ItemsScanned: 40000, StoredBases: 0, PeakSpaceBits: 1786240}, 0x0, "core: monte-carlo round failed (w(V) > ε·w(S))"},
	"sea/r=3/nc=0.2/mc=true/seed=4":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 6977, Iterations: 3, Successes: 2, Failures: 0, DirectSolve: false}, Passes: 4, ItemsScanned: 80000, StoredBases: 2, PeakSpaceBits: 1786752}, 0xcf791e396316feb7, ""},
	"sea/r=3/nc=0.2/mc=true/seed=5":  {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 6977, Iterations: 4, Successes: 3, Failures: 0, DirectSolve: false}, Passes: 5, ItemsScanned: 100000, StoredBases: 3, PeakSpaceBits: 1787008}, 0xe124bdb5f56c6f3f, ""},
	"lp/r=2/theory/seed=1":           {stream.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Passes: 1, ItemsScanned: 20000, StoredBases: 0, PeakSpaceBits: 3840000}, 0xdc63238956110e7a, ""},
	"meb/r=3/nc=0.2/budget=3/seed=1": {stream.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 489, Iterations: 3, Successes: 0, Failures: 3, DirectSolve: false}, Passes: 4, ItemsScanned: 80000, StoredBases: 0, PeakSpaceBits: 125312}, 0x0, "core: iteration budget exhausted"},
}
