package core_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"lowdimlp/internal/comm"
	"lowdimlp/internal/core"
	"lowdimlp/internal/lp"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/meb"
	"lowdimlp/internal/models"
	"lowdimlp/internal/numeric"
	"lowdimlp/internal/sea"
)

// coreGoldenRow is one recorded core.Solve run: every scalar Stats
// field (compared exactly — DeepEqual is == on each, with Log nil), an
// FNV hash of every Log record, an FNV hash of the rendered basis (the
// basis codec's bytes, then each basis constraint through the item
// codec) and the error text.
type coreGoldenRow struct {
	stats core.Stats // Log is nil here; see log
	log   uint64
	basis uint64
	err   string
}

func goldenHashLog(log []core.IterRecord) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, rec := range log {
		if rec.Success {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
		for _, v := range []uint64{uint64(rec.Violators), math.Float64bits(rec.ViolFrac), math.Float64bits(rec.TotalWeight)} {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

func goldenHashBasis[C, B any](dom lptype.Domain[C, B], cc comm.Codec[C], bc comm.Codec[B], b B) uint64 {
	buf := bc.Append(nil, b)
	for _, c := range dom.Basis(b) {
		buf = cc.Append(buf, c)
	}
	h := fnv.New64a()
	h.Write(buf)
	return h.Sum64()
}

// goldenSphereLP is the sphere-tangent random LP family: n unit-normal
// halfspaces a·x ≤ 1 and a random objective.
func goldenSphereLP(d, n int, seed uint64) (lp.Problem, []lp.Halfspace) {
	rng := numeric.NewRand(seed, 0xc0de)
	obj := make([]float64, d)
	for i := range obj {
		obj[i] = rng.NormFloat64()
	}
	cons := make([]lp.Halfspace, n)
	for i := range cons {
		a := make([]float64, d)
		for j := range a {
			a[j] = rng.NormFloat64()
		}
		nrm := numeric.Norm2(a)
		for j := range a {
			a[j] /= nrm
		}
		cons[i] = lp.Halfspace{A: a, B: 1}
	}
	return lp.NewProblem(obj), cons
}

// goldenGaussian returns n standard-normal points in the plane.
func goldenGaussian(n int, seed uint64) [][]float64 {
	rng := numeric.NewRand(seed, 3)
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	return pts
}

func goldenSolve[C, B any](dom lptype.Domain[C, B], s []C, cc comm.Codec[C], bc comm.Codec[B], opt core.Options) coreGoldenRow {
	b, stats, err := core.Solve(dom, s, opt)
	row := coreGoldenRow{log: goldenHashLog(stats.Log)}
	stats.Log = nil
	row.stats = stats
	if err != nil {
		row.err = err.Error()
	} else {
		row.basis = goldenHashBasis(dom, cc, bc, b)
	}
	return row
}

const coreGoldenN = 20000

func coreGoldenRun(kind string, r int, opt core.Options) coreGoldenRow {
	const d = 2
	switch kind {
	case "lp":
		p, cons := goldenSphereLP(d, coreGoldenN, 900+uint64(r))
		return goldenSolve[lp.Halfspace, lp.Basis](lp.NewDomain(p, 7), cons,
			models.LP.ItemCodec(d), lp.BasisCodec{Dim: d}, opt)
	case "meb":
		raw := goldenGaussian(coreGoldenN, 700+uint64(r))
		pts := make([]meb.Point, len(raw))
		for i, p := range raw {
			pts[i] = p
		}
		return goldenSolve[meb.Point, meb.Basis](meb.NewDomain(d), pts,
			models.MEB.ItemCodec(d), meb.BasisCodec{Dim: d}, opt)
	case "sea":
		raw := goldenGaussian(coreGoldenN, 500+uint64(r))
		pts := make([]sea.Point, len(raw))
		for i, p := range raw {
			pts[i] = p
		}
		return goldenSolve[sea.Point, sea.Basis](sea.NewDomain(d, 5), pts,
			sea.Spec.ItemCodec(d), sea.BasisCodec{Dim: d}, opt)
	}
	panic("coreGoldenRun: unknown kind")
}

// TestCoreGolden pins core.Solve — the in-memory substrate of
// Algorithm 1 with explicit weights — on lp, meb and sea × r ∈ {2, 3}
// × 5 seeds × NetConst {0.5, 0.2} × Monte-Carlo off/on, plus one
// theory-net run that takes the direct path. NetConst 0.2 makes
// iterations fail; the Monte-Carlo rows either iterate with the
// enlarged net, abort with ErrRoundFailed, or solve directly (where the
// input fits in the 2m+1 rows of the enlarged net's sampled path). A
// row that moves on purpose is re-recorded from the failure message,
// which prints the run as a table line.
func TestCoreGolden(t *testing.T) {
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
							opt: core.Options{R: r, Seed: seed, NetConst: nc, MonteCarlo: mc, CollectLog: true},
						})
					}
				}
			}
		}
	}
	runs = append(runs, run{key: "lp/r=2/theory/seed=1", kind: "lp", r: 2,
		opt: core.Options{R: 2, Seed: 1, TheoryNet: true, CollectLog: true}})

	iterated, failed, mcAborted, direct := 0, 0, 0, 0
	for _, rn := range runs {
		got := coreGoldenRun(rn.kind, rn.r, rn.opt)
		if got.stats.Iterations > 1 {
			iterated++
		}
		failed += got.stats.Failures
		if got.err != "" {
			mcAborted++
		}
		if got.stats.DirectSolve {
			direct++
		}
		if want, ok := coreGolden[rn.key]; !ok || !reflect.DeepEqual(want, got) {
			s := got.stats
			t.Errorf("golden drift (have the table line below; recorded: %v)\n\t%q: {core.Stats{RunStats: core.RunStats{N: %d, R: %d, NetSize: %d, Iterations: %d, Successes: %d, Failures: %d, DirectSolve: %v}, Eps: %v, MaxExponent: %d}, %#x, %#x, %q},",
				ok, rn.key, s.N, s.R, s.NetSize, s.Iterations, s.Successes, s.Failures, s.DirectSolve, s.Eps, s.MaxExponent, got.log, got.basis, got.err)
		}
	}
	if iterated == 0 || failed == 0 || mcAborted == 0 || direct == 0 {
		t.Fatalf("matrix too tame: %d iterated runs, %d failed iterations, %d Monte-Carlo aborts, %d direct solves",
			iterated, failed, mcAborted, direct)
	}
}

// Recorded at 67f9aee, before core.Solve became a substrate of the
// shared driver. Re-recorded when the direct rule became n ≤ 2m+1:
// lp and meb r=2 nc=0.2 mc=true (m = 15 631), sea r=2 nc=0.5 mc=false
// (m = 14 143) and sea r=3 nc=0.5 mc=true (m = 17 442) now ship the
// input; every other row is unchanged. Re-recorded when lp and sea came
// to solve by lptype.SolvePivot over a Seidel that keeps its box: the
// basis hash of 40 lp and 38 sea rows moved in its last bits, and no
// Stats field or log hash. Re-recorded when SolvePivot came to solve its
// sample by itself: the basis hash of 19 lp and 22 sea rows moved, and
// no Stats field or log hash.
var coreGolden = map[string]coreGoldenRow{
	"lp/r=2/nc=0.5/mc=false/seed=1":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 6364, Iterations: 3, Successes: 2, Failures: 0, DirectSolve: false}, Eps: 0.00023570226039551585, MaxExponent: 1}, 0x31d6cfa9d0b5e69e, 0x7d2c2af66bc367a5, ""},
	"lp/r=2/nc=0.5/mc=false/seed=2":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 6364, Iterations: 4, Successes: 2, Failures: 1, DirectSolve: false}, Eps: 0.00023570226039551585, MaxExponent: 1}, 0x57ca676f7d18c338, 0x2ecbf30921a62375, ""},
	"lp/r=2/nc=0.5/mc=false/seed=3":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 6364, Iterations: 3, Successes: 2, Failures: 0, DirectSolve: false}, Eps: 0.00023570226039551585, MaxExponent: 1}, 0x2b94549aa56b75df, 0x6c42e216c9a01856, ""},
	"lp/r=2/nc=0.5/mc=false/seed=4":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 6364, Iterations: 5, Successes: 0, Failures: 4, DirectSolve: false}, Eps: 0.00023570226039551585, MaxExponent: 0}, 0x48515035cfb0929d, 0xe0bee4a0f0e425ba, ""},
	"lp/r=2/nc=0.5/mc=false/seed=5":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 6364, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, Eps: 0.00023570226039551585, MaxExponent: 1}, 0x5ecdf701c4fd6e2, 0xf82e949a47938e3e, ""},
	"lp/r=2/nc=0.5/mc=true/seed=1":   {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.00023570226039551585, MaxExponent: 0}, 0xcbf29ce484222325, 0xce4645eb3fcaeacf, ""},
	"lp/r=2/nc=0.5/mc=true/seed=2":   {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.00023570226039551585, MaxExponent: 0}, 0xcbf29ce484222325, 0xce4645eb3fcaeacf, ""},
	"lp/r=2/nc=0.5/mc=true/seed=3":   {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.00023570226039551585, MaxExponent: 0}, 0xcbf29ce484222325, 0xce4645eb3fcaeacf, ""},
	"lp/r=2/nc=0.5/mc=true/seed=4":   {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.00023570226039551585, MaxExponent: 0}, 0xcbf29ce484222325, 0xce4645eb3fcaeacf, ""},
	"lp/r=2/nc=0.5/mc=true/seed=5":   {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.00023570226039551585, MaxExponent: 0}, 0xcbf29ce484222325, 0xce4645eb3fcaeacf, ""},
	"lp/r=2/nc=0.2/mc=false/seed=1":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 2546, Iterations: 4, Successes: 2, Failures: 1, DirectSolve: false}, Eps: 0.00023570226039551585, MaxExponent: 1}, 0xba12b70a74aafcb7, 0xee6e1d6449374b1d, ""},
	"lp/r=2/nc=0.2/mc=false/seed=2":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 2546, Iterations: 12, Successes: 1, Failures: 10, DirectSolve: false}, Eps: 0.00023570226039551585, MaxExponent: 1}, 0x2d594f7e558784b8, 0xd33bdcaeb78ea20e, ""},
	"lp/r=2/nc=0.2/mc=false/seed=3":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 2546, Iterations: 5, Successes: 1, Failures: 3, DirectSolve: false}, Eps: 0.00023570226039551585, MaxExponent: 1}, 0xfdeb4df61658bebc, 0x7d2c2af66bc367a5, ""},
	"lp/r=2/nc=0.2/mc=false/seed=4":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 2546, Iterations: 12, Successes: 0, Failures: 11, DirectSolve: false}, Eps: 0.00023570226039551585, MaxExponent: 0}, 0xe38c60aab0d1883f, 0xee6e1d6449374b1d, ""},
	"lp/r=2/nc=0.2/mc=false/seed=5":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 2546, Iterations: 7, Successes: 0, Failures: 6, DirectSolve: false}, Eps: 0.00023570226039551585, MaxExponent: 0}, 0x4f7127109632eefc, 0x6c42e216c9a01856, ""},
	"lp/r=2/nc=0.2/mc=true/seed=1":   {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.00023570226039551585, MaxExponent: 0}, 0xcbf29ce484222325, 0xce4645eb3fcaeacf, ""},
	"lp/r=2/nc=0.2/mc=true/seed=2":   {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.00023570226039551585, MaxExponent: 0}, 0xcbf29ce484222325, 0xce4645eb3fcaeacf, ""},
	"lp/r=2/nc=0.2/mc=true/seed=3":   {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.00023570226039551585, MaxExponent: 0}, 0xcbf29ce484222325, 0xce4645eb3fcaeacf, ""},
	"lp/r=2/nc=0.2/mc=true/seed=4":   {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.00023570226039551585, MaxExponent: 0}, 0xcbf29ce484222325, 0xce4645eb3fcaeacf, ""},
	"lp/r=2/nc=0.2/mc=true/seed=5":   {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.00023570226039551585, MaxExponent: 0}, 0xcbf29ce484222325, 0xce4645eb3fcaeacf, ""},
	"lp/r=3/nc=0.5/mc=false/seed=1":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1222, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, Eps: 0.001228010499546796, MaxExponent: 1}, 0xb7f349575bc194a2, 0x8f9e64d4dab8d957, ""},
	"lp/r=3/nc=0.5/mc=false/seed=2":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1222, Iterations: 4, Successes: 1, Failures: 2, DirectSolve: false}, Eps: 0.001228010499546796, MaxExponent: 1}, 0xc2cdcb44bbc71ac1, 0xcf75500e021d8f25, ""},
	"lp/r=3/nc=0.5/mc=false/seed=3":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1222, Iterations: 7, Successes: 1, Failures: 5, DirectSolve: false}, Eps: 0.001228010499546796, MaxExponent: 1}, 0x7929fec8fd85bc58, 0xa2c3f870e8f1b5a, ""},
	"lp/r=3/nc=0.5/mc=false/seed=4":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1222, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, Eps: 0.001228010499546796, MaxExponent: 1}, 0xe3e2c87581177e81, 0x5587182f5cc735ec, ""},
	"lp/r=3/nc=0.5/mc=false/seed=5":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1222, Iterations: 5, Successes: 2, Failures: 2, DirectSolve: false}, Eps: 0.001228010499546796, MaxExponent: 1}, 0x8fa7eae3e69ee7e6, 0xa8655c9e0b97215e, ""},
	"lp/r=3/nc=0.5/mc=true/seed=1":   {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 7501, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, Eps: 0.001228010499546796, MaxExponent: 1}, 0xb989c62ebaf37795, 0x8f9e64d4dab8d957, ""},
	"lp/r=3/nc=0.5/mc=true/seed=2":   {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 7501, Iterations: 1, Successes: 0, Failures: 0, DirectSolve: false}, Eps: 0.001228010499546796, MaxExponent: 0}, 0x5353b7d524819a0f, 0x1637a313448a6b70, ""},
	"lp/r=3/nc=0.5/mc=true/seed=3":   {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 7501, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, Eps: 0.001228010499546796, MaxExponent: 1}, 0x2671987ffd711be9, 0x6d3c2b2cc62da909, ""},
	"lp/r=3/nc=0.5/mc=true/seed=4":   {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 7501, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, Eps: 0.001228010499546796, MaxExponent: 1}, 0x1495e9a3cfc808cb, 0x827003d670f1c49d, ""},
	"lp/r=3/nc=0.5/mc=true/seed=5":   {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 7501, Iterations: 3, Successes: 2, Failures: 0, DirectSolve: false}, Eps: 0.001228010499546796, MaxExponent: 1}, 0x8421b0afafa3284, 0x2b9955b4294a5d31, ""},
	"lp/r=3/nc=0.2/mc=false/seed=1":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 489, Iterations: 16, Successes: 1, Failures: 14, DirectSolve: false}, Eps: 0.001228010499546796, MaxExponent: 1}, 0x85f7b82b9982ab97, 0xcf75500e021d8f25, ""},
	"lp/r=3/nc=0.2/mc=false/seed=2":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 489, Iterations: 9, Successes: 1, Failures: 7, DirectSolve: false}, Eps: 0.001228010499546796, MaxExponent: 1}, 0xf88f8fa1c792ec78, 0x8f9e64d4dab8d957, ""},
	"lp/r=3/nc=0.2/mc=false/seed=3":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 489, Iterations: 20, Successes: 1, Failures: 18, DirectSolve: false}, Eps: 0.001228010499546796, MaxExponent: 1}, 0xef1a223883926801, 0xdaaa4726fc4180dc, ""},
	"lp/r=3/nc=0.2/mc=false/seed=4":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 489, Iterations: 5, Successes: 1, Failures: 3, DirectSolve: false}, Eps: 0.001228010499546796, MaxExponent: 1}, 0x50b48816e6f282e3, 0xc6c7dcc0f88be62a, ""},
	"lp/r=3/nc=0.2/mc=false/seed=5":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 489, Iterations: 9, Successes: 2, Failures: 6, DirectSolve: false}, Eps: 0.001228010499546796, MaxExponent: 1}, 0x2be41ad870a35494, 0xcf75500e021d8f25, ""},
	"lp/r=3/nc=0.2/mc=true/seed=1":   {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 3001, Iterations: 3, Successes: 2, Failures: 0, DirectSolve: false}, Eps: 0.001228010499546796, MaxExponent: 1}, 0x5854f603cc6aa752, 0x9e7523a07702a7a3, ""},
	"lp/r=3/nc=0.2/mc=true/seed=2":   {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 3001, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, Eps: 0.001228010499546796, MaxExponent: 1}, 0x2eb5b8339e15ff49, 0xcf75500e021d8f25, ""},
	"lp/r=3/nc=0.2/mc=true/seed=3":   {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 3001, Iterations: 1, Successes: 0, Failures: 1, DirectSolve: false}, Eps: 0.001228010499546796, MaxExponent: 0}, 0xf7c73d80664965c3, 0x0, "core: monte-carlo round failed (w(V) > ε·w(S))"},
	"lp/r=3/nc=0.2/mc=true/seed=4":   {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 3001, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, Eps: 0.001228010499546796, MaxExponent: 1}, 0x35e6f7ff4d621f7, 0x1fb49e74aa77d19b, ""},
	"lp/r=3/nc=0.2/mc=true/seed=5":   {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 3001, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, Eps: 0.001228010499546796, MaxExponent: 1}, 0xd64bb432331673ab, 0xa8655c9e0b97215e, ""},
	"meb/r=2/nc=0.5/mc=false/seed=1": {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 6364, Iterations: 5, Successes: 3, Failures: 1, DirectSolve: false}, Eps: 0.00023570226039551585, MaxExponent: 1}, 0x78b7f7951fe0ce8e, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.5/mc=false/seed=2": {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 6364, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, Eps: 0.00023570226039551585, MaxExponent: 1}, 0x5ecdf701c4fd6e2, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.5/mc=false/seed=3": {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 6364, Iterations: 7, Successes: 1, Failures: 5, DirectSolve: false}, Eps: 0.00023570226039551585, MaxExponent: 1}, 0xe6231fa60888090e, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.5/mc=false/seed=4": {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 6364, Iterations: 5, Successes: 2, Failures: 2, DirectSolve: false}, Eps: 0.00023570226039551585, MaxExponent: 1}, 0x6d66878797693988, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.5/mc=false/seed=5": {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 6364, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, Eps: 0.00023570226039551585, MaxExponent: 1}, 0xce1f1b4d197c33de, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.5/mc=true/seed=1":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.00023570226039551585, MaxExponent: 0}, 0xcbf29ce484222325, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.5/mc=true/seed=2":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.00023570226039551585, MaxExponent: 0}, 0xcbf29ce484222325, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.5/mc=true/seed=3":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.00023570226039551585, MaxExponent: 0}, 0xcbf29ce484222325, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.5/mc=true/seed=4":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.00023570226039551585, MaxExponent: 0}, 0xcbf29ce484222325, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.5/mc=true/seed=5":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.00023570226039551585, MaxExponent: 0}, 0xcbf29ce484222325, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.2/mc=false/seed=1": {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 2546, Iterations: 19, Successes: 1, Failures: 17, DirectSolve: false}, Eps: 0.00023570226039551585, MaxExponent: 1}, 0x95840de22cbbed5e, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.2/mc=false/seed=2": {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 2546, Iterations: 5, Successes: 2, Failures: 2, DirectSolve: false}, Eps: 0.00023570226039551585, MaxExponent: 1}, 0xf828b7e0a482f0cd, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.2/mc=false/seed=3": {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 2546, Iterations: 30, Successes: 0, Failures: 29, DirectSolve: false}, Eps: 0.00023570226039551585, MaxExponent: 0}, 0x36be8dbbb9a546d0, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.2/mc=false/seed=4": {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 2546, Iterations: 28, Successes: 2, Failures: 25, DirectSolve: false}, Eps: 0.00023570226039551585, MaxExponent: 1}, 0xb8298424fc06574, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.2/mc=false/seed=5": {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 2546, Iterations: 36, Successes: 2, Failures: 33, DirectSolve: false}, Eps: 0.00023570226039551585, MaxExponent: 1}, 0x83f605a72046058e, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.2/mc=true/seed=1":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.00023570226039551585, MaxExponent: 0}, 0xcbf29ce484222325, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.2/mc=true/seed=2":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.00023570226039551585, MaxExponent: 0}, 0xcbf29ce484222325, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.2/mc=true/seed=3":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.00023570226039551585, MaxExponent: 0}, 0xcbf29ce484222325, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.2/mc=true/seed=4":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.00023570226039551585, MaxExponent: 0}, 0xcbf29ce484222325, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.2/mc=true/seed=5":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.00023570226039551585, MaxExponent: 0}, 0xcbf29ce484222325, 0x6b14f40616399732, ""},
	"meb/r=3/nc=0.5/mc=false/seed=1": {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1222, Iterations: 21, Successes: 1, Failures: 19, DirectSolve: false}, Eps: 0.001228010499546796, MaxExponent: 1}, 0xb06b45bd5b7c18ff, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.5/mc=false/seed=2": {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1222, Iterations: 7, Successes: 1, Failures: 5, DirectSolve: false}, Eps: 0.001228010499546796, MaxExponent: 1}, 0xe14510ed044d6a81, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.5/mc=false/seed=3": {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1222, Iterations: 5, Successes: 2, Failures: 2, DirectSolve: false}, Eps: 0.001228010499546796, MaxExponent: 1}, 0x7f18e57308947e8a, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.5/mc=false/seed=4": {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1222, Iterations: 4, Successes: 2, Failures: 1, DirectSolve: false}, Eps: 0.001228010499546796, MaxExponent: 1}, 0xc1ca19ee6d70d6fa, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.5/mc=false/seed=5": {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1222, Iterations: 17, Successes: 1, Failures: 15, DirectSolve: false}, Eps: 0.001228010499546796, MaxExponent: 1}, 0x866ab055f07c2b73, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.5/mc=true/seed=1":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 7501, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, Eps: 0.001228010499546796, MaxExponent: 1}, 0xfff0bf002044a7fb, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.5/mc=true/seed=2":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 7501, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, Eps: 0.001228010499546796, MaxExponent: 1}, 0x35e6f7ff4d621f7, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.5/mc=true/seed=3":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 7501, Iterations: 3, Successes: 2, Failures: 0, DirectSolve: false}, Eps: 0.001228010499546796, MaxExponent: 1}, 0xd5b630bb85000340, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.5/mc=true/seed=4":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 7501, Iterations: 3, Successes: 2, Failures: 0, DirectSolve: false}, Eps: 0.001228010499546796, MaxExponent: 1}, 0xa3e0425d14299974, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.5/mc=true/seed=5":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 7501, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, Eps: 0.001228010499546796, MaxExponent: 1}, 0x2eb5b8339e15ff49, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.2/mc=false/seed=1": {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 489, Iterations: 50, Successes: 1, Failures: 48, DirectSolve: false}, Eps: 0.001228010499546796, MaxExponent: 1}, 0x37ce0ba8688e396b, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.2/mc=false/seed=2": {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 489, Iterations: 61, Successes: 2, Failures: 58, DirectSolve: false}, Eps: 0.001228010499546796, MaxExponent: 1}, 0x6bcc4874c2bd5b1c, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.2/mc=false/seed=3": {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 489, Iterations: 29, Successes: 2, Failures: 26, DirectSolve: false}, Eps: 0.001228010499546796, MaxExponent: 1}, 0x3750a7f7768a4826, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.2/mc=false/seed=4": {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 489, Iterations: 19, Successes: 1, Failures: 17, DirectSolve: false}, Eps: 0.001228010499546796, MaxExponent: 1}, 0x34f4a544c5180839, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.2/mc=false/seed=5": {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 489, Iterations: 49, Successes: 2, Failures: 46, DirectSolve: false}, Eps: 0.001228010499546796, MaxExponent: 1}, 0x2a465c35e73fe95e, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.2/mc=true/seed=1":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 3001, Iterations: 1, Successes: 0, Failures: 1, DirectSolve: false}, Eps: 0.001228010499546796, MaxExponent: 0}, 0x4a7423ffa0f6fd07, 0x0, "core: monte-carlo round failed (w(V) > ε·w(S))"},
	"meb/r=3/nc=0.2/mc=true/seed=2":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 3001, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, Eps: 0.001228010499546796, MaxExponent: 1}, 0xfca11b73e57a34f, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.2/mc=true/seed=3":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 3001, Iterations: 4, Successes: 3, Failures: 0, DirectSolve: false}, Eps: 0.001228010499546796, MaxExponent: 1}, 0xbce4637f6a52b9f3, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.2/mc=true/seed=4":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 3001, Iterations: 3, Successes: 2, Failures: 0, DirectSolve: false}, Eps: 0.001228010499546796, MaxExponent: 1}, 0x67731ae707144bd, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.2/mc=true/seed=5":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 3001, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, Eps: 0.001228010499546796, MaxExponent: 1}, 0xb70f27d99bea3147, 0x736c80d87ba7e992, ""},
	"sea/r=2/nc=0.5/mc=false/seed=1": {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.00014142135623730948, MaxExponent: 0}, 0xcbf29ce484222325, 0x76270b67485ae392, ""},
	"sea/r=2/nc=0.5/mc=false/seed=2": {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.00014142135623730948, MaxExponent: 0}, 0xcbf29ce484222325, 0x76270b67485ae392, ""},
	"sea/r=2/nc=0.5/mc=false/seed=3": {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.00014142135623730948, MaxExponent: 0}, 0xcbf29ce484222325, 0x76270b67485ae392, ""},
	"sea/r=2/nc=0.5/mc=false/seed=4": {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.00014142135623730948, MaxExponent: 0}, 0xcbf29ce484222325, 0x76270b67485ae392, ""},
	"sea/r=2/nc=0.5/mc=false/seed=5": {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.00014142135623730948, MaxExponent: 0}, 0xcbf29ce484222325, 0x76270b67485ae392, ""},
	"sea/r=2/nc=0.5/mc=true/seed=1":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.00014142135623730948, MaxExponent: 0}, 0xcbf29ce484222325, 0x76270b67485ae392, ""},
	"sea/r=2/nc=0.5/mc=true/seed=2":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.00014142135623730948, MaxExponent: 0}, 0xcbf29ce484222325, 0x76270b67485ae392, ""},
	"sea/r=2/nc=0.5/mc=true/seed=3":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.00014142135623730948, MaxExponent: 0}, 0xcbf29ce484222325, 0x76270b67485ae392, ""},
	"sea/r=2/nc=0.5/mc=true/seed=4":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.00014142135623730948, MaxExponent: 0}, 0xcbf29ce484222325, 0x76270b67485ae392, ""},
	"sea/r=2/nc=0.5/mc=true/seed=5":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.00014142135623730948, MaxExponent: 0}, 0xcbf29ce484222325, 0x76270b67485ae392, ""},
	"sea/r=2/nc=0.2/mc=false/seed=1": {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 5657, Iterations: 9, Successes: 2, Failures: 6, DirectSolve: false}, Eps: 0.00014142135623730948, MaxExponent: 1}, 0xfb46474261e69b07, 0x3959bdf3fc8d57b7, ""},
	"sea/r=2/nc=0.2/mc=false/seed=2": {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 5657, Iterations: 10, Successes: 2, Failures: 7, DirectSolve: false}, Eps: 0.00014142135623730948, MaxExponent: 1}, 0xbe292a80dc93831a, 0xca16534e63614e5a, ""},
	"sea/r=2/nc=0.2/mc=false/seed=3": {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 5657, Iterations: 89, Successes: 1, Failures: 87, DirectSolve: false}, Eps: 0.00014142135623730948, MaxExponent: 1}, 0xdad5439cfb30810f, 0xf99e39e4594385dd, ""},
	"sea/r=2/nc=0.2/mc=false/seed=4": {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 5657, Iterations: 14, Successes: 2, Failures: 11, DirectSolve: false}, Eps: 0.00014142135623730948, MaxExponent: 1}, 0x80212265a665a348, 0x3a85da91db37631, ""},
	"sea/r=2/nc=0.2/mc=false/seed=5": {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 5657, Iterations: 87, Successes: 3, Failures: 83, DirectSolve: false}, Eps: 0.00014142135623730948, MaxExponent: 1}, 0xfd2bdce8cab48793, 0xe97f8aa238e4a251, ""},
	"sea/r=2/nc=0.2/mc=true/seed=1":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.00014142135623730948, MaxExponent: 0}, 0xcbf29ce484222325, 0x76270b67485ae392, ""},
	"sea/r=2/nc=0.2/mc=true/seed=2":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.00014142135623730948, MaxExponent: 0}, 0xcbf29ce484222325, 0x76270b67485ae392, ""},
	"sea/r=2/nc=0.2/mc=true/seed=3":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.00014142135623730948, MaxExponent: 0}, 0xcbf29ce484222325, 0x76270b67485ae392, ""},
	"sea/r=2/nc=0.2/mc=true/seed=4":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.00014142135623730948, MaxExponent: 0}, 0xcbf29ce484222325, 0x76270b67485ae392, ""},
	"sea/r=2/nc=0.2/mc=true/seed=5":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.00014142135623730948, MaxExponent: 0}, 0xcbf29ce484222325, 0x76270b67485ae392, ""},
	"sea/r=3/nc=0.5/mc=false/seed=1": {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 2715, Iterations: 10, Successes: 4, Failures: 5, DirectSolve: false}, Eps: 0.0007368062997280775, MaxExponent: 1}, 0x77d0d8efe305c4e6, 0x884917497d6d6636, ""},
	"sea/r=3/nc=0.5/mc=false/seed=2": {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 2715, Iterations: 6, Successes: 2, Failures: 3, DirectSolve: false}, Eps: 0.0007368062997280775, MaxExponent: 1}, 0x8d5382b7187bbd4a, 0xb76d919c7715256e, ""},
	"sea/r=3/nc=0.5/mc=false/seed=3": {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 2715, Iterations: 9, Successes: 3, Failures: 5, DirectSolve: false}, Eps: 0.0007368062997280775, MaxExponent: 1}, 0x2108240291ddb12e, 0xa3a0b78b9149f5e7, ""},
	"sea/r=3/nc=0.5/mc=false/seed=4": {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 2715, Iterations: 19, Successes: 3, Failures: 15, DirectSolve: false}, Eps: 0.0007368062997280775, MaxExponent: 1}, 0xcdb8cb58917140c5, 0xa502108c8a94adaa, ""},
	"sea/r=3/nc=0.5/mc=false/seed=5": {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 2715, Iterations: 11, Successes: 2, Failures: 8, DirectSolve: false}, Eps: 0.0007368062997280775, MaxExponent: 1}, 0x22a6dcf92803ff10, 0x8554d3dda53e846e, ""},
	"sea/r=3/nc=0.5/mc=true/seed=1":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.0007368062997280775, MaxExponent: 0}, 0xcbf29ce484222325, 0xd37394610b5dc84f, ""},
	"sea/r=3/nc=0.5/mc=true/seed=2":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.0007368062997280775, MaxExponent: 0}, 0xcbf29ce484222325, 0xd37394610b5dc84f, ""},
	"sea/r=3/nc=0.5/mc=true/seed=3":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.0007368062997280775, MaxExponent: 0}, 0xcbf29ce484222325, 0xd37394610b5dc84f, ""},
	"sea/r=3/nc=0.5/mc=true/seed=4":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.0007368062997280775, MaxExponent: 0}, 0xcbf29ce484222325, 0xd37394610b5dc84f, ""},
	"sea/r=3/nc=0.5/mc=true/seed=5":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.0007368062997280775, MaxExponent: 0}, 0xcbf29ce484222325, 0xd37394610b5dc84f, ""},
	"sea/r=3/nc=0.2/mc=false/seed=1": {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1086, Iterations: 12, Successes: 3, Failures: 8, DirectSolve: false}, Eps: 0.0007368062997280775, MaxExponent: 1}, 0x55c1bbea6d0d96a8, 0xedf23c8e28a6d4a8, ""},
	"sea/r=3/nc=0.2/mc=false/seed=2": {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1086, Iterations: 162, Successes: 2, Failures: 159, DirectSolve: false}, Eps: 0.0007368062997280775, MaxExponent: 1}, 0x554b93070c4ba42f, 0xf1b82802975dd9d3, ""},
	"sea/r=3/nc=0.2/mc=false/seed=3": {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1086, Iterations: 29, Successes: 4, Failures: 24, DirectSolve: false}, Eps: 0.0007368062997280775, MaxExponent: 1}, 0xf820c152774a4f64, 0x8554d3dda53e846e, ""},
	"sea/r=3/nc=0.2/mc=false/seed=4": {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1086, Iterations: 58, Successes: 4, Failures: 53, DirectSolve: false}, Eps: 0.0007368062997280775, MaxExponent: 1}, 0xe8819024b50c105a, 0xa3a0b78b9149f5e7, ""},
	"sea/r=3/nc=0.2/mc=false/seed=5": {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1086, Iterations: 242, Successes: 4, Failures: 237, DirectSolve: false}, Eps: 0.0007368062997280775, MaxExponent: 1}, 0x74e89a3d2cd193f2, 0xdc14b58531707143, ""},
	"sea/r=3/nc=0.2/mc=true/seed=1":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 6977, Iterations: 4, Successes: 3, Failures: 0, DirectSolve: false}, Eps: 0.0007368062997280775, MaxExponent: 1}, 0x17f235f2cc62c91b, 0x8935d1dd8da84064, ""},
	"sea/r=3/nc=0.2/mc=true/seed=2":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 6977, Iterations: 1, Successes: 0, Failures: 1, DirectSolve: false}, Eps: 0.0007368062997280775, MaxExponent: 0}, 0x715619b50c5f91da, 0x0, "core: monte-carlo round failed (w(V) > ε·w(S))"},
	"sea/r=3/nc=0.2/mc=true/seed=3":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 6977, Iterations: 1, Successes: 0, Failures: 1, DirectSolve: false}, Eps: 0.0007368062997280775, MaxExponent: 0}, 0x715619b50c5f91da, 0x0, "core: monte-carlo round failed (w(V) > ε·w(S))"},
	"sea/r=3/nc=0.2/mc=true/seed=4":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 6977, Iterations: 4, Successes: 3, Failures: 0, DirectSolve: false}, Eps: 0.0007368062997280775, MaxExponent: 1}, 0x7c2c2a8b57acc9c3, 0x7ecb86d2b12954d4, ""},
	"sea/r=3/nc=0.2/mc=true/seed=5":  {core.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 6977, Iterations: 4, Successes: 3, Failures: 0, DirectSolve: false}, Eps: 0.0007368062997280775, MaxExponent: 1}, 0xdde8ec1e0d8a89f1, 0x66002e5f7e8a4616, ""},
	"lp/r=2/theory/seed=1":           {core.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, Eps: 0.00023570226039551585, MaxExponent: 0}, 0xcbf29ce484222325, 0xce4645eb3fcaeacf, ""},
}
