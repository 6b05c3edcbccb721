package mpc

import (
	"fmt"
	"hash/fnv"
	"testing"

	"lowdimlp/internal/comm"
	"lowdimlp/internal/core"
	"lowdimlp/internal/lp"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/meb"
	"lowdimlp/internal/numeric"
)

// goldenRow is one recorded MPC run: every Stats field and a hash of
// the rendered basis (the basis codec's bytes, then each basis
// constraint through the item codec — all Float64bits).
type goldenRow struct {
	stats Stats
	basis uint64
}

// goldenN picks an input size past the ship-all threshold (n > 2m+1)
// for the run's r and net constant, so every recorded run iterates.
func goldenN(r int, netConst float64) int {
	switch {
	case netConst > 0:
		return 12000
	case r == 2:
		return 600000
	}
	return 60000
}

func renderBasis[C, B any](dom lptype.Domain[C, B], cc comm.Codec[C], bc comm.Codec[B], b B) uint64 {
	buf := bc.Append(nil, b)
	for _, c := range dom.Basis(b) {
		buf = cc.Append(buf, c)
	}
	h := fnv.New64a()
	h.Write(buf)
	return h.Sum64()
}

func goldenRun(t *testing.T, kind string, r int, seed uint64, netConst float64) goldenRow {
	t.Helper()
	const d = 2
	n := goldenN(r, netConst)
	opt := Options{Core: core.Options{R: r, Seed: seed, NetConst: netConst}}
	switch kind {
	case "lp":
		p, cons := sphereLP(d, n, 900+uint64(r))
		dom := lp.NewDomain(p, 7)
		cc, bc := lpCodecs(d)
		b, stats, err := solveTyped(dom, cons, cc, bc, opt)
		if err != nil {
			t.Fatalf("%s r=%d seed=%d nc=%v: %v", kind, r, seed, netConst, err)
		}
		return goldenRow{stats, renderBasis(dom, cc, bc, b)}
	case "meb":
		rng := numeric.NewRand(700+uint64(r), 3)
		pts := make([]meb.Point, n)
		for i := range pts {
			pts[i] = meb.Point{rng.NormFloat64(), rng.NormFloat64()}
		}
		dom := meb.NewDomain(d)
		cc, bc := mebCodecs(d)
		b, stats, err := solveTyped(dom, pts, cc, bc, opt)
		if err != nil {
			t.Fatalf("%s r=%d seed=%d nc=%v: %v", kind, r, seed, netConst, err)
		}
		return goldenRow{stats, renderBasis(dom, cc, bc, b)}
	}
	panic("goldenRun: unknown kind")
}

// TestMPCGolden pins the MPC driver against runs recorded on the
// commit before machines began keeping their weights
// (lptype.SiteWeights): every Stats field with ==, the rendered basis
// bit for bit. NetConst 0.2 makes iterations fail and machines
// accumulate several successful bases; the default constant is the
// configuration the engine runs. The r = 2 default-constant rows run at
// n = 600 000 and are skipped under -short. A row that moves on purpose
// is re-recorded from the failure message, which prints the run as a
// table line.
func TestMPCGolden(t *testing.T) {
	iterated := 0
	for _, kind := range []string{"lp", "meb"} {
		for _, r := range []int{2, 3} {
			for _, netConst := range []float64{0, 0.2} {
				if testing.Short() && goldenN(r, netConst) > 100000 {
					continue
				}
				for seed := uint64(1); seed <= 5; seed++ {
					key := fmt.Sprintf("%s/r=%d/nc=%v/seed=%d", kind, r, netConst, seed)
					got := goldenRun(t, kind, r, seed, netConst)
					if got.stats.Iterations > 0 {
						iterated++
					}
					if want, ok := mpcGolden[key]; !ok || want != got {
						s := got.stats
						t.Errorf("golden drift (have the table line below; recorded: %v)\n\t%q: {Stats{RunStats: core.RunStats{N: %d, R: %d, NetSize: %d, Iterations: %d, Successes: %d, Failures: %d, DirectSolve: %v}, Machines: %d, Delta: %v, FanOut: %d, Rounds: %d, MaxLoadBits: %d, TotalBits: %d}, %#x},",
							ok, key, s.N, s.R, s.NetSize, s.Iterations, s.Successes, s.Failures, s.DirectSolve, s.Machines, s.Delta, s.FanOut, s.Rounds, s.MaxLoadBits, s.TotalBits, got.basis)
					}
				}
			}
		}
	}
	if iterated == 0 {
		t.Fatal("no recorded run iterates: the goldens pin nothing")
	}
}

// Recorded at f3e6e3b (the parent of the SiteWeights change). The
// nc=0 rows were re-recorded when core.DefaultNetConst replaced the
// old zero-means-8 default; the nc=0.2 rows are unchanged. Every row
// was re-recorded when Iterations came to mean nets solved on every
// backend (it counted weight aggregations at the root): Iterations is
// one lower, and no other field moved. Re-recorded when lp came to
// solve by lptype.SolvePivot over a Seidel that keeps its box: the
// basis hash of 18 rows moved in its last bits, and no Stats field.
// Re-recorded when SolvePivot came to solve its sample by itself: the
// basis hash of 12 rows moved, and no Stats field.
var mpcGolden = map[string]goldenRow{
	"lp/r=2/nc=0/seed=1":    {Stats{RunStats: core.RunStats{N: 600000, R: 2, NetSize: 87143, Iterations: 2, Successes: 0, Failures: 1, DirectSolve: false}, Machines: 775, Delta: 0.5, FanOut: 775, Rounds: 11, MaxLoadBits: 16712640, TotalBits: 34267020}, 0xe7b3d824d8749fca},
	"lp/r=2/nc=0/seed=2":    {Stats{RunStats: core.RunStats{N: 600000, R: 2, NetSize: 87143, Iterations: 1, Successes: 0, Failures: 0, DirectSolve: false}, Machines: 775, Delta: 0.5, FanOut: 775, Rounds: 6, MaxLoadBits: 16710720, TotalBits: 17206854}, 0xbf3434138290de37},
	"lp/r=2/nc=0/seed=3":    {Stats{RunStats: core.RunStats{N: 600000, R: 2, NetSize: 87143, Iterations: 1, Successes: 0, Failures: 0, DirectSolve: false}, Machines: 775, Delta: 0.5, FanOut: 775, Rounds: 6, MaxLoadBits: 16709184, TotalBits: 17205318}, 0xca5f5b5af534323a},
	"lp/r=2/nc=0/seed=4":    {Stats{RunStats: core.RunStats{N: 600000, R: 2, NetSize: 87143, Iterations: 1, Successes: 0, Failures: 0, DirectSolve: false}, Machines: 775, Delta: 0.5, FanOut: 775, Rounds: 6, MaxLoadBits: 16708992, TotalBits: 17205126}, 0x8de5db449a95be1c},
	"lp/r=2/nc=0/seed=5":    {Stats{RunStats: core.RunStats{N: 600000, R: 2, NetSize: 87143, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, Machines: 775, Delta: 0.5, FanOut: 775, Rounds: 11, MaxLoadBits: 16712256, TotalBits: 34265868}, 0xb816b238705e8499},
	"lp/r=2/nc=0.2/seed=1":  {Stats{RunStats: core.RunStats{N: 12000, R: 2, NetSize: 1972, Iterations: 8, Successes: 2, Failures: 5, DirectSolve: false}, Machines: 110, Delta: 0.5, FanOut: 110, Rounds: 41, MaxLoadBits: 376320, TotalBits: 3414952}, 0xa7944498a318f49c},
	"lp/r=2/nc=0.2/seed=2":  {Stats{RunStats: core.RunStats{N: 12000, R: 2, NetSize: 1972, Iterations: 4, Successes: 2, Failures: 1, DirectSolve: false}, Machines: 110, Delta: 0.5, FanOut: 110, Rounds: 21, MaxLoadBits: 375936, TotalBits: 1718708}, 0x7348fdda2df357a3},
	"lp/r=2/nc=0.2/seed=3":  {Stats{RunStats: core.RunStats{N: 12000, R: 2, NetSize: 1972, Iterations: 5, Successes: 0, Failures: 4, DirectSolve: false}, Machines: 110, Delta: 0.5, FanOut: 110, Rounds: 26, MaxLoadBits: 375744, TotalBits: 2140129}, 0xc9b9d2287e53b0e4},
	"lp/r=2/nc=0.2/seed=4":  {Stats{RunStats: core.RunStats{N: 12000, R: 2, NetSize: 1972, Iterations: 8, Successes: 2, Failures: 5, DirectSolve: false}, Machines: 110, Delta: 0.5, FanOut: 110, Rounds: 41, MaxLoadBits: 376320, TotalBits: 3410728}, 0xae0f755b80e4146c},
	"lp/r=2/nc=0.2/seed=5":  {Stats{RunStats: core.RunStats{N: 12000, R: 2, NetSize: 1972, Iterations: 27, Successes: 2, Failures: 24, DirectSolve: false}, Machines: 110, Delta: 0.5, FanOut: 110, Rounds: 136, MaxLoadBits: 377280, TotalBits: 11470527}, 0xae0f755b80e4146c},
	"lp/r=3/nc=0/seed=1":    {Stats{RunStats: core.RunStats{N: 60000, R: 3, NetSize: 4405, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, Machines: 245, Delta: 0.5, FanOut: 245, Rounds: 11, MaxLoadBits: 843264, TotalBits: 1951528}, 0xc259a968946c8f1f},
	"lp/r=3/nc=0/seed=2":    {Stats{RunStats: core.RunStats{N: 60000, R: 3, NetSize: 4405, Iterations: 3, Successes: 2, Failures: 0, DirectSolve: false}, Machines: 245, Delta: 0.5, FanOut: 245, Rounds: 16, MaxLoadBits: 843648, TotalBits: 2903964}, 0xa406bef7e9583f58},
	"lp/r=3/nc=0/seed=3":    {Stats{RunStats: core.RunStats{N: 60000, R: 3, NetSize: 4405, Iterations: 3, Successes: 2, Failures: 0, DirectSolve: false}, Machines: 245, Delta: 0.5, FanOut: 245, Rounds: 16, MaxLoadBits: 843264, TotalBits: 2902812}, 0xe72ae62048121a99},
	"lp/r=3/nc=0/seed=4":    {Stats{RunStats: core.RunStats{N: 60000, R: 3, NetSize: 4405, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, Machines: 245, Delta: 0.5, FanOut: 245, Rounds: 11, MaxLoadBits: 841152, TotalBits: 1948264}, 0xa406bef7e9583f58},
	"lp/r=3/nc=0/seed=5":    {Stats{RunStats: core.RunStats{N: 60000, R: 3, NetSize: 4405, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, Machines: 245, Delta: 0.5, FanOut: 245, Rounds: 11, MaxLoadBits: 843840, TotalBits: 1952488}, 0xfa0ce6086c69a207},
	"lp/r=3/nc=0.2/seed=1":  {Stats{RunStats: core.RunStats{N: 12000, R: 3, NetSize: 413, Iterations: 5, Successes: 1, Failures: 3, DirectSolve: false}, Machines: 110, Delta: 0.5, FanOut: 110, Rounds: 26, MaxLoadBits: 79296, TotalBits: 659617}, 0x54c6e4373c98fbe2},
	"lp/r=3/nc=0.2/seed=2":  {Stats{RunStats: core.RunStats{N: 12000, R: 3, NetSize: 413, Iterations: 7, Successes: 1, Failures: 5, DirectSolve: false}, Machines: 110, Delta: 0.5, FanOut: 110, Rounds: 36, MaxLoadBits: 79104, TotalBits: 915131}, 0x1e028ea438ac8098},
	"lp/r=3/nc=0.2/seed=3":  {Stats{RunStats: core.RunStats{N: 12000, R: 3, NetSize: 413, Iterations: 30, Successes: 1, Failures: 28, DirectSolve: false}, Machines: 110, Delta: 0.5, FanOut: 110, Rounds: 151, MaxLoadBits: 79296, TotalBits: 3846534}, 0xc9f870dbb942209e},
	"lp/r=3/nc=0.2/seed=4":  {Stats{RunStats: core.RunStats{N: 12000, R: 3, NetSize: 413, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, Machines: 110, Delta: 0.5, FanOut: 110, Rounds: 11, MaxLoadBits: 78720, TotalBits: 276058}, 0xc9f870dbb942209e},
	"lp/r=3/nc=0.2/seed=5":  {Stats{RunStats: core.RunStats{N: 12000, R: 3, NetSize: 413, Iterations: 8, Successes: 1, Failures: 6, DirectSolve: false}, Machines: 110, Delta: 0.5, FanOut: 110, Rounds: 41, MaxLoadBits: 79296, TotalBits: 1042216}, 0xee343f3d07ae4b8a},
	"meb/r=2/nc=0/seed=1":   {Stats{RunStats: core.RunStats{N: 600000, R: 2, NetSize: 87143, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, Machines: 775, Delta: 0.5, FanOut: 775, Rounds: 11, MaxLoadBits: 11141760, TotalBits: 23125900}, 0x8a002bdc52f6eab9},
	"meb/r=2/nc=0/seed=2":   {Stats{RunStats: core.RunStats{N: 600000, R: 2, NetSize: 87143, Iterations: 5, Successes: 2, Failures: 2, DirectSolve: false}, Machines: 775, Delta: 0.5, FanOut: 775, Rounds: 26, MaxLoadBits: 11141888, TotalBits: 57592350}, 0x8a002bdc52f6eab9},
	"meb/r=2/nc=0/seed=3":   {Stats{RunStats: core.RunStats{N: 600000, R: 2, NetSize: 87143, Iterations: 3, Successes: 2, Failures: 0, DirectSolve: false}, Machines: 775, Delta: 0.5, FanOut: 775, Rounds: 16, MaxLoadBits: 11139456, TotalBits: 34608914}, 0x8a002bdc52f6eab9},
	"meb/r=2/nc=0/seed=4":   {Stats{RunStats: core.RunStats{N: 600000, R: 2, NetSize: 87143, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, Machines: 775, Delta: 0.5, FanOut: 775, Rounds: 11, MaxLoadBits: 11139328, TotalBits: 23121164}, 0x8a002bdc52f6eab9},
	"meb/r=2/nc=0/seed=5":   {Stats{RunStats: core.RunStats{N: 600000, R: 2, NetSize: 87143, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, Machines: 775, Delta: 0.5, FanOut: 775, Rounds: 11, MaxLoadBits: 11141504, TotalBits: 23125132}, 0x8a002bdc52f6eab9},
	"meb/r=2/nc=0.2/seed=1": {Stats{RunStats: core.RunStats{N: 12000, R: 2, NetSize: 1972, Iterations: 12, Successes: 2, Failures: 9, DirectSolve: false}, Machines: 110, Delta: 0.5, FanOut: 110, Rounds: 61, MaxLoadBits: 250880, TotalBits: 3609820}, 0x7eb96e71f2995f97},
	"meb/r=2/nc=0.2/seed=2": {Stats{RunStats: core.RunStats{N: 12000, R: 2, NetSize: 1972, Iterations: 27, Successes: 2, Failures: 24, DirectSolve: false}, Machines: 110, Delta: 0.5, FanOut: 110, Rounds: 136, MaxLoadBits: 251136, TotalBits: 8097663}, 0x7eb96e71f2995f97},
	"meb/r=2/nc=0.2/seed=3": {Stats{RunStats: core.RunStats{N: 12000, R: 2, NetSize: 1972, Iterations: 6, Successes: 2, Failures: 3, DirectSolve: false}, Machines: 110, Delta: 0.5, FanOut: 110, Rounds: 31, MaxLoadBits: 250752, TotalBits: 1814990}, 0x7eb96e71f2995f97},
	"meb/r=2/nc=0.2/seed=4": {Stats{RunStats: core.RunStats{N: 12000, R: 2, NetSize: 1972, Iterations: 19, Successes: 2, Failures: 16, DirectSolve: false}, Machines: 110, Delta: 0.5, FanOut: 110, Rounds: 96, MaxLoadBits: 250880, TotalBits: 5698327}, 0x7eb96e71f2995f97},
	"meb/r=2/nc=0.2/seed=5": {Stats{RunStats: core.RunStats{N: 12000, R: 2, NetSize: 1972, Iterations: 6, Successes: 1, Failures: 4, DirectSolve: false}, Machines: 110, Delta: 0.5, FanOut: 110, Rounds: 31, MaxLoadBits: 250880, TotalBits: 1815630}, 0x7eb96e71f2995f97},
	"meb/r=3/nc=0/seed=1":   {Stats{RunStats: core.RunStats{N: 60000, R: 3, NetSize: 4405, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, Machines: 245, Delta: 0.5, FanOut: 245, Rounds: 11, MaxLoadBits: 561536, TotalBits: 1388776}, 0x3ce7fb4224020870},
	"meb/r=3/nc=0/seed=2":   {Stats{RunStats: core.RunStats{N: 60000, R: 3, NetSize: 4405, Iterations: 5, Successes: 2, Failures: 2, DirectSolve: false}, Machines: 245, Delta: 0.5, FanOut: 245, Rounds: 26, MaxLoadBits: 562944, TotalBits: 3405124}, 0x3ce7fb4224020870},
	"meb/r=3/nc=0/seed=3":   {Stats{RunStats: core.RunStats{N: 60000, R: 3, NetSize: 4405, Iterations: 4, Successes: 3, Failures: 0, DirectSolve: false}, Machines: 245, Delta: 0.5, FanOut: 245, Rounds: 21, MaxLoadBits: 561536, TotalBits: 2729808}, 0x3ce7fb4224020870},
	"meb/r=3/nc=0/seed=4":   {Stats{RunStats: core.RunStats{N: 60000, R: 3, NetSize: 4405, Iterations: 3, Successes: 2, Failures: 0, DirectSolve: false}, Machines: 245, Delta: 0.5, FanOut: 245, Rounds: 16, MaxLoadBits: 560768, TotalBits: 2057436}, 0x3ce7fb4224020870},
	"meb/r=3/nc=0/seed=5":   {Stats{RunStats: core.RunStats{N: 60000, R: 3, NetSize: 4405, Iterations: 4, Successes: 3, Failures: 0, DirectSolve: false}, Machines: 245, Delta: 0.5, FanOut: 245, Rounds: 21, MaxLoadBits: 562560, TotalBits: 2731344}, 0x3ce7fb4224020870},
	"meb/r=3/nc=0.2/seed=1": {Stats{RunStats: core.RunStats{N: 12000, R: 3, NetSize: 413, Iterations: 18, Successes: 2, Failures: 15, DirectSolve: false}, Machines: 110, Delta: 0.5, FanOut: 110, Rounds: 91, MaxLoadBits: 52864, TotalBits: 1844202}, 0x9d439f2efa7c8e9c},
	"meb/r=3/nc=0.2/seed=2": {Stats{RunStats: core.RunStats{N: 12000, R: 3, NetSize: 413, Iterations: 11, Successes: 2, Failures: 8, DirectSolve: false}, Machines: 110, Delta: 0.5, FanOut: 110, Rounds: 56, MaxLoadBits: 52736, TotalBits: 1136303}, 0x9d439f2efa7c8e9c},
	"meb/r=3/nc=0.2/seed=3": {Stats{RunStats: core.RunStats{N: 12000, R: 3, NetSize: 413, Iterations: 28, Successes: 1, Failures: 26, DirectSolve: false}, Machines: 110, Delta: 0.5, FanOut: 110, Rounds: 141, MaxLoadBits: 52864, TotalBits: 2857260}, 0x9d439f2efa7c8e9c},
	"meb/r=3/nc=0.2/seed=4": {Stats{RunStats: core.RunStats{N: 12000, R: 3, NetSize: 413, Iterations: 38, Successes: 2, Failures: 35, DirectSolve: false}, Machines: 110, Delta: 0.5, FanOut: 110, Rounds: 191, MaxLoadBits: 52736, TotalBits: 3869038}, 0x9d439f2efa7c8e9c},
	"meb/r=3/nc=0.2/seed=5": {Stats{RunStats: core.RunStats{N: 12000, R: 3, NetSize: 413, Iterations: 26, Successes: 2, Failures: 23, DirectSolve: false}, Machines: 110, Delta: 0.5, FanOut: 110, Rounds: 131, MaxLoadBits: 52864, TotalBits: 2652498}, 0x9d439f2efa7c8e9c},
}
