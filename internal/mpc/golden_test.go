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
		cc, bc := meb.PointCodec{Dim: d}, meb.BasisCodec{Dim: d}
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
					if got.stats.Iterations > 1 {
						iterated++
					}
					if want, ok := mpcGolden[key]; !ok || want != got {
						s := got.stats
						t.Errorf("golden drift (have the table line below; recorded: %v)\n\t%q: {Stats{N: %d, Machines: %d, Delta: %v, R: %d, FanOut: %d, Rounds: %d, MaxLoadBits: %d, TotalBits: %d, NetSize: %d, Iterations: %d, Successes: %d, Failures: %d}, %#x},",
							ok, key, s.N, s.Machines, s.Delta, s.R, s.FanOut, s.Rounds, s.MaxLoadBits, s.TotalBits, s.NetSize, s.Iterations, s.Successes, s.Failures, got.basis)
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
// old zero-means-8 default; the nc=0.2 rows are unchanged.
var mpcGolden = map[string]goldenRow{
	"lp/r=2/nc=0/seed=1":    {Stats{N: 600000, Machines: 775, Delta: 0.5, R: 2, FanOut: 775, Rounds: 11, MaxLoadBits: 16712640, TotalBits: 34267020, NetSize: 87143, Iterations: 3, Successes: 0, Failures: 1}, 0xa5567cf7c897cc74},
	"lp/r=2/nc=0/seed=2":    {Stats{N: 600000, Machines: 775, Delta: 0.5, R: 2, FanOut: 775, Rounds: 6, MaxLoadBits: 16710720, TotalBits: 17206854, NetSize: 87143, Iterations: 2, Successes: 0, Failures: 0}, 0xf315057e1e98c20e},
	"lp/r=2/nc=0/seed=3":    {Stats{N: 600000, Machines: 775, Delta: 0.5, R: 2, FanOut: 775, Rounds: 6, MaxLoadBits: 16709184, TotalBits: 17205318, NetSize: 87143, Iterations: 2, Successes: 0, Failures: 0}, 0x5e3cc54677e2008},
	"lp/r=2/nc=0/seed=4":    {Stats{N: 600000, Machines: 775, Delta: 0.5, R: 2, FanOut: 775, Rounds: 6, MaxLoadBits: 16708992, TotalBits: 17205126, NetSize: 87143, Iterations: 2, Successes: 0, Failures: 0}, 0xd4d2e9d284b68357},
	"lp/r=2/nc=0/seed=5":    {Stats{N: 600000, Machines: 775, Delta: 0.5, R: 2, FanOut: 775, Rounds: 11, MaxLoadBits: 16712256, TotalBits: 34265868, NetSize: 87143, Iterations: 3, Successes: 1, Failures: 0}, 0xd0ec3c7829f77dd5},
	"lp/r=2/nc=0.2/seed=1":  {Stats{N: 12000, Machines: 110, Delta: 0.5, R: 2, FanOut: 110, Rounds: 41, MaxLoadBits: 376320, TotalBits: 3414952, NetSize: 1972, Iterations: 9, Successes: 2, Failures: 5}, 0xd1ccfad8f4c37b3},
	"lp/r=2/nc=0.2/seed=2":  {Stats{N: 12000, Machines: 110, Delta: 0.5, R: 2, FanOut: 110, Rounds: 21, MaxLoadBits: 375936, TotalBits: 1718708, NetSize: 1972, Iterations: 5, Successes: 2, Failures: 1}, 0xfe8e7d4cd6fee9aa},
	"lp/r=2/nc=0.2/seed=3":  {Stats{N: 12000, Machines: 110, Delta: 0.5, R: 2, FanOut: 110, Rounds: 26, MaxLoadBits: 375744, TotalBits: 2140129, NetSize: 1972, Iterations: 6, Successes: 0, Failures: 4}, 0xae0f755b80e4146c},
	"lp/r=2/nc=0.2/seed=4":  {Stats{N: 12000, Machines: 110, Delta: 0.5, R: 2, FanOut: 110, Rounds: 41, MaxLoadBits: 376320, TotalBits: 3410728, NetSize: 1972, Iterations: 9, Successes: 2, Failures: 5}, 0xc938422fd4789967},
	"lp/r=2/nc=0.2/seed=5":  {Stats{N: 12000, Machines: 110, Delta: 0.5, R: 2, FanOut: 110, Rounds: 136, MaxLoadBits: 377280, TotalBits: 11470527, NetSize: 1972, Iterations: 28, Successes: 2, Failures: 24}, 0x41fb468f384627fb},
	"lp/r=3/nc=0/seed=1":    {Stats{N: 60000, Machines: 245, Delta: 0.5, R: 3, FanOut: 245, Rounds: 11, MaxLoadBits: 843264, TotalBits: 1951528, NetSize: 4405, Iterations: 3, Successes: 1, Failures: 0}, 0xd88e3537c84a958e},
	"lp/r=3/nc=0/seed=2":    {Stats{N: 60000, Machines: 245, Delta: 0.5, R: 3, FanOut: 245, Rounds: 16, MaxLoadBits: 843648, TotalBits: 2903964, NetSize: 4405, Iterations: 4, Successes: 2, Failures: 0}, 0x32677fc1eb621857},
	"lp/r=3/nc=0/seed=3":    {Stats{N: 60000, Machines: 245, Delta: 0.5, R: 3, FanOut: 245, Rounds: 16, MaxLoadBits: 843264, TotalBits: 2902812, NetSize: 4405, Iterations: 4, Successes: 2, Failures: 0}, 0xd95d2a015a881ef8},
	"lp/r=3/nc=0/seed=4":    {Stats{N: 60000, Machines: 245, Delta: 0.5, R: 3, FanOut: 245, Rounds: 11, MaxLoadBits: 841152, TotalBits: 1948264, NetSize: 4405, Iterations: 3, Successes: 1, Failures: 0}, 0x552ecc1945059dd6},
	"lp/r=3/nc=0/seed=5":    {Stats{N: 60000, Machines: 245, Delta: 0.5, R: 3, FanOut: 245, Rounds: 11, MaxLoadBits: 843840, TotalBits: 1952488, NetSize: 4405, Iterations: 3, Successes: 1, Failures: 0}, 0x257a8bff8c5a58e6},
	"lp/r=3/nc=0.2/seed=1":  {Stats{N: 12000, Machines: 110, Delta: 0.5, R: 3, FanOut: 110, Rounds: 26, MaxLoadBits: 79296, TotalBits: 659617, NetSize: 413, Iterations: 6, Successes: 1, Failures: 3}, 0xc9f870dbb942209e},
	"lp/r=3/nc=0.2/seed=2":  {Stats{N: 12000, Machines: 110, Delta: 0.5, R: 3, FanOut: 110, Rounds: 36, MaxLoadBits: 79104, TotalBits: 915131, NetSize: 413, Iterations: 8, Successes: 1, Failures: 5}, 0x54c6e4373c98fbe2},
	"lp/r=3/nc=0.2/seed=3":  {Stats{N: 12000, Machines: 110, Delta: 0.5, R: 3, FanOut: 110, Rounds: 151, MaxLoadBits: 79296, TotalBits: 3846534, NetSize: 413, Iterations: 31, Successes: 1, Failures: 28}, 0xc37cd3da37265602},
	"lp/r=3/nc=0.2/seed=4":  {Stats{N: 12000, Machines: 110, Delta: 0.5, R: 3, FanOut: 110, Rounds: 11, MaxLoadBits: 78720, TotalBits: 276058, NetSize: 413, Iterations: 3, Successes: 1, Failures: 0}, 0xc9f870dbb942209e},
	"lp/r=3/nc=0.2/seed=5":  {Stats{N: 12000, Machines: 110, Delta: 0.5, R: 3, FanOut: 110, Rounds: 41, MaxLoadBits: 79296, TotalBits: 1042216, NetSize: 413, Iterations: 9, Successes: 1, Failures: 6}, 0xc9f870dbb942209e},
	"meb/r=2/nc=0/seed=1":   {Stats{N: 600000, Machines: 775, Delta: 0.5, R: 2, FanOut: 775, Rounds: 11, MaxLoadBits: 11141760, TotalBits: 23125900, NetSize: 87143, Iterations: 3, Successes: 1, Failures: 0}, 0xc5c1834d0a29dceb},
	"meb/r=2/nc=0/seed=2":   {Stats{N: 600000, Machines: 775, Delta: 0.5, R: 2, FanOut: 775, Rounds: 26, MaxLoadBits: 11141888, TotalBits: 57592350, NetSize: 87143, Iterations: 6, Successes: 2, Failures: 2}, 0xe996027415b244d8},
	"meb/r=2/nc=0/seed=3":   {Stats{N: 600000, Machines: 775, Delta: 0.5, R: 2, FanOut: 775, Rounds: 16, MaxLoadBits: 11139456, TotalBits: 34608914, NetSize: 87143, Iterations: 4, Successes: 2, Failures: 0}, 0xe996027415b244d8},
	"meb/r=2/nc=0/seed=4":   {Stats{N: 600000, Machines: 775, Delta: 0.5, R: 2, FanOut: 775, Rounds: 11, MaxLoadBits: 11139328, TotalBits: 23121164, NetSize: 87143, Iterations: 3, Successes: 1, Failures: 0}, 0x3870985ed1ca1656},
	"meb/r=2/nc=0/seed=5":   {Stats{N: 600000, Machines: 775, Delta: 0.5, R: 2, FanOut: 775, Rounds: 11, MaxLoadBits: 11141504, TotalBits: 23125132, NetSize: 87143, Iterations: 3, Successes: 1, Failures: 0}, 0xe996027415b244d8},
	"meb/r=2/nc=0.2/seed=1": {Stats{N: 12000, Machines: 110, Delta: 0.5, R: 2, FanOut: 110, Rounds: 61, MaxLoadBits: 250880, TotalBits: 3609820, NetSize: 1972, Iterations: 13, Successes: 2, Failures: 9}, 0xe5be85b0566da026},
	"meb/r=2/nc=0.2/seed=2": {Stats{N: 12000, Machines: 110, Delta: 0.5, R: 2, FanOut: 110, Rounds: 136, MaxLoadBits: 251136, TotalBits: 8097663, NetSize: 1972, Iterations: 28, Successes: 2, Failures: 24}, 0xe5be85b0566da026},
	"meb/r=2/nc=0.2/seed=3": {Stats{N: 12000, Machines: 110, Delta: 0.5, R: 2, FanOut: 110, Rounds: 31, MaxLoadBits: 250752, TotalBits: 1814990, NetSize: 1972, Iterations: 7, Successes: 2, Failures: 3}, 0xe5be85b0566da026},
	"meb/r=2/nc=0.2/seed=4": {Stats{N: 12000, Machines: 110, Delta: 0.5, R: 2, FanOut: 110, Rounds: 96, MaxLoadBits: 250880, TotalBits: 5698327, NetSize: 1972, Iterations: 20, Successes: 2, Failures: 16}, 0xe5be85b0566da026},
	"meb/r=2/nc=0.2/seed=5": {Stats{N: 12000, Machines: 110, Delta: 0.5, R: 2, FanOut: 110, Rounds: 31, MaxLoadBits: 250880, TotalBits: 1815630, NetSize: 1972, Iterations: 7, Successes: 1, Failures: 4}, 0xe5be85b0566da026},
	"meb/r=3/nc=0/seed=1":   {Stats{N: 60000, Machines: 245, Delta: 0.5, R: 3, FanOut: 245, Rounds: 11, MaxLoadBits: 561536, TotalBits: 1388776, NetSize: 4405, Iterations: 3, Successes: 1, Failures: 0}, 0xc80caa09a8fdb26},
	"meb/r=3/nc=0/seed=2":   {Stats{N: 60000, Machines: 245, Delta: 0.5, R: 3, FanOut: 245, Rounds: 26, MaxLoadBits: 562944, TotalBits: 3405124, NetSize: 4405, Iterations: 6, Successes: 2, Failures: 2}, 0x954b5038c8de156a},
	"meb/r=3/nc=0/seed=3":   {Stats{N: 60000, Machines: 245, Delta: 0.5, R: 3, FanOut: 245, Rounds: 21, MaxLoadBits: 561536, TotalBits: 2729808, NetSize: 4405, Iterations: 5, Successes: 3, Failures: 0}, 0x954b5038c8de156a},
	"meb/r=3/nc=0/seed=4":   {Stats{N: 60000, Machines: 245, Delta: 0.5, R: 3, FanOut: 245, Rounds: 16, MaxLoadBits: 560768, TotalBits: 2057436, NetSize: 4405, Iterations: 4, Successes: 2, Failures: 0}, 0x80ed0629315c2434},
	"meb/r=3/nc=0/seed=5":   {Stats{N: 60000, Machines: 245, Delta: 0.5, R: 3, FanOut: 245, Rounds: 21, MaxLoadBits: 562560, TotalBits: 2731344, NetSize: 4405, Iterations: 5, Successes: 3, Failures: 0}, 0xc80caa09a8fdb26},
	"meb/r=3/nc=0.2/seed=1": {Stats{N: 12000, Machines: 110, Delta: 0.5, R: 3, FanOut: 110, Rounds: 91, MaxLoadBits: 52864, TotalBits: 1844202, NetSize: 413, Iterations: 19, Successes: 2, Failures: 15}, 0x650f0aef1e26edbb},
	"meb/r=3/nc=0.2/seed=2": {Stats{N: 12000, Machines: 110, Delta: 0.5, R: 3, FanOut: 110, Rounds: 56, MaxLoadBits: 52736, TotalBits: 1136303, NetSize: 413, Iterations: 12, Successes: 2, Failures: 8}, 0x5da1a09dbc060b5b},
	"meb/r=3/nc=0.2/seed=3": {Stats{N: 12000, Machines: 110, Delta: 0.5, R: 3, FanOut: 110, Rounds: 141, MaxLoadBits: 52864, TotalBits: 2857260, NetSize: 413, Iterations: 29, Successes: 1, Failures: 26}, 0x2e270519b4b71e16},
	"meb/r=3/nc=0.2/seed=4": {Stats{N: 12000, Machines: 110, Delta: 0.5, R: 3, FanOut: 110, Rounds: 191, MaxLoadBits: 52736, TotalBits: 3869038, NetSize: 413, Iterations: 39, Successes: 2, Failures: 35}, 0xbf456d5fa585a200},
	"meb/r=3/nc=0.2/seed=5": {Stats{N: 12000, Machines: 110, Delta: 0.5, R: 3, FanOut: 110, Rounds: 131, MaxLoadBits: 52864, TotalBits: 2652498, NetSize: 413, Iterations: 27, Successes: 2, Failures: 23}, 0x39cdce6a5a7b4ebf},
}
