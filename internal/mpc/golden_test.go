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

// goldenN picks an input size just past the ship-all threshold
// (m < n) for the run's r and net constant, so every recorded run
// iterates: at the default constant (8) the net is 40× the NetConst
// 0.2 one, and r = 2 needs n in the hundreds of thousands.
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
// configuration the engine runs. The r = 2 default-constant rows need
// n = 600 000 to iterate and are skipped under -short. A row that
// moves on purpose is re-recorded from the failure message, which
// prints the run as a table line.
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

// Recorded at f3e6e3b (the parent of the SiteWeights change).
var mpcGolden = map[string]goldenRow{
	"lp/r=2/nc=0/seed=1":    {Stats{N: 600000, Machines: 775, Delta: 0.5, R: 2, FanOut: 775, Rounds: 6, MaxLoadBits: 106939392, TotalBits: 107435526, NetSize: 557710, Iterations: 2, Successes: 0, Failures: 0}, 0xbadcae3630605e93},
	"lp/r=2/nc=0/seed=2":    {Stats{N: 600000, Machines: 775, Delta: 0.5, R: 2, FanOut: 775, Rounds: 6, MaxLoadBits: 106950528, TotalBits: 107446662, NetSize: 557710, Iterations: 2, Successes: 0, Failures: 0}, 0xd4f3b31bb6fadadb},
	"lp/r=2/nc=0/seed=3":    {Stats{N: 600000, Machines: 775, Delta: 0.5, R: 2, FanOut: 775, Rounds: 6, MaxLoadBits: 106936320, TotalBits: 107432454, NetSize: 557710, Iterations: 2, Successes: 0, Failures: 0}, 0x6194a58d8b4aa19},
	"lp/r=2/nc=0/seed=4":    {Stats{N: 600000, Machines: 775, Delta: 0.5, R: 2, FanOut: 775, Rounds: 6, MaxLoadBits: 106944576, TotalBits: 107440710, NetSize: 557710, Iterations: 2, Successes: 0, Failures: 0}, 0xd789af7301e029d1},
	"lp/r=2/nc=0/seed=5":    {Stats{N: 600000, Machines: 775, Delta: 0.5, R: 2, FanOut: 775, Rounds: 6, MaxLoadBits: 106938432, TotalBits: 107434566, NetSize: 557710, Iterations: 2, Successes: 0, Failures: 0}, 0xc221de1ad33515fe},
	"lp/r=2/nc=0.2/seed=1":  {Stats{N: 12000, Machines: 110, Delta: 0.5, R: 2, FanOut: 110, Rounds: 41, MaxLoadBits: 376320, TotalBits: 3414952, NetSize: 1972, Iterations: 9, Successes: 2, Failures: 5}, 0xd1ccfad8f4c37b3},
	"lp/r=2/nc=0.2/seed=2":  {Stats{N: 12000, Machines: 110, Delta: 0.5, R: 2, FanOut: 110, Rounds: 21, MaxLoadBits: 375936, TotalBits: 1718708, NetSize: 1972, Iterations: 5, Successes: 2, Failures: 1}, 0xfe8e7d4cd6fee9aa},
	"lp/r=2/nc=0.2/seed=3":  {Stats{N: 12000, Machines: 110, Delta: 0.5, R: 2, FanOut: 110, Rounds: 26, MaxLoadBits: 375744, TotalBits: 2140129, NetSize: 1972, Iterations: 6, Successes: 0, Failures: 4}, 0xae0f755b80e4146c},
	"lp/r=2/nc=0.2/seed=4":  {Stats{N: 12000, Machines: 110, Delta: 0.5, R: 2, FanOut: 110, Rounds: 41, MaxLoadBits: 376320, TotalBits: 3410728, NetSize: 1972, Iterations: 9, Successes: 2, Failures: 5}, 0xc938422fd4789967},
	"lp/r=2/nc=0.2/seed=5":  {Stats{N: 12000, Machines: 110, Delta: 0.5, R: 2, FanOut: 110, Rounds: 136, MaxLoadBits: 377280, TotalBits: 11470527, NetSize: 1972, Iterations: 28, Successes: 2, Failures: 24}, 0x41fb468f384627fb},
	"lp/r=3/nc=0/seed=1":    {Stats{N: 60000, Machines: 245, Delta: 0.5, R: 3, FanOut: 245, Rounds: 16, MaxLoadBits: 5393280, TotalBits: 16553436, NetSize: 28188, Iterations: 4, Successes: 2, Failures: 0}, 0xfd99183edf7d06d1},
	"lp/r=3/nc=0/seed=2":    {Stats{N: 60000, Machines: 245, Delta: 0.5, R: 3, FanOut: 245, Rounds: 11, MaxLoadBits: 5393472, TotalBits: 11049064, NetSize: 28188, Iterations: 3, Successes: 1, Failures: 0}, 0xac5cb03fcdbcc9c5},
	"lp/r=3/nc=0/seed=3":    {Stats{N: 60000, Machines: 245, Delta: 0.5, R: 3, FanOut: 245, Rounds: 6, MaxLoadBits: 5390400, TotalBits: 5546804, NetSize: 28188, Iterations: 2, Successes: 0, Failures: 0}, 0xb8ee04cb21658df0},
	"lp/r=3/nc=0/seed=4":    {Stats{N: 60000, Machines: 245, Delta: 0.5, R: 3, FanOut: 245, Rounds: 16, MaxLoadBits: 5389248, TotalBits: 16540188, NetSize: 28188, Iterations: 4, Successes: 2, Failures: 0}, 0x985b66415f7d0504},
	"lp/r=3/nc=0/seed=5":    {Stats{N: 60000, Machines: 245, Delta: 0.5, R: 3, FanOut: 245, Rounds: 6, MaxLoadBits: 5391360, TotalBits: 5547764, NetSize: 28188, Iterations: 2, Successes: 0, Failures: 0}, 0x235e9009830d53cc},
	"lp/r=3/nc=0.2/seed=1":  {Stats{N: 12000, Machines: 110, Delta: 0.5, R: 3, FanOut: 110, Rounds: 26, MaxLoadBits: 79296, TotalBits: 659617, NetSize: 413, Iterations: 6, Successes: 1, Failures: 3}, 0xc9f870dbb942209e},
	"lp/r=3/nc=0.2/seed=2":  {Stats{N: 12000, Machines: 110, Delta: 0.5, R: 3, FanOut: 110, Rounds: 36, MaxLoadBits: 79104, TotalBits: 915131, NetSize: 413, Iterations: 8, Successes: 1, Failures: 5}, 0x54c6e4373c98fbe2},
	"lp/r=3/nc=0.2/seed=3":  {Stats{N: 12000, Machines: 110, Delta: 0.5, R: 3, FanOut: 110, Rounds: 151, MaxLoadBits: 79296, TotalBits: 3846534, NetSize: 413, Iterations: 31, Successes: 1, Failures: 28}, 0xc37cd3da37265602},
	"lp/r=3/nc=0.2/seed=4":  {Stats{N: 12000, Machines: 110, Delta: 0.5, R: 3, FanOut: 110, Rounds: 11, MaxLoadBits: 78720, TotalBits: 276058, NetSize: 413, Iterations: 3, Successes: 1, Failures: 0}, 0xc9f870dbb942209e},
	"lp/r=3/nc=0.2/seed=5":  {Stats{N: 12000, Machines: 110, Delta: 0.5, R: 3, FanOut: 110, Rounds: 41, MaxLoadBits: 79296, TotalBits: 1042216, NetSize: 413, Iterations: 9, Successes: 1, Failures: 6}, 0xc9f870dbb942209e},
	"meb/r=2/nc=0/seed=1":   {Stats{N: 600000, Machines: 775, Delta: 0.5, R: 2, FanOut: 775, Rounds: 11, MaxLoadBits: 71293824, TotalBits: 143430412, NetSize: 557710, Iterations: 3, Successes: 1, Failures: 0}, 0xc5c1834d0a29dceb},
	"meb/r=2/nc=0/seed=2":   {Stats{N: 600000, Machines: 775, Delta: 0.5, R: 2, FanOut: 775, Rounds: 21, MaxLoadBits: 71300352, TotalBits: 286728216, NetSize: 557710, Iterations: 5, Successes: 3, Failures: 0}, 0x3870985ed1ca1656},
	"meb/r=2/nc=0/seed=3":   {Stats{N: 600000, Machines: 775, Delta: 0.5, R: 2, FanOut: 775, Rounds: 6, MaxLoadBits: 71290880, TotalBits: 71787014, NetSize: 557710, Iterations: 2, Successes: 0, Failures: 0}, 0x3c0c004c35930fff},
	"meb/r=2/nc=0/seed=4":   {Stats{N: 600000, Machines: 775, Delta: 0.5, R: 2, FanOut: 775, Rounds: 11, MaxLoadBits: 71296384, TotalBits: 143429132, NetSize: 557710, Iterations: 3, Successes: 1, Failures: 0}, 0x3bff591468a1dcd3},
	"meb/r=2/nc=0/seed=5":   {Stats{N: 600000, Machines: 775, Delta: 0.5, R: 2, FanOut: 775, Rounds: 6, MaxLoadBits: 71292288, TotalBits: 71788422, NetSize: 557710, Iterations: 2, Successes: 0, Failures: 0}, 0x7738660f6cc57054},
	"meb/r=2/nc=0.2/seed=1": {Stats{N: 12000, Machines: 110, Delta: 0.5, R: 2, FanOut: 110, Rounds: 61, MaxLoadBits: 250880, TotalBits: 3609820, NetSize: 1972, Iterations: 13, Successes: 2, Failures: 9}, 0xe5be85b0566da026},
	"meb/r=2/nc=0.2/seed=2": {Stats{N: 12000, Machines: 110, Delta: 0.5, R: 2, FanOut: 110, Rounds: 136, MaxLoadBits: 251136, TotalBits: 8097663, NetSize: 1972, Iterations: 28, Successes: 2, Failures: 24}, 0xe5be85b0566da026},
	"meb/r=2/nc=0.2/seed=3": {Stats{N: 12000, Machines: 110, Delta: 0.5, R: 2, FanOut: 110, Rounds: 31, MaxLoadBits: 250752, TotalBits: 1814990, NetSize: 1972, Iterations: 7, Successes: 2, Failures: 3}, 0xe5be85b0566da026},
	"meb/r=2/nc=0.2/seed=4": {Stats{N: 12000, Machines: 110, Delta: 0.5, R: 2, FanOut: 110, Rounds: 96, MaxLoadBits: 250880, TotalBits: 5698327, NetSize: 1972, Iterations: 20, Successes: 2, Failures: 16}, 0xe5be85b0566da026},
	"meb/r=2/nc=0.2/seed=5": {Stats{N: 12000, Machines: 110, Delta: 0.5, R: 2, FanOut: 110, Rounds: 31, MaxLoadBits: 250880, TotalBits: 1815630, NetSize: 1972, Iterations: 7, Successes: 1, Failures: 4}, 0xe5be85b0566da026},
	"meb/r=3/nc=0/seed=1":   {Stats{N: 60000, Machines: 245, Delta: 0.5, R: 3, FanOut: 245, Rounds: 16, MaxLoadBits: 3595520, TotalBits: 11160796, NetSize: 28188, Iterations: 4, Successes: 2, Failures: 0}, 0x954b5038c8de156a},
	"meb/r=3/nc=0/seed=2":   {Stats{N: 60000, Machines: 245, Delta: 0.5, R: 3, FanOut: 245, Rounds: 16, MaxLoadBits: 3595648, TotalBits: 11157340, NetSize: 28188, Iterations: 4, Successes: 2, Failures: 0}, 0x954b5038c8de156a},
	"meb/r=3/nc=0/seed=3":   {Stats{N: 60000, Machines: 245, Delta: 0.5, R: 3, FanOut: 245, Rounds: 11, MaxLoadBits: 3593600, TotalBits: 7451240, NetSize: 28188, Iterations: 3, Successes: 1, Failures: 0}, 0x954b5038c8de156a},
	"meb/r=3/nc=0/seed=4":   {Stats{N: 60000, Machines: 245, Delta: 0.5, R: 3, FanOut: 245, Rounds: 11, MaxLoadBits: 3591936, TotalBits: 7449832, NetSize: 28188, Iterations: 3, Successes: 1, Failures: 0}, 0x1593dff222999be9},
	"meb/r=3/nc=0/seed=5":   {Stats{N: 60000, Machines: 245, Delta: 0.5, R: 3, FanOut: 245, Rounds: 11, MaxLoadBits: 3594368, TotalBits: 7454568, NetSize: 28188, Iterations: 3, Successes: 1, Failures: 0}, 0x8340529620b4b84a},
	"meb/r=3/nc=0.2/seed=1": {Stats{N: 12000, Machines: 110, Delta: 0.5, R: 3, FanOut: 110, Rounds: 91, MaxLoadBits: 52864, TotalBits: 1844202, NetSize: 413, Iterations: 19, Successes: 2, Failures: 15}, 0x650f0aef1e26edbb},
	"meb/r=3/nc=0.2/seed=2": {Stats{N: 12000, Machines: 110, Delta: 0.5, R: 3, FanOut: 110, Rounds: 56, MaxLoadBits: 52736, TotalBits: 1136303, NetSize: 413, Iterations: 12, Successes: 2, Failures: 8}, 0x5da1a09dbc060b5b},
	"meb/r=3/nc=0.2/seed=3": {Stats{N: 12000, Machines: 110, Delta: 0.5, R: 3, FanOut: 110, Rounds: 141, MaxLoadBits: 52864, TotalBits: 2857260, NetSize: 413, Iterations: 29, Successes: 1, Failures: 26}, 0x2e270519b4b71e16},
	"meb/r=3/nc=0.2/seed=4": {Stats{N: 12000, Machines: 110, Delta: 0.5, R: 3, FanOut: 110, Rounds: 191, MaxLoadBits: 52736, TotalBits: 3869038, NetSize: 413, Iterations: 39, Successes: 2, Failures: 35}, 0xbf456d5fa585a200},
	"meb/r=3/nc=0.2/seed=5": {Stats{N: 12000, Machines: 110, Delta: 0.5, R: 3, FanOut: 110, Rounds: 131, MaxLoadBits: 52864, TotalBits: 2652498, NetSize: 413, Iterations: 27, Successes: 2, Failures: 23}, 0x39cdce6a5a7b4ebf},
}
