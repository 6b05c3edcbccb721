package coordinator_test

import (
	"errors"
	"fmt"
	"hash/fnv"
	"testing"

	"lowdimlp/internal/comm"
	"lowdimlp/internal/coordinator"
	"lowdimlp/internal/core"
	"lowdimlp/internal/dataset"
	"lowdimlp/internal/lp"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/meb"
	"lowdimlp/internal/models"
	"lowdimlp/internal/numeric"
	"lowdimlp/internal/sea"
)

// coordGoldenRow is one recorded loopback coordinator run: the whole
// Stats (compared with ==, so Rounds, TotalBits and Messages exactly),
// an FNV hash of the rendered basis (the basis codec's bytes, then each
// basis constraint through the item codec) and the error text.
type coordGoldenRow struct {
	stats coordinator.Stats
	basis uint64
	err   string
}

const (
	coordGoldenN = 20000
	coordGoldenK = 4
)

// coordGoldenStore builds the instance of one kind as rows: sphere-
// tangent halfspaces a·x ≤ 1 (lp) or standard-normal points in the
// plane (meb, sea).
func coordGoldenStore(kind string, r int) *dataset.Store {
	const d = 2
	switch kind {
	case "lp":
		rng := numeric.NewRand(900+uint64(r), 0xc002d)
		st := dataset.NewStore(d + 1)
		row := make([]float64, d+1)
		for i := 0; i < coordGoldenN; i++ {
			a := row[:d]
			for j := range a {
				a[j] = rng.NormFloat64()
			}
			nrm := numeric.Norm2(a)
			for j := range a {
				a[j] /= nrm
			}
			row[d] = 1
			st.AppendRow(row)
		}
		return st
	case "meb", "sea":
		seed := uint64(700)
		if kind == "sea" {
			seed = 500
		}
		rng := numeric.NewRand(seed+uint64(r), 3)
		st := dataset.NewStore(d)
		for i := 0; i < coordGoldenN; i++ {
			st.AppendRow([]float64{rng.NormFloat64(), rng.NormFloat64()})
		}
		return st
	}
	panic("coordGoldenStore: unknown kind")
}

func coordGoldenSolve[C, B any](
	ra lptype.RowAccess[C, B], st *dataset.Store, cc comm.RowCodec[C], bc comm.Codec[B],
	wrap func(comm.Transport) comm.Transport, opt coordinator.Options,
) (coordGoldenRow, error) {
	tr, closeSites := coordinator.Loopback(ra, st.View().Shard(coordGoldenK), bc)
	defer closeSites()
	if wrap != nil {
		tr = wrap(tr)
	}
	b, stats, err := coordinator.SolveTransport(ra.Domain(), tr, cc, bc, opt)
	row := coordGoldenRow{stats: stats}
	if err != nil {
		row.err = err.Error()
		return row, err
	}
	buf := bc.Append(nil, b)
	for _, c := range ra.Domain().Basis(b) {
		buf = cc.Append(buf, c)
	}
	h := fnv.New64a()
	h.Write(buf)
	row.basis = h.Sum64()
	return row, nil
}

func coordGoldenRun(kind string, r int, wrap func(comm.Transport) comm.Transport, opt coordinator.Options) (coordGoldenRow, error) {
	const d = 2
	st := coordGoldenStore(kind, r)
	switch kind {
	case "lp":
		obj := numeric.NewRand(900+uint64(r), 0x0b1)
		p := lp.NewProblem([]float64{obj.NormFloat64(), obj.NormFloat64()})
		ra := lptype.NewRowAccess[lp.Halfspace, lp.Basis](lp.NewDomain(p, 7),
			func(row []float64) lp.Halfspace { return lp.Halfspace{A: row[:d], B: row[d]} })
		return coordGoldenSolve(ra, st, models.LP.ItemCodec(d), lp.BasisCodec{Dim: d}, wrap, opt)
	case "meb":
		ra := lptype.NewRowAccess[meb.Point, meb.Basis](meb.NewDomain(d),
			func(row []float64) meb.Point { return meb.Point(row) })
		return coordGoldenSolve(ra, st, models.MEB.ItemCodec(d), meb.BasisCodec{Dim: d}, wrap, opt)
	case "sea":
		ra := lptype.NewRowAccess[sea.Point, sea.Basis](sea.NewDomain(d, 5),
			func(row []float64) sea.Point { return sea.Point(row) })
		return coordGoldenSolve(ra, st, sea.Spec.ItemCodec(d), sea.BasisCodec{Dim: d}, wrap, opt)
	}
	panic("coordGoldenRun: unknown kind")
}

// faultyTransport fails one site's nth frame of one type, without
// delivering it, the way a worker that dies mid-solve does.
type faultyTransport struct {
	comm.Transport
	site int
	typ  comm.FrameType
	nth  int
	seen int
}

var errInjected = errors.New("injected site failure")

func (f *faultyTransport) RoundTrip(site int, typ comm.FrameType, payload []byte) ([]byte, error) {
	if site == f.site && typ == f.typ {
		if f.seen++; f.seen == f.nth {
			return nil, &comm.TransportError{Site: site, Type: typ, Err: errInjected}
		}
	}
	return f.Transport.RoundTrip(site, typ, payload)
}

// TestCoordinatorGolden pins the coordinator driver over the loopback
// transport (4 round-robin sites) on lp, meb and sea × r ∈ {2, 3} × 5
// seeds × NetConst {0.5, 0.2} × Monte-Carlo off/on: the answer and
// every Stats field, Rounds, TotalBits and Messages included. Two fault
// rows fail site 1 on its 3rd round A and on its 2nd round B; they pin
// the returned error's site and frame type and the meter totals of the
// failed run (what SolveFleetElastic folds into a retried solve). A row
// that moves on purpose is re-recorded from the failure message, which
// prints the run as a table line.
func TestCoordinatorGolden(t *testing.T) {
	type run struct {
		key   string
		kind  string
		r     int
		fault *faultyTransport
		opt   coordinator.Options
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
							opt: coordinator.Options{Core: core.Options{R: r, Seed: seed, NetConst: nc, MonteCarlo: mc}},
						})
					}
				}
			}
		}
	}
	faultOpt := coordinator.Options{Core: core.Options{R: 2, Seed: 1, NetConst: 0.2}}
	runs = append(runs,
		run{key: "fault/site=1/roundA=3", kind: "lp", r: 2, opt: faultOpt,
			fault: &faultyTransport{site: 1, typ: comm.FrameRoundA, nth: 3}},
		run{key: "fault/site=1/roundB=2", kind: "lp", r: 2, opt: faultOpt,
			fault: &faultyTransport{site: 1, typ: comm.FrameRoundB, nth: 2}})

	iterated, failed, mcAborted, direct := 0, 0, 0, 0
	for _, rn := range runs {
		var wrap func(comm.Transport) comm.Transport
		if rn.fault != nil {
			wrap = func(tr comm.Transport) comm.Transport { rn.fault.Transport = tr; return rn.fault }
		}
		got, err := coordGoldenRun(rn.kind, rn.r, wrap, rn.opt)
		if rn.fault != nil {
			var terr *comm.TransportError
			if !errors.As(err, &terr) || !errors.Is(err, errInjected) || terr.Site != rn.fault.site || terr.Type != rn.fault.typ {
				t.Errorf("%s: error %v, want the injected failure of site %d, frame type %d", rn.key, err, rn.fault.site, rn.fault.typ)
			}
		} else if errors.Is(err, core.ErrRoundFailed) {
			mcAborted++
		}
		if got.stats.Iterations > 1 {
			iterated++
		}
		failed += got.stats.Failures
		if got.stats.DirectSolve {
			direct++
		}
		if want, ok := coordGolden[rn.key]; !ok || want != got {
			s := got.stats
			t.Errorf("golden drift (have the table line below; recorded: %v)\n\t%q: {coordinator.Stats{RunStats: core.RunStats{N: %d, R: %d, NetSize: %d, Iterations: %d, Successes: %d, Failures: %d, DirectSolve: %v}, K: %d, Rounds: %d, TotalBits: %d, Messages: %d, Retries: %d}, %#x, %q},",
				ok, rn.key, s.N, s.R, s.NetSize, s.Iterations, s.Successes, s.Failures, s.DirectSolve, s.K, s.Rounds, s.TotalBits, s.Messages, s.Retries, got.basis, got.err)
		}
	}
	if iterated == 0 || failed == 0 || mcAborted == 0 || direct == 0 {
		t.Fatalf("matrix too tame: %d iterated runs, %d failed iterations, %d Monte-Carlo aborts, %d ship-all runs",
			iterated, failed, mcAborted, direct)
	}
}

// Recorded at 67f9aee, before the coordinator became a substrate of
// the shared driver. Re-recorded when the direct rule became n ≤ 2m+1:
// lp and meb r=2 nc=0.2 mc=true (m = 15 631), sea r=2 nc=0.5 mc=false
// (m = 14 143) and sea r=3 nc=0.5 mc=true (m = 17 442) now ship the
// input in one round; every other row, the two fault rows included, is
// unchanged. Re-recorded when Iterations came to mean nets solved on
// every backend (it counted round-A weight reports): Iterations is one
// lower on every sampled row, the fault rows included, and no other
// field moved. Re-recorded when lp and sea came to solve by
// lptype.SolvePivot over a Seidel that keeps its box: the basis hash
// of 36 lp and 38 sea rows moved in its last bits, and no Stats field.
// Re-recorded when SolvePivot came to solve its sample by itself: the
// basis hash of 29 lp and 37 sea rows moved, and no Stats field.
var coordGolden = map[string]coordGoldenRow{
	"lp/r=2/nc=0.5/mc=false/seed=1":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 6364, Iterations: 3, Successes: 0, Failures: 2, DirectSolve: false}, K: 4, Rounds: 7, TotalBits: 3670560, Messages: 56, Retries: 0}, 0xef3492b9b53473a5, ""},
	"lp/r=2/nc=0.5/mc=false/seed=2":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 6364, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, K: 4, Rounds: 5, TotalBits: 2447232, Messages: 40, Retries: 0}, 0x108338ed5db3e4d8, ""},
	"lp/r=2/nc=0.5/mc=false/seed=3":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 6364, Iterations: 3, Successes: 2, Failures: 0, DirectSolve: false}, K: 4, Rounds: 7, TotalBits: 3670560, Messages: 56, Retries: 0}, 0xef3492b9b53473a5, ""},
	"lp/r=2/nc=0.5/mc=false/seed=4":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 6364, Iterations: 1, Successes: 0, Failures: 0, DirectSolve: false}, K: 4, Rounds: 3, TotalBits: 1223904, Messages: 24, Retries: 0}, 0x201baa31e34c5738, ""},
	"lp/r=2/nc=0.5/mc=false/seed=5":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 6364, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, K: 4, Rounds: 5, TotalBits: 2447232, Messages: 40, Retries: 0}, 0x201baa31e34c5738, ""},
	"lp/r=2/nc=0.5/mc=true/seed=1":   {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, K: 4, Rounds: 1, TotalBits: 3840000, Messages: 20000, Retries: 0}, 0x73b43665122e5c2c, ""},
	"lp/r=2/nc=0.5/mc=true/seed=2":   {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, K: 4, Rounds: 1, TotalBits: 3840000, Messages: 20000, Retries: 0}, 0x73b43665122e5c2c, ""},
	"lp/r=2/nc=0.5/mc=true/seed=3":   {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, K: 4, Rounds: 1, TotalBits: 3840000, Messages: 20000, Retries: 0}, 0x73b43665122e5c2c, ""},
	"lp/r=2/nc=0.5/mc=true/seed=4":   {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, K: 4, Rounds: 1, TotalBits: 3840000, Messages: 20000, Retries: 0}, 0x73b43665122e5c2c, ""},
	"lp/r=2/nc=0.5/mc=true/seed=5":   {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, K: 4, Rounds: 1, TotalBits: 3840000, Messages: 20000, Retries: 0}, 0x73b43665122e5c2c, ""},
	"lp/r=2/nc=0.2/mc=false/seed=1":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 2546, Iterations: 6, Successes: 0, Failures: 5, DirectSolve: false}, K: 4, Rounds: 13, TotalBits: 2942208, Messages: 104, Retries: 0}, 0xef3492b9b53473a5, ""},
	"lp/r=2/nc=0.2/mc=false/seed=2":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 2546, Iterations: 5, Successes: 1, Failures: 3, DirectSolve: false}, K: 4, Rounds: 11, TotalBits: 2451936, Messages: 88, Retries: 0}, 0x108338ed5db3e4d8, ""},
	"lp/r=2/nc=0.2/mc=false/seed=3":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 2546, Iterations: 6, Successes: 2, Failures: 3, DirectSolve: false}, K: 4, Rounds: 13, TotalBits: 2942208, Messages: 104, Retries: 0}, 0xef3492b9b53473a5, ""},
	"lp/r=2/nc=0.2/mc=false/seed=4":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 2546, Iterations: 2, Successes: 0, Failures: 1, DirectSolve: false}, K: 4, Rounds: 5, TotalBits: 981120, Messages: 40, Retries: 0}, 0x201baa31e34c5738, ""},
	"lp/r=2/nc=0.2/mc=false/seed=5":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 2546, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, K: 4, Rounds: 5, TotalBits: 981120, Messages: 40, Retries: 0}, 0x623c50e4f6f53d7b, ""},
	"lp/r=2/nc=0.2/mc=true/seed=1":   {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, K: 4, Rounds: 1, TotalBits: 3840000, Messages: 20000, Retries: 0}, 0x73b43665122e5c2c, ""},
	"lp/r=2/nc=0.2/mc=true/seed=2":   {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, K: 4, Rounds: 1, TotalBits: 3840000, Messages: 20000, Retries: 0}, 0x73b43665122e5c2c, ""},
	"lp/r=2/nc=0.2/mc=true/seed=3":   {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, K: 4, Rounds: 1, TotalBits: 3840000, Messages: 20000, Retries: 0}, 0x73b43665122e5c2c, ""},
	"lp/r=2/nc=0.2/mc=true/seed=4":   {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, K: 4, Rounds: 1, TotalBits: 3840000, Messages: 20000, Retries: 0}, 0x73b43665122e5c2c, ""},
	"lp/r=2/nc=0.2/mc=true/seed=5":   {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, K: 4, Rounds: 1, TotalBits: 3840000, Messages: 20000, Retries: 0}, 0x73b43665122e5c2c, ""},
	"lp/r=3/nc=0.5/mc=false/seed=1":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1222, Iterations: 5, Successes: 2, Failures: 2, DirectSolve: false}, K: 4, Rounds: 11, TotalBits: 1180896, Messages: 88, Retries: 0}, 0x91a51c57bdbbab1b, ""},
	"lp/r=3/nc=0.5/mc=false/seed=2":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1222, Iterations: 8, Successes: 2, Failures: 5, DirectSolve: false}, K: 4, Rounds: 17, TotalBits: 1889088, Messages: 136, Retries: 0}, 0x6332e08fd1d88072, ""},
	"lp/r=3/nc=0.5/mc=false/seed=3":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1222, Iterations: 3, Successes: 2, Failures: 0, DirectSolve: false}, K: 4, Rounds: 7, TotalBits: 708768, Messages: 56, Retries: 0}, 0xa7a0ccc37dd80ed2, ""},
	"lp/r=3/nc=0.5/mc=false/seed=4":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1222, Iterations: 4, Successes: 1, Failures: 2, DirectSolve: false}, K: 4, Rounds: 9, TotalBits: 944832, Messages: 72, Retries: 0}, 0x6332e08fd1d88072, ""},
	"lp/r=3/nc=0.5/mc=false/seed=5":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1222, Iterations: 6, Successes: 1, Failures: 4, DirectSolve: false}, K: 4, Rounds: 13, TotalBits: 1416960, Messages: 104, Retries: 0}, 0x7689b718f1688aa9, ""},
	"lp/r=3/nc=0.5/mc=true/seed=1":   {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 7501, Iterations: 3, Successes: 2, Failures: 0, DirectSolve: false}, K: 4, Rounds: 7, TotalBits: 4325472, Messages: 56, Retries: 0}, 0xfc5f3e2ceee31de, ""},
	"lp/r=3/nc=0.5/mc=true/seed=2":   {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 7501, Iterations: 3, Successes: 2, Failures: 0, DirectSolve: false}, K: 4, Rounds: 7, TotalBits: 4325472, Messages: 56, Retries: 0}, 0x7689b718f1688aa9, ""},
	"lp/r=3/nc=0.5/mc=true/seed=3":   {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 7501, Iterations: 1, Successes: 0, Failures: 0, DirectSolve: false}, K: 4, Rounds: 3, TotalBits: 1442208, Messages: 24, Retries: 0}, 0xf0a3ab9a84712c1c, ""},
	"lp/r=3/nc=0.5/mc=true/seed=4":   {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 7501, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, K: 4, Rounds: 5, TotalBits: 2883840, Messages: 40, Retries: 0}, 0x91a51c57bdbbab1b, ""},
	"lp/r=3/nc=0.5/mc=true/seed=5":   {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 7501, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, K: 4, Rounds: 5, TotalBits: 2883840, Messages: 40, Retries: 0}, 0xbe1b460b79b16f13, ""},
	"lp/r=3/nc=0.2/mc=false/seed=1":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 489, Iterations: 7, Successes: 2, Failures: 4, DirectSolve: false}, K: 4, Rounds: 15, TotalBits: 667872, Messages: 120, Retries: 0}, 0xd6b3e902c7d796a5, ""},
	"lp/r=3/nc=0.2/mc=false/seed=2":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 489, Iterations: 15, Successes: 2, Failures: 12, DirectSolve: false}, K: 4, Rounds: 31, TotalBits: 1430496, Messages: 248, Retries: 0}, 0xf0a3ab9a84712c1c, ""},
	"lp/r=3/nc=0.2/mc=false/seed=3":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 489, Iterations: 10, Successes: 2, Failures: 7, DirectSolve: false}, K: 4, Rounds: 21, TotalBits: 953856, Messages: 168, Retries: 0}, 0xc201efb4906c52b9, ""},
	"lp/r=3/nc=0.2/mc=false/seed=4":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 489, Iterations: 14, Successes: 1, Failures: 12, DirectSolve: false}, K: 4, Rounds: 29, TotalBits: 1335168, Messages: 232, Retries: 0}, 0x6332e08fd1d88072, ""},
	"lp/r=3/nc=0.2/mc=false/seed=5":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 489, Iterations: 15, Successes: 1, Failures: 13, DirectSolve: false}, K: 4, Rounds: 31, TotalBits: 1430496, Messages: 248, Retries: 0}, 0xb360c26285543cdc, ""},
	"lp/r=3/nc=0.2/mc=true/seed=1":   {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 3001, Iterations: 3, Successes: 2, Failures: 0, DirectSolve: false}, K: 4, Rounds: 7, TotalBits: 1733472, Messages: 56, Retries: 0}, 0x6332e08fd1d88072, ""},
	"lp/r=3/nc=0.2/mc=true/seed=2":   {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 3001, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, K: 4, Rounds: 5, TotalBits: 1155840, Messages: 40, Retries: 0}, 0x6332e08fd1d88072, ""},
	"lp/r=3/nc=0.2/mc=true/seed=3":   {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 3001, Iterations: 3, Successes: 2, Failures: 0, DirectSolve: false}, K: 4, Rounds: 7, TotalBits: 1733472, Messages: 56, Retries: 0}, 0x6332e08fd1d88072, ""},
	"lp/r=3/nc=0.2/mc=true/seed=4":   {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 3001, Iterations: 1, Successes: 0, Failures: 1, DirectSolve: false}, K: 4, Rounds: 3, TotalBits: 578208, Messages: 24, Retries: 0}, 0x0, "core: monte-carlo round failed (w(V) > ε·w(S))"},
	"lp/r=3/nc=0.2/mc=true/seed=5":   {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 3001, Iterations: 1, Successes: 0, Failures: 1, DirectSolve: false}, K: 4, Rounds: 3, TotalBits: 578208, Messages: 24, Retries: 0}, 0x0, "core: monte-carlo round failed (w(V) > ε·w(S))"},
	"meb/r=2/nc=0.5/mc=false/seed=1": {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 6364, Iterations: 11, Successes: 3, Failures: 7, DirectSolve: false}, K: 4, Rounds: 23, TotalBits: 8976928, Messages: 184, Retries: 0}, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.5/mc=false/seed=2": {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 6364, Iterations: 3, Successes: 1, Failures: 1, DirectSolve: false}, K: 4, Rounds: 7, TotalBits: 2448672, Messages: 56, Retries: 0}, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.5/mc=false/seed=3": {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 6364, Iterations: 6, Successes: 2, Failures: 3, DirectSolve: false}, K: 4, Rounds: 13, TotalBits: 4896768, Messages: 104, Retries: 0}, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.5/mc=false/seed=4": {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 6364, Iterations: 4, Successes: 2, Failures: 1, DirectSolve: false}, K: 4, Rounds: 9, TotalBits: 3264704, Messages: 72, Retries: 0}, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.5/mc=false/seed=5": {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 6364, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, K: 4, Rounds: 5, TotalBits: 1632640, Messages: 40, Retries: 0}, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.5/mc=true/seed=1":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, K: 4, Rounds: 1, TotalBits: 2560000, Messages: 20000, Retries: 0}, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.5/mc=true/seed=2":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, K: 4, Rounds: 1, TotalBits: 2560000, Messages: 20000, Retries: 0}, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.5/mc=true/seed=3":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, K: 4, Rounds: 1, TotalBits: 2560000, Messages: 20000, Retries: 0}, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.5/mc=true/seed=4":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, K: 4, Rounds: 1, TotalBits: 2560000, Messages: 20000, Retries: 0}, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.5/mc=true/seed=5":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, K: 4, Rounds: 1, TotalBits: 2560000, Messages: 20000, Retries: 0}, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.2/mc=false/seed=1": {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 2546, Iterations: 16, Successes: 1, Failures: 14, DirectSolve: false}, K: 4, Rounds: 33, TotalBits: 5237824, Messages: 264, Retries: 0}, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.2/mc=false/seed=2": {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 2546, Iterations: 17, Successes: 1, Failures: 15, DirectSolve: false}, K: 4, Rounds: 35, TotalBits: 5565152, Messages: 280, Retries: 0}, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.2/mc=false/seed=3": {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 2546, Iterations: 15, Successes: 1, Failures: 13, DirectSolve: false}, K: 4, Rounds: 31, TotalBits: 4910496, Messages: 248, Retries: 0}, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.2/mc=false/seed=4": {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 2546, Iterations: 15, Successes: 2, Failures: 12, DirectSolve: false}, K: 4, Rounds: 31, TotalBits: 4910496, Messages: 248, Retries: 0}, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.2/mc=false/seed=5": {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 2546, Iterations: 3, Successes: 1, Failures: 1, DirectSolve: false}, K: 4, Rounds: 7, TotalBits: 982560, Messages: 56, Retries: 0}, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.2/mc=true/seed=1":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, K: 4, Rounds: 1, TotalBits: 2560000, Messages: 20000, Retries: 0}, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.2/mc=true/seed=2":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, K: 4, Rounds: 1, TotalBits: 2560000, Messages: 20000, Retries: 0}, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.2/mc=true/seed=3":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, K: 4, Rounds: 1, TotalBits: 2560000, Messages: 20000, Retries: 0}, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.2/mc=true/seed=4":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, K: 4, Rounds: 1, TotalBits: 2560000, Messages: 20000, Retries: 0}, 0x6b14f40616399732, ""},
	"meb/r=2/nc=0.2/mc=true/seed=5":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, K: 4, Rounds: 1, TotalBits: 2560000, Messages: 20000, Retries: 0}, 0x6b14f40616399732, ""},
	"meb/r=3/nc=0.5/mc=false/seed=1": {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1222, Iterations: 4, Successes: 2, Failures: 1, DirectSolve: false}, K: 4, Rounds: 9, TotalBits: 632000, Messages: 72, Retries: 0}, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.5/mc=false/seed=2": {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1222, Iterations: 7, Successes: 1, Failures: 5, DirectSolve: false}, K: 4, Rounds: 15, TotalBits: 1105568, Messages: 120, Retries: 0}, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.5/mc=false/seed=3": {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1222, Iterations: 10, Successes: 2, Failures: 7, DirectSolve: false}, K: 4, Rounds: 21, TotalBits: 1579136, Messages: 168, Retries: 0}, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.5/mc=false/seed=4": {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1222, Iterations: 5, Successes: 1, Failures: 3, DirectSolve: false}, K: 4, Rounds: 11, TotalBits: 789856, Messages: 88, Retries: 0}, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.5/mc=false/seed=5": {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1222, Iterations: 5, Successes: 1, Failures: 3, DirectSolve: false}, K: 4, Rounds: 11, TotalBits: 789856, Messages: 88, Retries: 0}, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.5/mc=true/seed=1":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 7501, Iterations: 1, Successes: 0, Failures: 0, DirectSolve: false}, K: 4, Rounds: 3, TotalBits: 962144, Messages: 24, Retries: 0}, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.5/mc=true/seed=2":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 7501, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, K: 4, Rounds: 5, TotalBits: 1923712, Messages: 40, Retries: 0}, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.5/mc=true/seed=3":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 7501, Iterations: 3, Successes: 2, Failures: 0, DirectSolve: false}, K: 4, Rounds: 7, TotalBits: 2885280, Messages: 56, Retries: 0}, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.5/mc=true/seed=4":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 7501, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, K: 4, Rounds: 5, TotalBits: 1923712, Messages: 40, Retries: 0}, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.5/mc=true/seed=5":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 7501, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, K: 4, Rounds: 5, TotalBits: 1923712, Messages: 40, Retries: 0}, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.2/mc=false/seed=1": {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 489, Iterations: 64, Successes: 2, Failures: 61, DirectSolve: false}, K: 4, Rounds: 129, TotalBits: 4098632, Messages: 1032, Retries: 0}, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.2/mc=false/seed=2": {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 489, Iterations: 27, Successes: 1, Failures: 25, DirectSolve: false}, K: 4, Rounds: 55, TotalBits: 1729464, Messages: 440, Retries: 0}, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.2/mc=false/seed=3": {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 489, Iterations: 13, Successes: 1, Failures: 11, DirectSolve: false}, K: 4, Rounds: 27, TotalBits: 833024, Messages: 216, Retries: 0}, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.2/mc=false/seed=4": {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 489, Iterations: 11, Successes: 1, Failures: 9, DirectSolve: false}, K: 4, Rounds: 23, TotalBits: 704928, Messages: 184, Retries: 0}, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.2/mc=false/seed=5": {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 489, Iterations: 49, Successes: 2, Failures: 46, DirectSolve: false}, K: 4, Rounds: 99, TotalBits: 3138144, Messages: 792, Retries: 0}, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.2/mc=true/seed=1":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 3001, Iterations: 3, Successes: 2, Failures: 0, DirectSolve: false}, K: 4, Rounds: 7, TotalBits: 1157280, Messages: 56, Retries: 0}, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.2/mc=true/seed=2":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 3001, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, K: 4, Rounds: 5, TotalBits: 771712, Messages: 40, Retries: 0}, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.2/mc=true/seed=3":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 3001, Iterations: 1, Successes: 0, Failures: 1, DirectSolve: false}, K: 4, Rounds: 3, TotalBits: 386144, Messages: 24, Retries: 0}, 0x0, "core: monte-carlo round failed (w(V) > ε·w(S))"},
	"meb/r=3/nc=0.2/mc=true/seed=4":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 3001, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, K: 4, Rounds: 5, TotalBits: 771712, Messages: 40, Retries: 0}, 0x736c80d87ba7e992, ""},
	"meb/r=3/nc=0.2/mc=true/seed=5":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 3001, Iterations: 2, Successes: 1, Failures: 0, DirectSolve: false}, K: 4, Rounds: 5, TotalBits: 771712, Messages: 40, Retries: 0}, 0x736c80d87ba7e992, ""},
	"sea/r=2/nc=0.5/mc=false/seed=1": {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, K: 4, Rounds: 1, TotalBits: 2560000, Messages: 20000, Retries: 0}, 0x93678a9c9d6e8ff9, ""},
	"sea/r=2/nc=0.5/mc=false/seed=2": {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, K: 4, Rounds: 1, TotalBits: 2560000, Messages: 20000, Retries: 0}, 0x93678a9c9d6e8ff9, ""},
	"sea/r=2/nc=0.5/mc=false/seed=3": {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, K: 4, Rounds: 1, TotalBits: 2560000, Messages: 20000, Retries: 0}, 0x93678a9c9d6e8ff9, ""},
	"sea/r=2/nc=0.5/mc=false/seed=4": {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, K: 4, Rounds: 1, TotalBits: 2560000, Messages: 20000, Retries: 0}, 0x93678a9c9d6e8ff9, ""},
	"sea/r=2/nc=0.5/mc=false/seed=5": {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, K: 4, Rounds: 1, TotalBits: 2560000, Messages: 20000, Retries: 0}, 0x93678a9c9d6e8ff9, ""},
	"sea/r=2/nc=0.5/mc=true/seed=1":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, K: 4, Rounds: 1, TotalBits: 2560000, Messages: 20000, Retries: 0}, 0x93678a9c9d6e8ff9, ""},
	"sea/r=2/nc=0.5/mc=true/seed=2":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, K: 4, Rounds: 1, TotalBits: 2560000, Messages: 20000, Retries: 0}, 0x93678a9c9d6e8ff9, ""},
	"sea/r=2/nc=0.5/mc=true/seed=3":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, K: 4, Rounds: 1, TotalBits: 2560000, Messages: 20000, Retries: 0}, 0x93678a9c9d6e8ff9, ""},
	"sea/r=2/nc=0.5/mc=true/seed=4":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, K: 4, Rounds: 1, TotalBits: 2560000, Messages: 20000, Retries: 0}, 0x93678a9c9d6e8ff9, ""},
	"sea/r=2/nc=0.5/mc=true/seed=5":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, K: 4, Rounds: 1, TotalBits: 2560000, Messages: 20000, Retries: 0}, 0x93678a9c9d6e8ff9, ""},
	"sea/r=2/nc=0.2/mc=false/seed=1": {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 5657, Iterations: 47, Successes: 2, Failures: 44, DirectSolve: false}, K: 4, Rounds: 95, TotalBits: 34112800, Messages: 760, Retries: 0}, 0x1cd5ea244cb40e99, ""},
	"sea/r=2/nc=0.2/mc=false/seed=2": {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 5657, Iterations: 22, Successes: 4, Failures: 17, DirectSolve: false}, K: 4, Rounds: 45, TotalBits: 15968000, Messages: 360, Retries: 0}, 0xd232acc1ef8833dd, ""},
	"sea/r=2/nc=0.2/mc=false/seed=3": {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 5657, Iterations: 67, Successes: 4, Failures: 62, DirectSolve: false}, K: 4, Rounds: 135, TotalBits: 48628640, Messages: 1080, Retries: 0}, 0xa94b9021f165268a, ""},
	"sea/r=2/nc=0.2/mc=false/seed=4": {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 5657, Iterations: 34, Successes: 3, Failures: 30, DirectSolve: false}, K: 4, Rounds: 69, TotalBits: 24677504, Messages: 552, Retries: 0}, 0xc5f1ed53f7010542, ""},
	"sea/r=2/nc=0.2/mc=false/seed=5": {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 5657, Iterations: 20, Successes: 1, Failures: 18, DirectSolve: false}, K: 4, Rounds: 41, TotalBits: 14516416, Messages: 328, Retries: 0}, 0x10bc0d03325ea682, ""},
	"sea/r=2/nc=0.2/mc=true/seed=1":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, K: 4, Rounds: 1, TotalBits: 2560000, Messages: 20000, Retries: 0}, 0x93678a9c9d6e8ff9, ""},
	"sea/r=2/nc=0.2/mc=true/seed=2":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, K: 4, Rounds: 1, TotalBits: 2560000, Messages: 20000, Retries: 0}, 0x93678a9c9d6e8ff9, ""},
	"sea/r=2/nc=0.2/mc=true/seed=3":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, K: 4, Rounds: 1, TotalBits: 2560000, Messages: 20000, Retries: 0}, 0x93678a9c9d6e8ff9, ""},
	"sea/r=2/nc=0.2/mc=true/seed=4":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, K: 4, Rounds: 1, TotalBits: 2560000, Messages: 20000, Retries: 0}, 0x93678a9c9d6e8ff9, ""},
	"sea/r=2/nc=0.2/mc=true/seed=5":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, K: 4, Rounds: 1, TotalBits: 2560000, Messages: 20000, Retries: 0}, 0x93678a9c9d6e8ff9, ""},
	"sea/r=3/nc=0.5/mc=false/seed=1": {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 2715, Iterations: 10, Successes: 4, Failures: 5, DirectSolve: false}, K: 4, Rounds: 21, TotalBits: 3492736, Messages: 168, Retries: 0}, 0x3fa24c33d382764f, ""},
	"sea/r=3/nc=0.5/mc=false/seed=2": {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 2715, Iterations: 14, Successes: 4, Failures: 9, DirectSolve: false}, K: 4, Rounds: 29, TotalBits: 4889600, Messages: 232, Retries: 0}, 0xdc14b58531707143, ""},
	"sea/r=3/nc=0.5/mc=false/seed=3": {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 2715, Iterations: 15, Successes: 3, Failures: 11, DirectSolve: false}, K: 4, Rounds: 31, TotalBits: 5238816, Messages: 248, Retries: 0}, 0xdc14b58531707143, ""},
	"sea/r=3/nc=0.5/mc=false/seed=4": {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 2715, Iterations: 7, Successes: 2, Failures: 4, DirectSolve: false}, K: 4, Rounds: 15, TotalBits: 2445088, Messages: 120, Retries: 0}, 0x33e770a0acb3a516, ""},
	"sea/r=3/nc=0.5/mc=false/seed=5": {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 2715, Iterations: 8, Successes: 2, Failures: 5, DirectSolve: false}, K: 4, Rounds: 17, TotalBits: 2794304, Messages: 136, Retries: 0}, 0xdc6256599fce7269, ""},
	"sea/r=3/nc=0.5/mc=true/seed=1":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, K: 4, Rounds: 1, TotalBits: 2560000, Messages: 20000, Retries: 0}, 0xefb9b92a301ae3a2, ""},
	"sea/r=3/nc=0.5/mc=true/seed=2":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, K: 4, Rounds: 1, TotalBits: 2560000, Messages: 20000, Retries: 0}, 0xefb9b92a301ae3a2, ""},
	"sea/r=3/nc=0.5/mc=true/seed=3":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, K: 4, Rounds: 1, TotalBits: 2560000, Messages: 20000, Retries: 0}, 0xefb9b92a301ae3a2, ""},
	"sea/r=3/nc=0.5/mc=true/seed=4":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, K: 4, Rounds: 1, TotalBits: 2560000, Messages: 20000, Retries: 0}, 0xefb9b92a301ae3a2, ""},
	"sea/r=3/nc=0.5/mc=true/seed=5":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 20000, Iterations: 0, Successes: 0, Failures: 0, DirectSolve: true}, K: 4, Rounds: 1, TotalBits: 2560000, Messages: 20000, Retries: 0}, 0xefb9b92a301ae3a2, ""},
	"sea/r=3/nc=0.2/mc=false/seed=1": {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1086, Iterations: 30, Successes: 3, Failures: 26, DirectSolve: false}, K: 4, Rounds: 61, TotalBits: 4221696, Messages: 488, Retries: 0}, 0xc2ff8c2e2cff6823, ""},
	"sea/r=3/nc=0.2/mc=false/seed=2": {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1086, Iterations: 68, Successes: 4, Failures: 63, DirectSolve: false}, K: 4, Rounds: 137, TotalBits: 9568448, Messages: 1096, Retries: 0}, 0xc2ff8c2e2cff6823, ""},
	"sea/r=3/nc=0.2/mc=false/seed=3": {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1086, Iterations: 73, Successes: 3, Failures: 69, DirectSolve: false}, K: 4, Rounds: 147, TotalBits: 10271976, Messages: 1176, Retries: 0}, 0xb76d919c7715256e, ""},
	"sea/r=3/nc=0.2/mc=false/seed=4": {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1086, Iterations: 17, Successes: 2, Failures: 14, DirectSolve: false}, K: 4, Rounds: 35, TotalBits: 2392544, Messages: 280, Retries: 0}, 0xc2ff8c2e2cff6823, ""},
	"sea/r=3/nc=0.2/mc=false/seed=5": {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 1086, Iterations: 79, Successes: 3, Failures: 75, DirectSolve: false}, K: 4, Rounds: 159, TotalBits: 11116192, Messages: 1272, Retries: 0}, 0x54cd2dae6292a27f, ""},
	"sea/r=3/nc=0.2/mc=true/seed=1":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 6977, Iterations: 4, Successes: 3, Failures: 0, DirectSolve: false}, K: 4, Rounds: 9, TotalBits: 3579584, Messages: 72, Retries: 0}, 0xc2ff8c2e2cff6823, ""},
	"sea/r=3/nc=0.2/mc=true/seed=2":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 6977, Iterations: 1, Successes: 0, Failures: 1, DirectSolve: false}, K: 4, Rounds: 3, TotalBits: 895328, Messages: 24, Retries: 0}, 0x0, "core: monte-carlo round failed (w(V) > ε·w(S))"},
	"sea/r=3/nc=0.2/mc=true/seed=3":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 6977, Iterations: 4, Successes: 3, Failures: 0, DirectSolve: false}, K: 4, Rounds: 9, TotalBits: 3579584, Messages: 72, Retries: 0}, 0x44f59c42963910e3, ""},
	"sea/r=3/nc=0.2/mc=true/seed=4":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 6977, Iterations: 5, Successes: 4, Failures: 0, DirectSolve: false}, K: 4, Rounds: 11, TotalBits: 4474336, Messages: 88, Retries: 0}, 0x44f59c42963910e3, ""},
	"sea/r=3/nc=0.2/mc=true/seed=5":  {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 3, NetSize: 6977, Iterations: 1, Successes: 0, Failures: 1, DirectSolve: false}, K: 4, Rounds: 3, TotalBits: 895328, Messages: 24, Retries: 0}, 0x0, "core: monte-carlo round failed (w(V) > ε·w(S))"},
	"fault/site=1/roundA=3":          {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 2546, Iterations: 2, Successes: 0, Failures: 1, DirectSolve: false}, K: 4, Rounds: 5, TotalBits: 980984, Messages: 39, Retries: 0}, 0x0, "comm: site 1: frame type 3: injected site failure"},
	"fault/site=1/roundB=2":          {coordinator.Stats{RunStats: core.RunStats{N: 20000, R: 2, NetSize: 2546, Iterations: 1, Successes: 0, Failures: 1, DirectSolve: false}, K: 4, Rounds: 4, TotalBits: 852288, Messages: 31, Retries: 0}, 0x0, "comm: site 1: frame type 4: injected site failure"},
}
