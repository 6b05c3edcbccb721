package experiments

import (
	"fmt"
	"io"
	"math"

	"lowdimlp/internal/baseline"
	"lowdimlp/internal/coordinator"
	"lowdimlp/internal/core"
	"lowdimlp/internal/dataset"
	"lowdimlp/internal/engine"
	"lowdimlp/internal/lp"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/meb"
	"lowdimlp/internal/models"
	"lowdimlp/internal/mpc"
	"lowdimlp/internal/stream"
	"lowdimlp/internal/svm"
	"lowdimlp/internal/workload"
)

// runE1 — streaming LP: passes and space vs n, d, r (Theorems 1/4).
func runE1(w io.Writer, cfg Config) error {
	ns := []int{30_000, 100_000, 300_000}
	ds := []int{2, 3, 5}
	rs := []int{2, 3, 4}
	if cfg.Quick {
		ns, ds, rs = []int{30_000}, []int{3}, []int{2, 3}
	}
	t := newTable(w, "n", "d", "r", "passes", "bound 2(νr)+1", "net m", "m/n^{1/r}", "space(kb)", "input(kb)")
	for _, d := range ds {
		hc := models.LP.ItemCodec(d)
		bc := lp.BasisCodec{Dim: d}
		for _, n := range ns {
			for _, r := range rs {
				p, cons := workload.SphereLP(d, n, cfg.Seed+uint64(n+d+r))
				dom := lp.NewDomain(p, cfg.Seed+1)
				ra, rows, err := columnar(models.LP, d, dom, cons)
				if err != nil {
					return err
				}
				_, stats, err := stream.SolveDataset(ra, rows, stream.Options{
					Core:         core.Options{R: r, Seed: cfg.Seed},
					BitsPerItem:  hc.Bits(lp.Halfspace{}),
					BitsPerBasis: bc.Bits(lp.Basis{}),
				})
				if err != nil {
					return err
				}
				nu := dom.CombinatorialDim()
				t.row(n, d, r, stats.Passes, 2*nu*r+1, stats.NetSize,
					fmt.Sprintf("%.0f", float64(stats.NetSize)/math.Pow(float64(n), 1/float64(r))),
					kb(stats.PeakSpaceBits), kb(int64(n)*int64(hc.Bits(lp.Halfspace{}))))
			}
		}
	}
	t.flush()
	fmt.Fprintln(w, "\nshape: passes stay O(d·r) independent of n; m/n^{1/r} stays flat (space ∝ n^{1/r}).")
	fmt.Fprintln(w, "A row with 1 pass and m = n shipped the input whole: n ≤ 2m+1, the rows a sampled pass holds.")
	return nil
}

// runE2 — coordinator LP: rounds and communication (Theorems 2/4).
func runE2(w io.Writer, cfg Config) error {
	ns := []int{30_000, 100_000, 300_000}
	ks := []int{2, 8, 32}
	rs := []int{2, 3}
	if cfg.Quick {
		ns, ks, rs = []int{30_000}, []int{2, 8}, []int{2, 3}
	}
	d := 3
	hc := models.LP.ItemCodec(d)
	bc := lp.BasisCodec{Dim: d}
	t := newTable(w, "n", "k", "r", "rounds", "bits(kb)", "ship-all(kb)", "saving×")
	for _, n := range ns {
		for _, k := range ks {
			for _, r := range rs {
				p, cons := workload.SphereLP(d, n, cfg.Seed+uint64(n+k+r))
				dom := lp.NewDomain(p, cfg.Seed+2)
				ra, rows, err := columnar(models.LP, d, dom, cons)
				if err != nil {
					return err
				}
				sites, err := lptype.ShardSiteWeights(ra, rows, k)
				if err != nil {
					return err
				}
				_, stats, err := coordinator.Solve(ra.Domain(), sites, hc, bc, coordinator.Options{
					Core: core.Options{R: r, Seed: cfg.Seed},
				})
				if err != nil {
					return err
				}
				ship := int64(n) * int64(hc.Bits(lp.Halfspace{}))
				t.row(n, k, r, stats.Rounds, kb(stats.TotalBits), kb(ship),
					fmt.Sprintf("%.0f", float64(ship)/float64(stats.TotalBits)))
			}
		}
	}
	t.flush()
	fmt.Fprintln(w, "\nshape: rounds O(d·r) independent of n and k; bits ∝ n^{1/r} + k, far below ship-all.")
	fmt.Fprintln(w, "A 1-round row is ship-all itself: n ≤ 2m+1, so the net would cost about as many bits.")
	return nil
}

// runE3 — MPC LP: rounds and load (Theorems 3/4).
func runE3(w io.Writer, cfg Config) error {
	ns := []int{30_000, 100_000, 300_000}
	deltas := []float64{0.5, 0.4, 0.3}
	if cfg.Quick {
		ns, deltas = []int{30_000}, []float64{0.5, 0.3}
	}
	d := 3
	hc := models.LP.ItemCodec(d)
	bc := lp.BasisCodec{Dim: d}
	t := newTable(w, "n", "δ", "machines", "rounds", "load(kb)", "load/n^δ(b)", "input(kb)")
	for _, n := range ns {
		for _, delta := range deltas {
			p, cons := workload.SphereLP(d, n, cfg.Seed+uint64(n)+uint64(delta*10))
			dom := lp.NewDomain(p, cfg.Seed+3)
			ra, rows, err := columnar(models.LP, d, dom, cons)
			if err != nil {
				return err
			}
			_, stats, err := mpc.SolveSource(ra, rows, hc, bc, mpc.Options{
				Core: core.Options{Seed: cfg.Seed}, Delta: delta,
			})
			if err != nil {
				return err
			}
			t.row(n, fmt.Sprintf("%.2f", delta), stats.Machines, stats.Rounds,
				kb(stats.MaxLoadBits),
				fmt.Sprintf("%.0f", float64(stats.MaxLoadBits)/math.Pow(float64(n), delta)),
				kb(int64(n)*int64(hc.Bits(lp.Halfspace{}))))
		}
	}
	t.flush()
	fmt.Fprintln(w, "\nshape: rounds grow as δ shrinks (O(d/δ²)); load/n^δ stays flat.")
	fmt.Fprintln(w, "A 1-round row shipped the input to one machine: n ≤ 2m+1, the rows a sampled net already brings there.")
	return nil
}

// runE4 — pass complexity vs Chan–Chen (§1.1's exponential separation).
func runE4(w io.Writer, cfg Config) error {
	// Pass counts are n-independent, but the baseline's lockstep grid
	// multiplies its CPU work by (r·s)^{d-1}, so n shrinks with d to
	// keep the sweep tractable on one core.
	nByD := map[int]int{2: 8_192, 3: 4_096, 4: 256}
	ds := []int{2, 3, 4}
	rs := []int{2, 3}
	if cfg.Quick {
		ds = []int{2, 3}
		nByD[3] = 1_024
	}
	t := newTable(w, "d", "n", "r", "ours: passes", "chan–chen: passes", "r^{d-1}", "ours exact?", "cc objective gap")
	for _, d := range ds {
		n := nByD[d]
		for _, r := range rs {
			p, cons := workload.SphereLP(d, n, cfg.Seed+uint64(d*10+r))
			dom := lp.NewDomain(p, cfg.Seed+4)
			ra, rows, err := columnar(models.LP, d, dom, cons)
			if err != nil {
				return err
			}
			b, ourStats, err := stream.SolveDataset(ra, rows, stream.Options{
				Core: core.Options{R: r, Seed: cfg.Seed},
			})
			if err != nil {
				return err
			}
			exact, err := dom.Solve(cons)
			if err != nil {
				return err
			}
			_, ccVal, ccStats, ccErr := baseline.ChanChen(p, rows, r, 4)
			ccGap := math.NaN()
			if ccErr == nil {
				ccGap = math.Abs(ccVal - exact.Sol.Value)
			}
			want := 1
			for l := 0; l < d-1; l++ {
				want *= r
			}
			t.row(d, n, r, ourStats.Passes, ccStats.Passes, want,
				pass(math.Abs(b.Sol.Value-exact.Sol.Value) < 1e-6),
				fmt.Sprintf("%.2g", ccGap))
		}
	}
	t.flush()
	fmt.Fprintln(w, "\nshape: our passes grow linearly in d·r; the baseline's grow as r^{d-1} (exponential in d).")
	return nil
}

// runE5 — SVM through the streaming and coordinator paths (Theorem 5).
func runE5(w io.Writer, cfg Config) error {
	ns := []int{30_000, 100_000}
	rs := []int{2, 3}
	if cfg.Quick {
		ns, rs = []int{30_000}, []int{2, 3}
	}
	d := 3
	ec := models.SVM.ItemCodec(d)
	bc := svm.BasisCodec{Dim: d}
	t := newTable(w, "n", "r", "stream passes", "coord rounds", "coord bits(kb)", "‖u‖² ok?")
	for _, n := range ns {
		for _, r := range rs {
			exs, _ := workload.SeparableSVM(d, n, 0.3, cfg.Seed+uint64(n+r))
			dom := svm.NewDomain(d)
			want, err := svm.Solve(d, exs)
			if err != nil {
				return err
			}
			ra, rows, err := columnar(models.SVM, d, dom, exs)
			if err != nil {
				return err
			}
			sb, sst, err := stream.SolveDataset(ra, rows, stream.Options{
				Core: core.Options{R: r, Seed: cfg.Seed},
			})
			if err != nil {
				return err
			}
			sites, err := lptype.ShardSiteWeights(ra, rows, 8)
			if err != nil {
				return err
			}
			cb, cst, err := coordinator.Solve(ra.Domain(), sites, ec, bc, coordinator.Options{
				Core: core.Options{R: r, Seed: cfg.Seed},
			})
			if err != nil {
				return err
			}
			ok := math.Abs(sb.Sol.Norm2-want.Norm2) < 1e-5*(want.Norm2+1) &&
				math.Abs(cb.Sol.Norm2-want.Norm2) < 1e-5*(want.Norm2+1)
			t.row(n, r, sst.Passes, cst.Rounds, kb(cst.TotalBits), pass(ok))
		}
	}
	t.flush()
	return nil
}

// runE6 — MEB through all three models (Theorem 6).
func runE6(w io.Writer, cfg Config) error {
	ns := []int{30_000, 100_000}
	rs := []int{2, 3}
	if cfg.Quick {
		ns = []int{30_000}
	}
	d := 3
	pc := models.MEB.ItemCodec(d)
	bc := meb.BasisCodec{Dim: d}
	t := newTable(w, "n", "cloud", "r", "stream passes", "coord rounds", "mpc rounds", "mpc load(kb)", "radius ok?")
	for _, n := range ns {
		for _, kind := range []workload.MEBKind{workload.MEBGaussian, workload.MEBUniformBall} {
			pts := workload.MEBCloud(kind, d, n, cfg.Seed+uint64(n)+uint64(kind))
			dom := meb.NewDomain(d)
			want, err := meb.Solve(pts)
			if err != nil {
				return err
			}
			ra, rows, err := columnar(models.MEB, d, dom, pts)
			if err != nil {
				return err
			}
			// The MPC protocol's rounds follow δ, not r: one solve per cloud.
			mb, mst, err := mpc.SolveSource(ra, rows, pc, bc, mpc.Options{
				Core: core.Options{Seed: cfg.Seed}, Delta: 0.5,
			})
			if err != nil {
				return err
			}
			tol := 1e-6 * (want.R2 + 1)
			for _, r := range rs {
				sb, sst, err := stream.SolveDataset(ra, rows, stream.Options{
					Core: core.Options{R: r, Seed: cfg.Seed},
				})
				if err != nil {
					return err
				}
				sites, err := lptype.ShardSiteWeights(ra, rows, 8)
				if err != nil {
					return err
				}
				cb, cst, err := coordinator.Solve(ra.Domain(), sites, pc, bc, coordinator.Options{
					Core: core.Options{R: r, Seed: cfg.Seed},
				})
				if err != nil {
					return err
				}
				ok := math.Abs(sb.B.R2-want.R2) < tol && math.Abs(cb.B.R2-want.R2) < tol && math.Abs(mb.B.R2-want.R2) < tol
				t.row(n, cloudName(kind), r, sst.Passes, cst.Rounds, mst.Rounds, kb(mst.MaxLoadBits), pass(ok))
			}
		}
	}
	t.flush()
	return nil
}

func cloudName(k workload.MEBKind) string {
	switch k {
	case workload.MEBGaussian:
		return "gaussian"
	case workload.MEBUniformBall:
		return "uniform-ball"
	case workload.MEBShell:
		return "shell"
	default:
		return "low-rank"
	}
}

// runE7 — iteration behaviour of Algorithm 1 (Claims 3.2–3.5).
func runE7(w io.Writer, cfg Config) error {
	// n stays past the ship-all threshold (n > 2m+1) of every cell: at
	// r = 2 and the default constant that takes n > 160 000.
	n := 200_000
	trials := 10
	if cfg.Quick {
		trials = 4
	}
	d := 3
	t := newTable(w, "r", "net c", "trials", "mean iters", "max iters", "(20/9)νr", "success rate", "sandwich ok?")
	type cell struct {
		r int
		c float64
	}
	c := core.DefaultNetConst
	cells := []cell{{2, c}, {3, c}, {4, c}, {3, 2}, {3, 8}}
	if cfg.Quick {
		cells = []cell{{2, c}, {3, c}, {3, 2}}
	}
	for _, cl := range cells {
		r := cl.r
		var iters, succ, tot, maxIter int
		sandwichOK := true
		for trial := 0; trial < trials; trial++ {
			p, cons := workload.SphereLP(d, n, cfg.Seed+uint64(100*r+trial))
			dom := lp.NewDomain(p, cfg.Seed+uint64(trial))
			_, stats, err := core.Solve[lp.Halfspace, lp.Basis](dom, cons, core.Options{
				R: r, Seed: cfg.Seed + uint64(trial), NetConst: cl.c, CollectLog: true,
			})
			if err != nil {
				return err
			}
			iters += stats.Iterations
			succ += stats.Successes
			tot += stats.Successes + stats.Failures
			if stats.Iterations > maxIter {
				maxIter = stats.Iterations
			}
			nu := float64(dom.CombinatorialDim())
			sCount := 0
			for _, rec := range stats.Log {
				if rec.TotalWeight > 0 {
					lo := math.Pow(float64(stats.N), float64(sCount)/(nu*float64(stats.R)))
					hi := math.Exp(float64(sCount)/(10*nu)) * float64(stats.N)
					if rec.TotalWeight < lo-1e-9 || rec.TotalWeight > hi*(1+1e-9) {
						sandwichOK = false
					}
				}
				if rec.Success {
					sCount++
				}
			}
		}
		nu := d + 1
		rate := "n/a"
		if tot > 0 {
			rate = fmt.Sprintf("%.2f", float64(succ)/float64(tot))
		}
		t.row(r, cl.c, trials, fmt.Sprintf("%.1f", float64(iters)/float64(trials)), maxIter,
			fmt.Sprintf("%.1f", 20.0/9*float64(nu)*float64(r)), rate, pass(sandwichOK))
	}
	t.flush()
	fmt.Fprintln(w, "\nshape: iterations stay well under (20/9)·ν·r at every net size; the per-iteration")
	fmt.Fprintln(w, "success rate rises with the net constant (A1(e) picks the default as the smallest c")
	fmt.Fprintln(w, "that reaches Claim 3.2's 2/3 on every backend); the weight sandwich is never violated.")
	return nil
}

// columnar is the experiments' step across the engine boundary: the
// kind's Spec encodes the typed workload into a columnar store once,
// and the row-access layer wraps the experiment's own domain (the
// E-series pin their domain seeds), so the substrate drivers run
// exactly as they do below engine.SolveInstance. View.Shard is the
// round-robin partition across sites.
func columnar[P, C, B any](s *engine.Spec[P, C, B], dim int, dom lptype.Domain[C, B], items []C) (lptype.RowAccess[C, B], *dataset.Store, error) {
	rows, err := s.Encode(dim, items)
	return s.Access(dim, dom), rows, err
}
