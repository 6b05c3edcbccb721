package experiments

import (
	"fmt"
	"io"

	"lowdimlp/internal/baseline"
	"lowdimlp/internal/core"
	"lowdimlp/internal/engine"
	"lowdimlp/internal/lp"
	"lowdimlp/internal/meb"
	"lowdimlp/internal/models"
	"lowdimlp/internal/workload"
)

// yesNo renders an informational boolean (expected-negative ablation
// cells use it so they do not read as failures).
func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// runA1 — ablation sweeps over the implementation's design choices.
func runA1(w io.Writer, cfg Config) error {
	n := 100_000
	if cfg.Quick {
		n = 30_000
	}
	d, r := 3, 3

	p, cons := workload.SphereLP(d, n, cfg.Seed+1)
	dom := lp.NewDomain(p, cfg.Seed)

	// (b) theory-exact (Lemma 2.2) vs practical net size.
	fmt.Fprintln(w, "(b) Lemma 2.2 net size vs the practical constant:")
	t := newTable(w, "net sizing", "m", "iterations", "failures", "direct?")
	for _, theory := range []bool{false, true} {
		opts := core.Options{R: r, Seed: cfg.Seed, TheoryNet: theory}
		_, stats, err := core.Solve[lp.Halfspace, lp.Basis](dom, cons, opts)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("practical c=%g", core.DefaultNetConst)
		if theory {
			name = "Lemma 2.2 exact"
		}
		t.row(name, stats.NetSize, stats.Iterations, stats.Failures, yesNo(stats.DirectSolve))
	}
	t.flush()
	fmt.Fprintln(w, "(the theory constants make n ≤ 2m+1 at this scale, so the input ships whole — the")
	fmt.Fprintln(w, "sampling machinery only pays off because practical constants keep the Θ(λν·n^{1/r})")
	fmt.Fprintln(w, "shape with a small c.)")

	// (c) one-shot sampling vs the full reweighting loop.
	fmt.Fprintln(w, "\n(c) single ε-net sample vs Algorithm 1's reweighting loop:")
	t = newTable(w, "method", "sample size", "violators left", "exact?")
	m := core.NewParams(n, dom.CombinatorialDim(), dom.VCDim(), core.Options{R: r}).M
	ra, rows, err := columnar(models.LP, d, dom, cons)
	if err != nil {
		return err
	}
	_, osRes, err := baseline.OneShot(ra, rows, m, cfg.Seed)
	if err != nil {
		return err
	}
	t.row("one-shot", osRes.SampleSize, osRes.Violators, yesNo(osRes.Violators == 0))
	_, stats, err := core.Solve[lp.Halfspace, lp.Basis](dom, cons, core.Options{R: r, Seed: cfg.Seed})
	if err != nil {
		return err
	}
	t.row("algorithm 1", stats.NetSize, 0, yesNo(true))
	t.flush()

	// (d) exact LP-type MEB vs Bădoiu–Clarkson coresets.
	fmt.Fprintln(w, "\n(d) exact MEB vs (1+ε)-coresets (core vector machines, §4.3):")
	t = newTable(w, "method", "radius", "support/coreset size", "radius ratio")
	pts := workload.MEBCloud(workload.MEBGaussian, d, n, cfg.Seed+2)
	exact, err := meb.Solve(pts)
	if err != nil {
		return err
	}
	mdom := meb.NewDomain(d)
	eb, err := mdom.Solve(pts)
	if err != nil {
		return err
	}
	t.row("exact (pivot)", fmt.Sprintf("%.6f", exact.Radius()), len(eb.Support), "1.000000")
	for _, eps := range []float64{0.1, 0.01} {
		res, err := meb.Coreset(pts, eps)
		if err != nil {
			return err
		}
		t.row(fmt.Sprintf("coreset ε=%.2f", eps), fmt.Sprintf("%.6f", res.Ball.Radius()),
			len(res.Coreset), fmt.Sprintf("%.6f", res.Ball.Radius()/exact.Radius()))
	}
	t.flush()

	fmt.Fprintln(w, "\n(e) the net constant c in m = c·λ/ε, against Claim 3.2's 2/3 success rate:")
	return runNetConsts(w, cfg, n)
}

// netConsts is A1(e)'s grid of net constants.
var netConsts = []float64{0.5, 0.75, 1, 1.25, 1.5, 2}

// runNetConsts — A1(e): every c of the grid × r ∈ {2, 3} × lp, meb,
// sea (d = 3, each kind's default generator family) × the three
// sampled backends, each cell over several solver seeds, through the
// engine as the library and lpserved run it (K = 4 sites, δ = 0.5).
// Per cell: the pooled success ratio successes ÷ (successes +
// failures), the mean passes (stream) or rounds, the mean coordinator
// bits, MPC max load and stream PeakSpaceBits, and the share of seeds
// that shipped the input whole (n ≤ 2m+1). It then prints the smallest
// c at which every cell with a tested iteration reaches 2/3 — the rule
// that chose core.DefaultNetConst. svm has no cells yet: its solve
// terminates since it moved onto lptype.SolvePivot, and its cells (with
// the d = 5 row) are a change of their own, since a wider grid may
// choose another c.
func runNetConsts(w io.Writer, cfg Config, n int) error {
	seeds := 8
	if cfg.Quick {
		seeds = 3
	}
	t := newTable(w, "kind", "model", "r", "c", "success", "passes/rounds", "bits(kb)", "load(kb)", "space(kb)", "direct")
	short := make(map[float64]bool) // a sampled cell at c fell short of 2/3
	for _, kind := range []string{"lp", "meb", "sea"} {
		m, _ := engine.Lookup(kind)
		inst, err := m.Generate(m.Families()[0], engine.GenParams{N: n, D: 3, Seed: cfg.Seed})
		if err != nil {
			return err
		}
		src, err := engine.Columnar(m, inst)
		if err != nil {
			return err
		}
		for _, backend := range []string{engine.BackendStream, engine.BackendCoordinator, engine.BackendMPC} {
			for _, r := range []int{2, 3} {
				for _, c := range netConsts {
					var succ, fail, steps, direct int
					var bits, load, space int64
					for s := 1; s <= seeds; s++ {
						opt := engine.Options{R: r, Seed: cfg.Seed + uint64(s), NetConst: c}
						_, st, err := m.SolveSource(backend, inst.Dim, inst.Objective, src, opt)
						if err != nil {
							return fmt.Errorf("%s/%s r=%d c=%g seed %d: %w", kind, backend, r, c, s, err)
						}
						var rs core.RunStats
						switch {
						case st.Stream != nil:
							rs, steps, space = st.Stream.RunStats, steps+st.Stream.Passes, space+st.Stream.PeakSpaceBits
						case st.Coordinator != nil:
							rs, steps, bits = st.Coordinator.RunStats, steps+st.Coordinator.Rounds, bits+st.Coordinator.TotalBits
						case st.MPC != nil:
							rs, steps, load = st.MPC.RunStats, steps+st.MPC.Rounds, load+st.MPC.MaxLoadBits
						}
						succ, fail = succ+rs.Successes, fail+rs.Failures
						if rs.DirectSolve {
							direct++
						}
					}
					ratio := "—"
					if succ+fail > 0 {
						ratio = fmt.Sprintf("%.2f", float64(succ)/float64(succ+fail))
						short[c] = short[c] || 3*succ < 2*(succ+fail)
					}
					mean := func(v int64) string {
						if v == 0 {
							return "—"
						}
						return kb(v / int64(seeds))
					}
					t.row(kind, backend, r, c, ratio, fmt.Sprintf("%.1f", float64(steps)/float64(seeds)),
						mean(bits), mean(load), mean(space), fmt.Sprintf("%d/%d", direct, seeds))
				}
			}
		}
	}
	t.flush()
	chosen := "none"
	for _, c := range netConsts {
		if !short[c] {
			chosen = fmt.Sprint(c)
			break
		}
	}
	fmt.Fprintf(w, "\nselected c = %s: the smallest c at which every cell with a tested iteration succeeds in ≥ 2/3 of them\n", chosen)
	fmt.Fprintf(w, "(Claim 3.2). core.DefaultNetConst = %g.\n", core.DefaultNetConst)
	return nil
}
