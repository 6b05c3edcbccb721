package experiments

import (
	"fmt"
	"io"
	"math"

	"lowdimlp/internal/baseline"
	"lowdimlp/internal/core"
	"lowdimlp/internal/lp"
	"lowdimlp/internal/meb"
	"lowdimlp/internal/workload"
)

func init() {
	// A1 is registered here so experiments.go stays the single list of
	// paper-claim experiments; ablations extend the suite.
	register(Experiment{
		ID:    "A1",
		Title: "Ablations: net sizing, reweighting, coresets",
		Claim: "design choices called out in DESIGN.md (not paper claims)",
		Run:   runA1,
	})
}

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
		opts := core.Options{R: r, Seed: cfg.Seed, NetConst: netConst, TheoryNet: theory}
		_, stats, err := core.Solve[lp.Halfspace, lp.Basis](dom, cons, opts)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("practical c=%.1f", netConst)
		if theory {
			name = "Lemma 2.2 exact"
		}
		t.row(name, stats.NetSize, stats.Iterations, stats.Failures, yesNo(stats.DirectSolve))
	}
	t.flush()
	fmt.Fprintln(w, "(the theory constants make m ≥ n at this scale — the sampling machinery only")
	fmt.Fprintln(w, "pays off because practical constants keep the Θ(λν·n^{1/r}) shape with a small c.)")

	// (c) one-shot sampling vs the full reweighting loop.
	fmt.Fprintln(w, "\n(c) single ε-net sample vs Algorithm 1's reweighting loop:")
	t = newTable(w, "method", "sample size", "violators left", "exact?")
	m := int(math.Ceil(netConst * float64(d+1) * 10 * float64(d+1) * math.Pow(float64(n), 1.0/float64(r))))
	_, osRes, err := baseline.OneShot[lp.Halfspace, lp.Basis](dom, cons, m, cfg.Seed)
	if err != nil {
		return err
	}
	t.row("one-shot", osRes.SampleSize, osRes.Violators, yesNo(osRes.Violators == 0))
	_, stats, err := core.Solve[lp.Halfspace, lp.Basis](dom, cons, core.Options{R: r, Seed: cfg.Seed, NetConst: netConst})
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
	t.row("exact (Welzl/pivot)", fmt.Sprintf("%.6f", exact.Radius()), len(eb.Support), "1.000000")
	for _, eps := range []float64{0.1, 0.01} {
		res, err := meb.Coreset(pts, eps)
		if err != nil {
			return err
		}
		t.row(fmt.Sprintf("coreset ε=%.2f", eps), fmt.Sprintf("%.6f", res.Ball.Radius()),
			len(res.Coreset), fmt.Sprintf("%.6f", res.Ball.Radius()/exact.Radius()))
	}
	t.flush()
	return nil
}
