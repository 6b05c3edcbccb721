// Package experiments is the reproduction harness: one experiment per
// claim of the paper (see DESIGN.md §3 for the index). Each experiment
// sweeps parameters, runs the relevant algorithms, and prints a table;
// cmd/lpbench drives them from the command line and the root
// bench_test.go exposes each as a benchmark target. EXPERIMENTS.md
// records the measured outputs next to the paper's claims.
package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// Config tunes an experiment run.
type Config struct {
	// Quick shrinks the sweeps (used by `go test -bench` and CI); the
	// full sweeps are what EXPERIMENTS.md records.
	Quick bool
	// Seed makes runs reproducible.
	Seed uint64
}

// Experiment is one reproducible claim.
type Experiment struct {
	ID    string
	Title string
	Claim string // the paper statement being reproduced
	Run   func(w io.Writer, cfg Config) error
}

// All returns the experiment suite in DESIGN.md order: the paper's
// tables, then the ablations.
func All() []Experiment {
	return []Experiment{
		{"E1", "Streaming LP: passes and space vs n, d, r",
			"Theorem 1/4: O(d·r) passes, O~(d³·n^{1/r}) space", runE1},
		{"E2", "Coordinator LP: rounds and communication",
			"Theorem 2/4: O(d·r) rounds, O~(d⁴n^{1/r}+d³k) bits", runE2},
		{"E3", "MPC LP: rounds and per-machine load",
			"Theorem 3/4: O(d/δ²) rounds, O~(d³n^δ) load", runE3},
		{"E4", "Pass complexity vs the Chan–Chen baseline",
			"§1.1: O(d·r) passes vs O(r^{d-1})", runE4},
		{"E5", "Streaming/coordinator SVM",
			"Theorem 5: LP bounds carry over to hard-margin SVM", runE5},
		{"E6", "Streaming/coordinator/MPC MEB (core vector machine)",
			"Theorem 6: LP bounds carry over to MEB", runE6},
		{"E7", "Meta-algorithm iteration behaviour",
			"Claims 3.2–3.5, Lemma 3.3: ≥2/3 success rate, O(ν·r) iterations, weight sandwich", runE7},
		{"E8", "Lower-bound family: communication on hard TCI instances",
			"Theorem 7/9/10: Ω(n^{1/2r}/poly(r)) vs the O~(r·n^{1/r}) protocol", runE8},
		{"F1", "TCI ↔ 2-D LP reduction correctness",
			"Figure 1b: the LP optimum recovers the TCI answer", runF1},
		{"F2", "Hard-instance structure",
			"Figure 2 / Props 5.7–5.10: validity and answer preservation of D_r", runF2},
		{"A1", "Ablations: net sizing, reweighting, coresets, the net constant",
			"design choices called out in DESIGN.md (not paper claims)", runA1},
	}
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment, writing tables to w.
func RunAll(w io.Writer, cfg Config) error {
	for _, e := range All() {
		if err := RunOne(w, e, cfg); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return nil
}

// RunOne executes a single experiment with its header.
func RunOne(w io.Writer, e Experiment, cfg Config) error {
	fmt.Fprintf(w, "\n=== %s — %s ===\n", e.ID, e.Title)
	fmt.Fprintf(w, "paper claim: %s\n\n", e.Claim)
	return e.Run(w, cfg)
}

// table is a small helper around tabwriter.
type table struct {
	tw *tabwriter.Writer
}

func newTable(w io.Writer, header ...any) *table {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	t := &table{tw: tw}
	t.row(header...)
	return t
}

func (t *table) row(cells ...any) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(t.tw, "\t")
		}
		fmt.Fprint(t.tw, c)
	}
	fmt.Fprintln(t.tw)
}

func (t *table) flush() { t.tw.Flush() }

// kb renders a bit count in kilobits with one decimal.
func kb(bits int64) string { return fmt.Sprintf("%.1f", float64(bits)/1e3) }

// pass renders a correctness assertion: "yes", or "FAIL" — the string
// the integration test (and a reader) greps for.
func pass(ok bool) string {
	if ok {
		return "yes"
	}
	return "FAIL"
}
