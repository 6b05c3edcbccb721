package lowdimlp

import (
	"fmt"
	"strings"
	"testing"

	"lowdimlp/internal/workload"
)

// TestTypedEntryPointsValidate: the typed entry points check every
// item at the engine boundary the way SolveInstance checks flat rows —
// a malformed item is one error naming the item and the wanted width,
// from every backend; never a panic, a protocol-violation report or a
// silent truncation.
func TestTypedEntryPointsValidate(t *testing.T) {
	const d, n, k, bad = 3, 3000, 4, 1249
	opt := Options{R: 2, K: k, Seed: 5}

	p, cons := workload.SphereLP(d, n, 101)
	exs, _ := workload.SeparableSVM(d, n, 0.3, 103)
	pts := workload.MEBCloud(workload.MEBGaussian, d, n, 107)

	// A defect is one malformed item planted at index bad: the four
	// backends' solves over the corrupted input, plus the text the
	// error must carry.
	type defect struct {
		name, kind, msg string
		solves          map[string]func() error
	}
	needs := func(want, got int) string { return fmt.Sprintf("needs %d numbers, got %d", want, got) }
	lpWith := func(name string, h Halfspace) defect {
		c := append([]Halfspace(nil), cons...)
		c[bad] = h
		return defect{name, "lp", needs(d+1, len(h.A)+1), map[string]func() error{
			"ram":         func() error { _, err := SolveLP(p, c, 1); return err },
			"stream":      func() error { _, _, err := SolveLPStreaming(p, NewSliceStream(c), n, opt); return err },
			"coordinator": func() error { _, _, err := SolveLPCoordinator(p, Partition(c, k), opt); return err },
			"mpc":         func() error { _, _, err := SolveLPMPC(p, c, opt); return err },
		}}
	}
	svmWith := func(name string, e SVMExample, msg string) defect {
		c := append([]SVMExample(nil), exs...)
		c[bad] = e
		return defect{name, "svm", msg, map[string]func() error{
			"ram":         func() error { _, err := SolveSVM(d, c); return err },
			"stream":      func() error { _, _, err := SolveSVMStreaming(d, NewSliceStream(c), n, opt); return err },
			"coordinator": func() error { _, _, err := SolveSVMCoordinator(d, Partition(c, k), opt); return err },
			"mpc":         func() error { _, _, err := SolveSVMMPC(d, c, opt); return err },
		}}
	}
	mebWith := func(name string, pt MEBPoint) defect {
		c := append([]MEBPoint(nil), pts...)
		c[bad] = pt
		return defect{name, "meb", needs(d, len(pt)), map[string]func() error{
			"ram":         func() error { _, err := SolveMEB(c); return err },
			"stream":      func() error { _, _, err := SolveMEBStreaming(d, NewSliceStream(c), n, opt); return err },
			"coordinator": func() error { _, _, err := SolveMEBCoordinator(d, Partition(c, k), opt); return err },
			"mpc":         func() error { _, _, err := SolveMEBMPC(d, c, opt); return err },
		}}
	}
	defects := []defect{
		lpWith("short", Halfspace{A: []float64{1, 0}, B: 1}),
		lpWith("long", Halfspace{A: []float64{1, 0, 0, 0}, B: 1}),
		svmWith("short", SVMExample{X: []float64{1, 2}, Y: 1}, needs(d+1, d)),
		svmWith("long", SVMExample{X: []float64{1, 2, 3, 4}, Y: 1}, needs(d+1, d+2)),
		svmWith("bad label", SVMExample{X: []float64{1, 2, 3}, Y: 0.5}, "svm label must be ±1, got 0.5"),
		mebWith("short", MEBPoint{1, 2}),
		mebWith("long", MEBPoint{1, 2, 3, 4}),
	}
	for _, df := range defects {
		for backend, solve := range df.solves {
			what := fmt.Sprintf("%s/%s on %s", df.kind, df.name, backend)
			// The coordinator's partition is explicit, so its error
			// names the part and the item's place in it.
			item := fmt.Sprintf("%s: item %d", df.kind, bad)
			if backend == "coordinator" {
				item = fmt.Sprintf("part %d: %s: item %d", bad%k, df.kind, bad/k)
			}
			var err error
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s: panic: %v", what, r)
					}
				}()
				if err = solve(); err == nil {
					t.Errorf("%s: the malformed item was accepted", what)
				}
			}()
			if err != nil && (!strings.Contains(err.Error(), item) || !strings.Contains(err.Error(), df.msg)) {
				t.Errorf("%s: error %q, want it to name %q and %q", what, err, item, df.msg)
			}
		}
	}
}

// TestStreamingRejectsWrongN: a caller-supplied n that disagrees with
// the stream is an error through the public API, and n ≤ 0 still
// counts.
func TestStreamingRejectsWrongN(t *testing.T) {
	p, cons := workload.SphereLP(2, 5000, 11)
	opt := Options{R: 2, Seed: 3}
	if _, _, err := SolveLPStreaming(p, NewSliceStream(cons), len(cons)-1, opt); err == nil {
		t.Error("n one short of the stream was accepted")
	}
	if _, _, err := SolveLPStreaming(p, NewSliceStream(cons), len(cons)+1, opt); err == nil {
		t.Error("n one past the stream was accepted")
	}
	_, stats, err := SolveLPStreaming(p, NewSliceStream(cons), 0, opt)
	if err != nil || stats.N != len(cons) {
		t.Fatalf("n ≤ 0 must count: %v %+v", err, stats)
	}
}
