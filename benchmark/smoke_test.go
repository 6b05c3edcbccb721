package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// A -quick run of all four workloads, untraced then traced: every op
// correct, every end-to-end metric positive, equal digests, and the
// traced run's span file in place.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts lpserved processes and workload children: skipped in -short mode")
	}
	e, err := newEnv(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			cfg := runConfig{Seed: defaultSeed, Seconds: 1, Quick: true}
			plain, err := runWorkload(e, w.Name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !plain.Correct || plain.Failed != 0 || plain.Attempted < w.quickMinOps {
				t.Fatalf("attempted %d, failed %d: %v", plain.Attempted, plain.Failed, plain.Failures)
			}
			for _, m := range e2eMetrics {
				if v := plain.E2E[m.Name]; !(v > 0) {
					t.Errorf("%s = %v, want > 0", m.Name, v)
				}
			}
			cfg.Trace = true
			traced, err := runWorkload(e, w.Name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !traced.Correct || traced.Failed != 0 {
				t.Fatalf("traced run failed %d ops: %v", traced.Failed, traced.Failures)
			}
			if traced.AnswersDigest != plain.AnswersDigest {
				t.Errorf("answers_digest: traced %s, untraced %s", traced.AnswersDigest, plain.AnswersDigest)
			}
			if fi, err := os.Stat(traced.TraceFile); err != nil || fi.Size() == 0 {
				t.Errorf("span file %q: %v", traced.TraceFile, err)
			}
			for name := range traced.Layers {
				if !strings.Contains(name, ".") {
					t.Errorf("per-layer metric %q has no layer prefix", name)
				}
			}
			if _, err := driverLine(traced, true); err != nil {
				t.Error(err)
			}
		})
	}
}

// Deadline handling on the known failing input (README): svm(separable)
// d=3 n=2M, generator seed 1, cycles in svm.minNormPoint and does not
// return — on the coordinator with solver seed 1, and in the RAM
// reference too, which is where the child meets it first: during
// set-up. The supervisor must give up at the deadline, kill the child
// (a library solve cannot be cancelled) and carry on with a fresh one.
func TestDeadlineKillsStuckSolve(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 2M-row instance and waits out a deadline: skipped in -short mode")
	}
	e, err := newEnv(false)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	c, err := e.startChild(filepath.Join(dir, "child.log"))
	if err != nil {
		t.Fatal(err)
	}
	stuck := labSetup{Dir: dir, Insts: []instSpec{{ID: "svm-2m", Kind: "svm", Family: "separable", N: 2_000_000, D: 3, Seed: 1}}}
	const deadline = 8 * time.Second
	t0 := time.Now()
	_, err = c.call(childReq{Cmd: "setup", Setup: &stuck}, deadline)
	if err != errDeadline {
		c.quit()
		t.Fatalf("the known failing input returned after %v with err=%v; it should still be solving", time.Since(t0), err)
	}
	if took := time.Since(t0); took > deadline+3*time.Second {
		t.Errorf("giving up took %v, deadline was %v", took, deadline)
	}
	select {
	case <-c.done:
	default:
		t.Fatal("the stuck child is still running after the deadline")
	}

	// The next op gets a fresh child, as in a run.
	healthy := labSetup{Dir: dir, Insts: []instSpec{{ID: "svm-8k", Kind: "svm", Family: "separable", N: 8000, D: 3, Seed: 1}}}
	st := &closedState{dir: dir, setup: healthy}
	if err := st.respawn(e); err != nil {
		t.Fatal(err)
	}
	defer st.child.quit()
	op := opRequest{ID: 1, Inst: "svm-8k", Backend: "ram", Source: "columnar", R: 2, Seed: 1}
	rep, err := st.child.call(childReq{Cmd: "op", Op: &op}, time.Minute)
	if err != nil || !rep.Op.Correct {
		t.Fatalf("op after the respawn: err=%v reply=%+v", err, rep.Op)
	}
}
