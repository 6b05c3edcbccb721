package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
)

var errFake = errors.New("fake substrate failure")

// fakeReport is what Test(bk) reports for the k-th solved basis.
type fakeReport struct {
	wS, wV    float64
	violators int
}

// fakeSubstrate records every call Run makes on it — and on the solve
// func it hands out — as one log line, and fails the call named by
// failAt with errFake. Bases are the solve count: b1, b2, …
type fakeSubstrate struct {
	reports []fakeReport
	failAt  string
	m       int
	log     []string
	solves  int
}

func (f *fakeSubstrate) call(name string) error {
	f.log = append(f.log, name)
	if name == f.failAt {
		return errFake
	}
	return nil
}

func (f *fakeSubstrate) Test(pending *int) (float64, float64, int, error) {
	if pending == nil {
		return 0, 0, 0, f.call("Test(nil)")
	}
	name := fmt.Sprintf("Test(b%d)", *pending)
	if *pending > len(f.reports) {
		f.log = append(f.log, name)
		return 0, 0, 0, fmt.Errorf("unscripted %s", name)
	}
	r := f.reports[*pending-1]
	return r.wS, r.wV, r.violators, f.call(name)
}

func (f *fakeSubstrate) Sample(success bool, net []int) error {
	if len(net) != f.m {
		return fmt.Errorf("Sample got a net of %d, want %d", len(net), f.m)
	}
	return f.call(fmt.Sprintf("Sample(%v)", success))
}

func (f *fakeSubstrate) All() ([]int, error) { return []int{1, 2, 3}, f.call("All") }

func (f *fakeSubstrate) solve(net []int) (int, error) {
	f.solves++
	if err := f.call(fmt.Sprintf("solve→b%d", f.solves)); err != nil {
		return 0, err
	}
	return f.solves, nil
}

// TestRunContract pins the driver's contract with its substrates: the
// call order, the four decisions (terminate, success at the w(V) ≤
// ε·w(S) boundary, failure, Monte-Carlo exit) and the budget — at most
// MaxIters nets solved, each tested — plus errors returned unwrapped
// with the counts so far, and the direct path's one All and no Sample.
func TestRunContract(t *testing.T) {
	const eps = 0.5
	succeed := fakeReport{10, 5, 3} // w(V) = ε·w(S) exactly
	fail := fakeReport{10, math.Nextafter(5, 6), 3}
	done := fakeReport{10, 0, 0}
	for _, tc := range []struct {
		name    string
		p       Params
		reports []fakeReport
		failAt  string
		log     []string
		basis   int
		counts  Counts
		err     error
	}{
		{name: "success at the boundary, then terminate", reports: []fakeReport{succeed, done},
			log:   []string{"Test(nil)", "Sample(false)", "solve→b1", "Test(b1)", "Sample(true)", "solve→b2", "Test(b2)"},
			basis: 2, counts: Counts{Tests: 3, Solves: 2, Successes: 1}},
		{name: "failure just above the boundary", reports: []fakeReport{fail, done},
			log:   []string{"Test(nil)", "Sample(false)", "solve→b1", "Test(b1)", "Sample(false)", "solve→b2", "Test(b2)"},
			basis: 2, counts: Counts{Tests: 3, Solves: 2, Failures: 1}},
		{name: "monte-carlo failure exits", p: Params{MonteCarlo: true}, reports: []fakeReport{fail},
			log:    []string{"Test(nil)", "Sample(false)", "solve→b1", "Test(b1)"},
			counts: Counts{Tests: 2, Solves: 1, Failures: 1}, err: ErrRoundFailed},
		{name: "monte-carlo success goes on", p: Params{MonteCarlo: true}, reports: []fakeReport{succeed, done},
			log:   []string{"Test(nil)", "Sample(false)", "solve→b1", "Test(b1)", "Sample(true)", "solve→b2", "Test(b2)"},
			basis: 2, counts: Counts{Tests: 3, Solves: 2, Successes: 1}},
		{name: "budget: the last net is solved and tested", p: Params{MaxIters: 2}, reports: []fakeReport{fail, done},
			log:   []string{"Test(nil)", "Sample(false)", "solve→b1", "Test(b1)", "Sample(false)", "solve→b2", "Test(b2)"},
			basis: 2, counts: Counts{Tests: 3, Solves: 2, Failures: 1}},
		{name: "budget exhausted", p: Params{MaxIters: 2}, reports: []fakeReport{fail, succeed},
			log:    []string{"Test(nil)", "Sample(false)", "solve→b1", "Test(b1)", "Sample(false)", "solve→b2", "Test(b2)"},
			counts: Counts{Tests: 3, Solves: 2, Successes: 1, Failures: 1}, err: ErrIterationBudget},
		{name: "bootstrap Test error", failAt: "Test(nil)",
			log: []string{"Test(nil)"}, counts: Counts{Tests: 1}, err: errFake},
		{name: "Sample error", failAt: "Sample(false)",
			log: []string{"Test(nil)", "Sample(false)"}, counts: Counts{Tests: 1}, err: errFake},
		{name: "solve error", failAt: "solve→b1",
			log: []string{"Test(nil)", "Sample(false)", "solve→b1"}, counts: Counts{Tests: 1, Solves: 1}, err: errFake},
		{name: "Test error", failAt: "Test(b1)", reports: []fakeReport{succeed},
			log: []string{"Test(nil)", "Sample(false)", "solve→b1", "Test(b1)"}, counts: Counts{Tests: 2, Solves: 1}, err: errFake},
		{name: "Sample error after a success", failAt: "Sample(true)", reports: []fakeReport{succeed},
			log:    []string{"Test(nil)", "Sample(false)", "solve→b1", "Test(b1)", "Sample(true)"},
			counts: Counts{Tests: 2, Solves: 1, Successes: 1}, err: errFake},
		{name: "direct", p: Params{Direct: true},
			log: []string{"All", "solve→b1"}, basis: 1, counts: Counts{Solves: 1}},
		{name: "direct All error", p: Params{Direct: true}, failAt: "All",
			log: []string{"All"}, err: errFake},
		{name: "direct solve error", p: Params{Direct: true}, failAt: "solve→b1",
			log: []string{"All", "solve→b1"}, counts: Counts{Solves: 1}, err: errFake},
	} {
		p := tc.p
		p.Eps, p.M = eps, 4
		if p.MaxIters == 0 {
			p.MaxIters = 10
		}
		f := &fakeSubstrate{reports: tc.reports, failAt: tc.failAt, m: p.M}
		b, counts, err := Run[int, int](p, f, f.solve)
		if err != tc.err || counts != tc.counts || !slices.Equal(f.log, tc.log) || (err == nil && b != tc.basis) {
			t.Errorf("%s:\n got basis b%d, %+v, err %v, calls %q\nwant basis b%d, %+v, err %v, calls %q",
				tc.name, b, counts, err, f.log, tc.basis, tc.counts, tc.err, tc.log)
		}
	}
}

// TestNewParams pins the net size and the ship-all rule: m = ⌈c·λ/ε⌉
// (Monte-Carlo scales c by ln(nν)/ln 6; TheoryNet takes Lemma 2.2's
// size), and the run is direct — M = n — exactly when n ≤ 2m+1, decided
// before m is converted, so a huge c cannot overflow it.
func TestNewParams(t *testing.T) {
	for _, tc := range []struct {
		n, nu, lambda, r int
		c                float64
		monteCarlo       bool
		theory           bool
		m                int
		direct           bool
	}{
		{n: 20000, nu: 3, lambda: 3, r: 2, c: 0.5, m: 6364},
		{n: 20000, nu: 3, lambda: 3, r: 3, c: 0.2, m: 489},
		{n: 20000, nu: 3, lambda: 3, r: 3, c: 0.5, monteCarlo: true, m: 7501},
		// m = 15 631 < n ≤ 2m+1: sampled under the old m ≥ n rule.
		{n: 20000, nu: 3, lambda: 3, r: 2, c: 0.2, monteCarlo: true, m: 20000, direct: true},
		// The zero constant is DefaultNetConst.
		{n: 20000, nu: 3, lambda: 3, r: 3, c: 0, m: int(math.Ceil(DefaultNetConst * 3 * 10 * 3 * math.Cbrt(20000)))},
		{n: 20000, nu: 3, lambda: 3, r: 2, theory: true, m: 20000, direct: true},
		// m = ⌈10·4.949·√n⌉ = 4 900 on both sides of the boundary.
		{n: 9801, nu: 1, lambda: 1, r: 2, c: 4.949, m: 9801, direct: true},
		{n: 9802, nu: 1, lambda: 1, r: 2, c: 4.949, m: 4900},
		{n: 20000, nu: 3, lambda: 3, r: 2, c: 1e308, m: 20000, direct: true},
		{n: 20000, nu: 3, lambda: 3, r: 3, c: math.Inf(1), m: 20000, direct: true},
	} {
		opt := Options{R: tc.r, NetConst: tc.c, MonteCarlo: tc.monteCarlo, TheoryNet: tc.theory}
		p := NewParams(tc.n, tc.nu, tc.lambda, opt)
		if p.M != tc.m || p.Direct != tc.direct {
			t.Errorf("NewParams(n=%d, ν=%d, λ=%d, %+v) = m %d, direct %v; want m %d, direct %v",
				tc.n, tc.nu, tc.lambda, opt, p.M, p.Direct, tc.m, tc.direct)
		}
	}
}
