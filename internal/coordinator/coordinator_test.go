package coordinator

import (
	"errors"
	"testing"

	"lowdimlp/internal/comm"
	"lowdimlp/internal/core"
	"lowdimlp/internal/dataset"
	"lowdimlp/internal/lp"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/numeric"
	"lowdimlp/internal/svm"
)

func sphereLP(d, n int, seed uint64) (lp.Problem, []lp.Halfspace) {
	rng := numeric.NewRand(seed, 0xc002d)
	obj := make([]float64, d)
	for i := range obj {
		obj[i] = rng.NormFloat64()
	}
	cons := make([]lp.Halfspace, n)
	for i := range cons {
		a := make([]float64, d)
		for j := range a {
			a[j] = rng.NormFloat64()
		}
		nrm := numeric.Norm2(a)
		for j := range a {
			a[j] /= nrm
		}
		cons[i] = lp.Halfspace{A: a, B: 1}
	}
	return lp.NewProblem(obj), cons
}

// partition splits items across k sites round-robin.
func partition[C any](items []C, k int) [][]C {
	parts := make([][]C, k)
	for i, c := range items {
		parts[i%k] = append(parts[i%k], c)
	}
	return parts
}

func lpCodecs(d int) (comm.Codec[lp.Halfspace], comm.Codec[lp.Basis]) {
	return lp.HalfspaceCodec{Dim: d}, lp.BasisCodec{Dim: d}
}

// solveTyped is the tests' typed entry point, built the way the
// engine builds its own: every part is encoded into its own columnar
// store (explicit, possibly empty or skewed partitions stay explicit)
// and the protocol runs over the views. The two kinds these tests use
// share the layout "coordinates, then one scalar".
func solveTyped[C, B any](dom lptype.Domain[C, B], parts [][]C, cc comm.Codec[C], bc comm.Codec[B], opt Options) (B, Stats, error) {
	d := dom.CombinatorialDim() - 1 // ν = d+1 for lp and svm
	encode := func(dst []float64, c C) []float64 {
		switch v := any(c).(type) {
		case lp.Halfspace:
			return append(append(dst, v.A...), v.B)
		case svm.Example:
			return append(append(dst, v.X...), v.Y)
		}
		panic("solveTyped: unknown constraint type")
	}
	decode := func(row []float64) C {
		var c C
		switch any(c).(type) {
		case lp.Halfspace:
			return any(lp.Halfspace{A: row[:d], B: row[d]}).(C)
		case svm.Example:
			return any(svm.Example{X: row[:d], Y: row[d]}).(C)
		}
		panic("solveTyped: unknown constraint type")
	}
	ra := lptype.NewRowAccess(dom, decode)
	sites := make([]*lptype.SiteWeights[C, B], len(parts))
	var row []float64
	for i, part := range parts {
		st := dataset.NewStore(d + 1)
		for _, c := range part {
			row = encode(row[:0], c)
			st.AppendRow(row)
		}
		sites[i] = lptype.NewSiteWeights(ra, st)
	}
	return Solve(dom, sites, cc, bc, opt)
}

func TestCoordinatorLPMatchesDirect(t *testing.T) {
	for _, k := range []int{1, 2, 4, 16} {
		for _, r := range []int{2, 3} {
			d := 3
			p, cons := sphereLP(d, 30000, uint64(100*k+r))
			dom := lp.NewDomain(p, 7)
			cc, bc := lpCodecs(d)
			got, stats, err := solveTyped(dom, partition(cons, k), cc, bc, Options{
				Core: core.Options{R: r, Seed: 5, NetConst: 0.5},
			})
			if err != nil {
				t.Fatalf("k=%d r=%d: %v (%v)", k, r, err, stats)
			}
			want, err := dom.Solve(cons)
			if err != nil {
				t.Fatal(err)
			}
			if !numeric.ApproxEqualTol(got.Sol.Value, want.Sol.Value, 1e-6) {
				t.Fatalf("k=%d r=%d: coordinator %v vs direct %v (%v)", k, r, got.Sol.Value, want.Sol.Value, stats)
			}
		}
	}
}

func TestCoordinatorRoundBound(t *testing.T) {
	// Theorem 2: O(ν·r) rounds; our protocol spends exactly two rounds
	// per net solved, plus the round that tests the last one.
	d := 3
	p, cons := sphereLP(d, 50000, 17)
	dom := lp.NewDomain(p, 3)
	nu := dom.CombinatorialDim()
	cc, bc := lpCodecs(d)
	for _, r := range []int{2, 3} {
		_, stats, err := solveTyped(dom, partition(cons, 8), cc, bc, Options{
			Core: core.Options{R: r, Seed: 1, NetConst: 0.5},
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Rounds != 2*stats.Iterations+1 {
			t.Errorf("r=%d: rounds %d, want 2·iterations+1 = %d", r, stats.Rounds, 2*stats.Iterations+1)
		}
		if stats.Rounds > 6*nu*r+2 {
			t.Errorf("r=%d: %d rounds exceed the O(ν·r) shape", r, stats.Rounds)
		}
	}
}

func TestCoordinatorCommunicationSublinear(t *testing.T) {
	// Theorem 2: O~(d⁴·n^{1/r} + d³·k) bits total — far below shipping
	// the whole input.
	d := 3
	p, cons := sphereLP(d, 100000, 29)
	dom := lp.NewDomain(p, 11)
	cc, bc := lpCodecs(d)
	_, stats, err := solveTyped(dom, partition(cons, 8), cc, bc, Options{
		Core: core.Options{R: 3, Seed: 2, NetConst: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	shipAll := int64(stats.N) * int64(cc.Bits(lp.Halfspace{}))
	if stats.TotalBits >= shipAll/4 {
		t.Errorf("communication %d bits not clearly sublinear (ship-all %d)", stats.TotalBits, shipAll)
	}
}

func TestCoordinatorSkewedPartition(t *testing.T) {
	// All constraints on one site, k-1 empty sites.
	d := 2
	p, cons := sphereLP(d, 20000, 37)
	dom := lp.NewDomain(p, 15)
	cc, bc := lpCodecs(d)
	parts := make([][]lp.Halfspace, 6)
	parts[3] = cons
	got, stats, err := solveTyped(dom, parts, cc, bc, Options{
		Core: core.Options{R: 2, Seed: 4, NetConst: 0.5},
	})
	if err != nil {
		t.Fatalf("%v (%v)", err, stats)
	}
	want, _ := dom.Solve(cons)
	if !numeric.ApproxEqualTol(got.Sol.Value, want.Sol.Value, 1e-6) {
		t.Fatal("skewed partition mismatch")
	}
}

func TestCoordinatorTinyInputShipsAll(t *testing.T) {
	d := 2
	p, cons := sphereLP(d, 30, 41)
	dom := lp.NewDomain(p, 17)
	cc, bc := lpCodecs(d)
	got, stats, err := solveTyped(dom, partition(cons, 4), cc, bc, Options{Core: core.Options{R: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.DirectSolve || stats.Rounds != 1 {
		t.Fatalf("tiny input must ship-all in one round: %+v", stats)
	}
	want, _ := dom.Solve(cons)
	if !numeric.ApproxEqualTol(got.Sol.Value, want.Sol.Value, 1e-6) {
		t.Fatal("ship-all mismatch")
	}
}

func TestCoordinatorEmptyAndNoSites(t *testing.T) {
	d := 1
	dom := lp.NewDomain(lp.Problem{Dim: d, Objective: []float64{1}, Box: 5}, 1)
	cc, bc := lpCodecs(d)
	if _, _, err := solveTyped(dom, nil, cc, bc, Options{}); !errors.Is(err, ErrNoSites) {
		t.Fatal("expected ErrNoSites")
	}
	b, stats, err := solveTyped(dom, make([][]lp.Halfspace, 3), cc, bc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.N != 0 || !numeric.ApproxEqual(b.Sol.X[0], -5) {
		t.Fatalf("empty partition: %+v", stats)
	}
}

func TestCoordinatorInfeasible(t *testing.T) {
	var cons []lp.Halfspace
	for i := 0; i < 20000; i++ {
		cons = append(cons, lp.Halfspace{A: []float64{-1}, B: -5}, lp.Halfspace{A: []float64{1}, B: 3})
	}
	dom := lp.NewDomain(lp.NewProblem([]float64{1}), 3)
	cc, bc := lpCodecs(1)
	_, _, err := solveTyped(dom, partition(cons, 4), cc, bc, Options{Core: core.Options{R: 2, Seed: 5, NetConst: 0.5}})
	if !errors.Is(err, lptype.ErrInfeasible) {
		t.Fatalf("expected ErrInfeasible, got %v", err)
	}
}

func TestCoordinatorK2SVM(t *testing.T) {
	// The SVM domain through the coordinator path (Theorem 5's model).
	d := 2
	rng := numeric.NewRand(51, 51)
	w := []float64{1, 0}
	var exs []svm.Example
	for i := 0; i < 20000; i++ {
		x := []float64{rng.NormFloat64() * 2, rng.NormFloat64() * 2}
		y := 1.0
		if rng.IntN(2) == 0 {
			y = -1
		}
		dot := numeric.Dot(w, x)
		shift := y*(0.4+rng.Float64()) - dot
		x[0] += shift
		exs = append(exs, svm.Example{X: x, Y: y})
	}
	dom := svm.NewDomain(d)
	got, stats, err := solveTyped(dom, partition(exs, 2),
		svm.ExampleCodec{Dim: d}, svm.BasisCodec{Dim: d},
		Options{Core: core.Options{R: 2, Seed: 6, NetConst: 0.5}})
	if err != nil {
		t.Fatalf("%v (%v)", err, stats)
	}
	want, err := svm.Solve(d, exs)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.ApproxEqualTol(got.Sol.Norm2, want.Norm2, 1e-5) {
		t.Fatalf("coordinator SVM %v vs direct %v", got.Sol.Norm2, want.Norm2)
	}
}

func TestCoordinatorControlTrafficGrowsWithK(t *testing.T) {
	// The k-dependent term of Theorem 2 is per-round control traffic:
	// every round exchanges Θ(k) messages (the net-shipping term
	// dominates total bits, so we assert on the message count, which is
	// deterministic given the protocol).
	d := 2
	p, cons := sphereLP(d, 50000, 61)
	dom := lp.NewDomain(p, 19)
	cc, bc := lpCodecs(d)
	var perRound []float64
	for _, k := range []int{2, 32} {
		_, stats, err := solveTyped(dom, partition(cons, k), cc, bc, Options{
			Core: core.Options{R: 3, Seed: 8, NetConst: 0.5},
		})
		if err != nil {
			t.Fatal(err)
		}
		perRound = append(perRound, float64(stats.Messages)/float64(stats.Rounds))
	}
	// Messages per round ≈ 2k (request + reply per site).
	if perRound[0] < 3 || perRound[0] > 5 {
		t.Errorf("k=2: %.1f messages/round, want ≈ 4", perRound[0])
	}
	if perRound[1] < 40 || perRound[1] > 70 {
		t.Errorf("k=32: %.1f messages/round, want ≈ 64", perRound[1])
	}
}
