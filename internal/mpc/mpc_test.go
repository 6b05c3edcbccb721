package mpc

import (
	"errors"
	"math"
	"testing"

	"lowdimlp/internal/comm"
	"lowdimlp/internal/core"
	"lowdimlp/internal/dataset"
	"lowdimlp/internal/lp"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/meb"
	"lowdimlp/internal/numeric"
)

func sphereLP(d, n int, seed uint64) (lp.Problem, []lp.Halfspace) {
	rng := numeric.NewRand(seed, 0x32bc)
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

// lpCodecs and mebCodecs are the kinds' codecs, the row codec spelled
// out as the engine registers it: Spec.ItemCodec is out of this
// package's reach (import cycle).
func lpCodecs(d int) (comm.RowCodec[lp.Halfspace], comm.Codec[lp.Basis]) {
	return comm.RowCodec[lp.Halfspace]{
		Width: d + 1,
		Item:  func(row []float64) lp.Halfspace { return lp.Halfspace{A: row[:d], B: row[d]} },
		Row:   func(dst []float64, h lp.Halfspace) []float64 { return append(append(dst, h.A...), h.B) },
	}, lp.BasisCodec{Dim: d}
}

func mebCodecs(d int) (comm.RowCodec[meb.Point], comm.Codec[meb.Basis]) {
	return comm.RowCodec[meb.Point]{
		Width: d,
		Item:  func(row []float64) meb.Point { return meb.Point(row) },
		Row:   func(dst []float64, p meb.Point) []float64 { return append(dst, p...) },
	}, meb.BasisCodec{Dim: d}
}

// solveTyped is the tests' typed entry point, built the way the
// engine builds its own: the items are encoded into one columnar
// store through the row codec, which SolveSource distributes
// round-robin.
func solveTyped[C, B any](dom lptype.Domain[C, B], items []C, cc comm.RowCodec[C], bc comm.Codec[B], opt Options) (B, Stats, error) {
	st := dataset.NewStore(cc.Width)
	var row []float64
	for _, c := range items {
		row = cc.Row(row[:0], c)
		st.AppendRow(row)
	}
	return SolveSource(lptype.NewRowAccess(dom, cc.Item), st, cc, bc, opt)
}

func TestTreeTopology(t *testing.T) {
	// fan=3, k=13: root 0; children(0)={1,2,3}; children(1)={4,5,6}.
	if got := children(0, 13, 3); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("children(0) = %v", got)
	}
	if got := children(1, 13, 3); len(got) != 3 || got[0] != 4 {
		t.Fatalf("children(1) = %v", got)
	}
	if parent(4, 3) != 1 || parent(3, 3) != 0 {
		t.Fatal("parent links wrong")
	}
	if level(0, 3) != 0 || level(3, 3) != 1 || level(4, 3) != 2 {
		t.Fatal("levels wrong")
	}
	if treeDepth(13, 3) != 2 {
		t.Fatalf("depth = %d", treeDepth(13, 3))
	}
	// Every node appears at exactly one level.
	seen := make(map[int]int)
	for lvl := 0; lvl <= treeDepth(13, 3); lvl++ {
		forEachAtLevel(13, 3, lvl, func(n int) { seen[n]++ })
	}
	if len(seen) != 13 {
		t.Fatalf("level scan covered %d nodes", len(seen))
	}
	for n, c := range seen {
		if c != 1 {
			t.Fatalf("node %d visited %d times", n, c)
		}
	}
}

func TestMPCLPMatchesDirect(t *testing.T) {
	for _, delta := range []float64{0.34, 0.5} {
		d := 3
		p, cons := sphereLP(d, 30000, uint64(1000*delta))
		dom := lp.NewDomain(p, 7)
		cc, bc := lpCodecs(d)
		got, stats, err := solveTyped(dom, cons, cc, bc, Options{
			Core: core.Options{Seed: 5, NetConst: 0.5}, Delta: delta,
		})
		if err != nil {
			t.Fatalf("δ=%v: %v (%v)", delta, err, stats)
		}
		want, err := dom.Solve(cons)
		if err != nil {
			t.Fatal(err)
		}
		if !numeric.ApproxEqualTol(got.Sol.Value, want.Sol.Value, 1e-6) {
			t.Fatalf("δ=%v: mpc %v vs direct %v (%v)", delta, got.Sol.Value, want.Sol.Value, stats)
		}
	}
}

func TestMPCLoadSublinear(t *testing.T) {
	// Theorem 3: load O~(n^δ) per machine per round — no machine may
	// ever see anything close to the whole input.
	d := 2
	n := 100000
	p, cons := sphereLP(d, n, 77)
	dom := lp.NewDomain(p, 3)
	cc, bc := lpCodecs(d)
	_, stats, err := solveTyped(dom, cons, cc, bc, Options{
		Core: core.Options{Seed: 1, NetConst: 0.5}, Delta: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	inputBits := int64(n) * int64(cc.Bits(lp.Halfspace{}))
	if stats.MaxLoadBits >= inputBits/5 {
		t.Errorf("load %d bits not sublinear (input %d)", stats.MaxLoadBits, inputBits)
	}
	// The dominant round is the root receiving the net: load ≤ 2·m·bit.
	netBits := int64(2*stats.NetSize) * int64(cc.Bits(lp.Halfspace{}))
	if stats.MaxLoadBits > netBits {
		t.Errorf("load %d exceeds the O~(m·bit) structure (%d)", stats.MaxLoadBits, netBits)
	}
	if stats.Machines < 100 {
		t.Errorf("expected ≈ n^{1-δ} ≈ 316 machines, got %d", stats.Machines)
	}
}

func TestMPCRoundsScaleWithDelta(t *testing.T) {
	// Rounds grow as δ shrinks (O(ν/δ²) shape).
	d := 2
	p, cons := sphereLP(d, 60000, 31)
	dom := lp.NewDomain(p, 9)
	cc, bc := lpCodecs(d)
	var rounds []int
	for _, delta := range []float64{0.5, 0.3} {
		_, stats, err := solveTyped(dom, cons, cc, bc, Options{
			Core: core.Options{Seed: 3, NetConst: 0.5}, Delta: delta,
		})
		if err != nil {
			t.Fatal(err)
		}
		rounds = append(rounds, stats.Rounds)
	}
	if rounds[1] <= rounds[0] {
		t.Errorf("rounds %v must grow as δ shrinks", rounds)
	}
}

func TestMPCSingleMachine(t *testing.T) {
	// Degenerate but legal: one machine holds everything.
	d := 2
	p, cons := sphereLP(d, 5000, 41)
	dom := lp.NewDomain(p, 11)
	cc, bc := lpCodecs(d)
	got, stats, err := solveTyped(dom, cons, cc, bc, Options{
		Core: core.Options{Seed: 4, NetConst: 0.5}, Delta: 0.5, Machines: 1,
	})
	if err != nil {
		t.Fatalf("%v (%v)", err, stats)
	}
	want, _ := dom.Solve(cons)
	if !numeric.ApproxEqualTol(got.Sol.Value, want.Sol.Value, 1e-6) {
		t.Fatal("single machine mismatch")
	}
	if stats.TotalBits != 0 {
		t.Errorf("single machine should send nothing, sent %d bits", stats.TotalBits)
	}
}

func TestMPCTinyShipsAll(t *testing.T) {
	d := 2
	p, cons := sphereLP(d, 40, 43)
	dom := lp.NewDomain(p, 13)
	cc, bc := lpCodecs(d)
	got, stats, err := solveTyped(dom, cons, cc, bc, Options{Core: core.Options{Seed: 2}, Delta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 1 {
		t.Fatalf("tiny input should resolve in one round: %+v", stats)
	}
	want, _ := dom.Solve(cons)
	if !numeric.ApproxEqualTol(got.Sol.Value, want.Sol.Value, 1e-6) {
		t.Fatal("ship-all mismatch")
	}
}

func TestMPCEmpty(t *testing.T) {
	d := 1
	dom := lp.NewDomain(lp.Problem{Dim: d, Objective: []float64{1}, Box: 5}, 1)
	cc, bc := lpCodecs(d)
	b, stats, err := solveTyped(dom, nil, cc, bc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.N != 0 || !numeric.ApproxEqual(b.Sol.X[0], -5) {
		t.Fatal("empty input")
	}
}

func TestMPCInfeasible(t *testing.T) {
	var cons []lp.Halfspace
	for i := 0; i < 20000; i++ {
		cons = append(cons, lp.Halfspace{A: []float64{-1}, B: -5}, lp.Halfspace{A: []float64{1}, B: 3})
	}
	dom := lp.NewDomain(lp.NewProblem([]float64{1}), 3)
	cc, bc := lpCodecs(1)
	_, _, err := solveTyped(dom, cons, cc, bc, Options{Core: core.Options{Seed: 5, NetConst: 0.5}, Delta: 0.5})
	if !errors.Is(err, lptype.ErrInfeasible) {
		t.Fatalf("expected ErrInfeasible, got %v", err)
	}
}

func TestMPCMEB(t *testing.T) {
	rng := numeric.NewRand(51, 51)
	var pts []meb.Point
	for i := 0; i < 30000; i++ {
		p := make(meb.Point, 2)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		pts = append(pts, p)
	}
	dom := meb.NewDomain(2)
	cc, bc := mebCodecs(2)
	got, stats, err := solveTyped(dom, pts, cc, bc,
		Options{Core: core.Options{Seed: 6, NetConst: 0.5}, Delta: 0.5})
	if err != nil {
		t.Fatalf("%v (%v)", err, stats)
	}
	want, err := meb.Solve(pts)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.ApproxEqualTol(got.B.R2, want.R2, 1e-6) {
		t.Fatalf("mpc MEB %v vs direct %v", got.B.R2, want.R2)
	}
}

func TestMPCLoadScalesWithDelta(t *testing.T) {
	// Larger δ ⇒ fewer, fatter machines ⇒ larger per-round load.
	d := 2
	p, cons := sphereLP(d, 100000, 61)
	dom := lp.NewDomain(p, 15)
	cc, bc := lpCodecs(d)
	var loads []int64
	for _, delta := range []float64{0.3, 0.6} {
		_, stats, err := solveTyped(dom, cons, cc, bc, Options{
			Core: core.Options{Seed: 8, NetConst: 0.5}, Delta: delta,
		})
		if err != nil {
			t.Fatal(err)
		}
		loads = append(loads, stats.MaxLoadBits)
	}
	if loads[1] <= loads[0] {
		t.Errorf("load %v must grow with δ", loads)
	}
	// Shape: load(δ=0.6)/load(δ=0.3) should be around n^{0.3} = 31.6,
	// loosely (the net-size term dominates).
	ratio := float64(loads[1]) / float64(loads[0])
	if ratio < 2 || ratio > float64(math.Pow(100000, 0.4)) {
		t.Logf("load ratio %.1f (informational)", ratio)
	}
}

func TestMPCDeterminism(t *testing.T) {
	d := 2
	p, cons := sphereLP(d, 20000, 71)
	dom := lp.NewDomain(p, 17)
	cc, bc := lpCodecs(d)
	opt := Options{Core: core.Options{Seed: 9, NetConst: 0.5}, Delta: 0.5}
	b1, s1, err := solveTyped(dom, cons, cc, bc, opt)
	if err != nil {
		t.Fatal(err)
	}
	b2, s2, err := solveTyped(dom, cons, cc, bc, opt)
	if err != nil {
		t.Fatal(err)
	}
	if b1.Sol.Value != b2.Sol.Value || s1.Rounds != s2.Rounds || s1.TotalBits != s2.TotalBits {
		t.Error("equal seeds must reproduce the run")
	}
}
