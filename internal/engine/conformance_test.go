// Registry conformance suite: every registered kind — present and
// future — must satisfy the engine contracts. A new kind registered in
// internal/models is picked up here automatically; run with -race to
// double as the engine's data-race check.
package engine_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"lowdimlp/internal/comm"
	"lowdimlp/internal/engine"
	_ "lowdimlp/internal/models" // populates the registry
)

// roundTripper is the conformance view of a registered Spec: the codec
// round trips export_test.go adds to *Spec, outside the Model
// interface.
type roundTripper interface {
	RowRoundTrip(dim int, row []float64) []float64
	ItemWire(dim int, rows [][]float64) []byte
	DecodeItems(dim int, payload []byte, k int) ([][]float64, int, error)
	DecodeItem(dim int, payload []byte) ([]float64, int, error)
	BasisRoundTrip(inst engine.Instance, opt engine.Options) (engine.Solution, engine.Solution, error)
}

// conformanceInstance generates a small default-family instance of m.
func conformanceInstance(t *testing.T, m engine.Model, n int, seed uint64) engine.Instance {
	t.Helper()
	inst, err := m.Generate(m.Families()[0], engine.GenParams{N: n, D: 3, Seed: seed})
	if err != nil {
		t.Fatalf("%s: generate: %v", m.Kind(), err)
	}
	return inst
}

func TestRegistryHasAllKinds(t *testing.T) {
	want := []string{"lp", "svm", "meb", "sea"}
	got := engine.Kinds()
	if len(got) != len(want) {
		t.Fatalf("kinds %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("kinds %v, want %v", got, want)
		}
	}
	for _, k := range want {
		m, ok := engine.Lookup(k)
		if !ok || m.Kind() != k {
			t.Fatalf("lookup %q failed", k)
		}
		if len(m.Families()) == 0 {
			t.Fatalf("%s: no generator families", k)
		}
		if m.Describe() == "" || m.RowLabel() == "" {
			t.Fatalf("%s: missing metadata", k)
		}
	}
}

// TestRowAndCodecRoundTrips checks, for every kind, that a flat row
// survives row⇄item conversion and the item wire codec bit for bit,
// and that a constraint's wire form is its row: at every width the item
// codec writes each row's float64s little-endian in row order — the
// bytes a worker built before the one row codec sends — decodes k rows
// at once exactly as one by one, reports the row a cut payload ends in,
// and refuses trailing bytes.
func TestRowAndCodecRoundTrips(t *testing.T) {
	for _, m := range engine.Models() {
		m := m
		t.Run(m.Kind(), func(t *testing.T) {
			t.Parallel()
			rt := m.(roundTripper)
			inst := conformanceInstance(t, m, 50, 7)
			if w := m.RowWidth(inst.Dim); len(inst.Rows[0]) != w {
				t.Fatalf("generated row width %d, RowWidth says %d", len(inst.Rows[0]), w)
			}
			for i, row := range inst.Rows {
				if err := m.CheckRow(inst.Dim, row); err != nil {
					t.Fatalf("generated row %d rejected: %v", i, err)
				}
				back := rt.RowRoundTrip(inst.Dim, row)
				assertBitsEqual(t, "row roundtrip", row, back)
				coded, n, err := rt.DecodeItem(inst.Dim, rt.ItemWire(inst.Dim, [][]float64{row}))
				if err != nil {
					t.Fatalf("codec roundtrip row %d: %v", i, err)
				}
				if n != 8*len(row) {
					t.Fatalf("codec roundtrip row %d: consumed %d bytes of %d", i, n, 8*len(row))
				}
				assertBitsEqual(t, "codec roundtrip", row, coded)
			}
			for _, d := range []int{1, 2, 3, 5, 16} {
				checkRowWire(t, rt, d, wireRows(m.RowWidth(d), 9, uint64(d)))
			}
		})
	}
}

// wireRows returns k rows of width w: Gaussian numbers with a negative
// zero, a subnormal and the extremes of float64 among them, so the bit
// comparisons see every exponent class.
func wireRows(w, k int, seed uint64) [][]float64 {
	rng := rand.New(rand.NewPCG(seed, 0x3173))
	special := []float64{math.Copysign(0, -1), 5e-324, math.MaxFloat64, -math.SmallestNonzeroFloat64, math.Inf(-1)}
	rows := make([][]float64, k)
	for j := range rows {
		rows[j] = make([]float64, w)
		for i := range rows[j] {
			rows[j][i] = rng.NormFloat64()
		}
		rows[j][j%w] = special[j%len(special)]
	}
	return rows
}

// checkRowWire pins the item codec at dimension d to the row layout.
func checkRowWire(t *testing.T, rt roundTripper, d int, rows [][]float64) {
	t.Helper()
	w := len(rows[0])
	var want []byte
	for _, row := range rows {
		for _, v := range row {
			want = binary.LittleEndian.AppendUint64(want, math.Float64bits(v))
		}
	}
	wire := rt.ItemWire(d, rows)
	if !bytes.Equal(wire, want) {
		t.Fatalf("d=%d: item codec bytes are not the rows' little-endian float64s", d)
	}
	batch, n, err := rt.DecodeItems(d, wire, len(rows))
	if err != nil || n != len(rows) {
		t.Fatalf("d=%d: decoding %d rows at once: %d rows, %v", d, len(rows), n, err)
	}
	for j, row := range rows {
		one, used, err := rt.DecodeItem(d, wire[j*8*w:])
		if err != nil || used != 8*w {
			t.Fatalf("d=%d: decoding row %d alone: %d bytes, %v", d, j, used, err)
		}
		assertBitsEqual(t, fmt.Sprintf("d=%d row %d at once", d, j), row, batch[j])
		assertBitsEqual(t, fmt.Sprintf("d=%d row %d alone", d, j), row, one)
	}
	for j := range rows {
		_, n, err := rt.DecodeItems(d, wire[:j*8*w+5], len(rows))
		if n != j || !errors.Is(err, comm.ErrShortRow) || !strings.Contains(err.Error(), fmt.Sprintf("item %d:", j)) {
			t.Fatalf("d=%d: payload cut inside row %d: decoded %d rows, error %v", d, j, n, err)
		}
	}
	if _, n, err := rt.DecodeItems(d, append(wire, 0), len(rows)); err == nil || n != len(rows) {
		t.Fatalf("d=%d: a trailing byte: decoded %d rows, error %v", d, n, err)
	}
}

// assertBitsEqual compares two rows bit for bit (negative zero is not
// zero here).
func assertBitsEqual(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: width %d → %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: %v → %v", what, a, b)
		}
	}
}

// TestBasisCodecRendersIdentically checks that a basis pushed through
// its wire codec still renders the same solution — i.e. the codec
// transmits everything a remote consumer needs.
func TestBasisCodecRendersIdentically(t *testing.T) {
	for _, m := range engine.Models() {
		m := m
		t.Run(m.Kind(), func(t *testing.T) {
			t.Parallel()
			inst := conformanceInstance(t, m, 120, 11)
			orig, decoded, err := m.(roundTripper).BasisRoundTrip(inst, engine.Options{Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			assertSolutionsClose(t, m.Kind()+" basis codec", orig, decoded, 0)
		})
	}
}

// TestBackendsAgree solves the same instance of every kind on all
// four backends and checks each against the ram reference. With
// -race (concurrent coordinator rounds, parallel subtests) this is also
// the engine's race check.
func TestBackendsAgree(t *testing.T) {
	for _, m := range engine.Models() {
		m := m
		t.Run(m.Kind(), func(t *testing.T) {
			t.Parallel()
			inst := conformanceInstance(t, m, 800, 23)
			opt := engine.Options{R: 2, Seed: 23, K: 4, Parallel: true}
			ref, _, err := m.SolveInstance(engine.BackendRAM, inst, opt)
			if err != nil {
				t.Fatalf("ram reference: %v", err)
			}
			for _, backend := range engine.Backends()[1:] {
				sol, stats, err := m.SolveInstance(backend, inst, opt)
				if err != nil {
					t.Fatalf("%s: %v", backend, err)
				}
				assertSolutionsClose(t, fmt.Sprintf("%s/%s", m.Kind(), backend), ref, sol, 1e-6)
				if stats.String() == "" {
					t.Fatalf("%s: missing stats", backend)
				}
			}
		})
	}
}

// assertSolutionsClose compares two rendered solutions field by field
// (same keys, same shapes, values within tol relative).
func assertSolutionsClose(t *testing.T, what string, a, b engine.Solution, tol float64) {
	t.Helper()
	if len(a.Fields) != len(b.Fields) {
		t.Fatalf("%s: field count %d vs %d", what, len(a.Fields), len(b.Fields))
	}
	for i, fa := range a.Fields {
		fb := b.Fields[i]
		if fa.Key != fb.Key || fa.IsVec != fb.IsVec {
			t.Fatalf("%s: field %d is %s/vec=%v vs %s/vec=%v", what, i, fa.Key, fa.IsVec, fb.Key, fb.IsVec)
		}
		if fa.IsVec {
			if len(fa.Vec) != len(fb.Vec) {
				t.Fatalf("%s: %s length %d vs %d", what, fa.Key, len(fa.Vec), len(fb.Vec))
			}
			for j := range fa.Vec {
				if !close(fa.Vec[j], fb.Vec[j], tol) {
					t.Fatalf("%s: %s[%d] = %v vs %v", what, fa.Key, j, fa.Vec[j], fb.Vec[j])
				}
			}
		} else if !close(fa.Num, fb.Num, tol) {
			t.Fatalf("%s: %s = %v vs %v", what, fa.Key, fa.Num, fb.Num)
		}
	}
}

func close(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

// TestSolveInstanceValidation checks the kind-independent input
// validation of the rows path.
func TestSolveInstanceValidation(t *testing.T) {
	m, _ := engine.Lookup("meb")
	bad := []engine.Instance{
		{Dim: 0, Rows: [][]float64{{1}}},       // dim < 1
		{Dim: 2},                               // empty, kind disallows
		{Dim: 2, Rows: [][]float64{{1, 2, 3}}}, // wrong width
	}
	for i, inst := range bad {
		if _, _, err := m.SolveInstance(engine.BackendRAM, inst, engine.Options{}); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Unknown backend.
	ok := engine.Instance{Dim: 2, Rows: [][]float64{{1, 2}}}
	if _, _, err := m.SolveInstance("quantum", ok, engine.Options{}); err == nil {
		t.Error("unknown backend accepted")
	}
	// SVM label invariant flows through CheckRow.
	svm, _ := engine.Lookup("svm")
	if _, _, err := svm.SolveInstance(engine.BackendRAM,
		engine.Instance{Dim: 2, Rows: [][]float64{{1, 2, 5}}}, engine.Options{}); err == nil {
		t.Error("svm label 5 accepted")
	}
	// LP objective length checked by the problem builder.
	lp, _ := engine.Lookup("lp")
	if _, _, err := lp.SolveInstance(engine.BackendRAM,
		engine.Instance{Dim: 2, Objective: []float64{1}, Rows: nil}, engine.Options{}); err == nil {
		t.Error("short lp objective accepted")
	}
}

// TestNetConstAtEveryEntryPoint: a negative, NaN or infinite NetConst
// fails every solve entry point — each backend and the transport
// driver — with the one ErrNetConst message, before any work. A huge
// finite constant is valid: its net covers the input, so every sampled
// backend ships it and answers as the RAM reference does.
func TestNetConstAtEveryEntryPoint(t *testing.T) {
	m, _ := engine.Lookup("lp")
	inst := conformanceInstance(t, m, 2000, 5)
	for _, c := range []float64{-1, math.NaN(), math.Inf(1)} {
		opt := engine.Options{R: 2, NetConst: c}
		want := opt.Check()
		if !errors.Is(want, engine.ErrNetConst) {
			t.Fatalf("NetConst %v: Check() = %v", c, want)
		}
		errs := map[string]error{}
		for _, b := range engine.Backends() {
			_, _, errs[b] = m.SolveInstance(b, inst, opt)
		}
		_, _, errs["transport"] = m.SolveTransport(inst.Dim, inst.Objective, nil, opt)
		for entry, err := range errs {
			if err == nil || err.Error() != want.Error() {
				t.Errorf("NetConst %v, %s: error %v, want %v", c, entry, err, want)
			}
		}
	}
	ref, _, err := m.SolveInstance(engine.BackendRAM, inst, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range engine.Backends()[1:] {
		sol, st, err := m.SolveInstance(b, inst, engine.Options{R: 2, NetConst: 1e308})
		if err != nil {
			t.Fatalf("%s, NetConst 1e308: %v", b, err)
		}
		direct := (st.Stream != nil && st.Stream.DirectSolve) ||
			(st.Coordinator != nil && st.Coordinator.DirectSolve) ||
			(st.MPC != nil && st.MPC.DirectSolve)
		if !direct {
			t.Errorf("%s, NetConst 1e308: sampled (%s), want ship-all", b, st)
		}
		assertSolutionsClose(t, b+" NetConst 1e308", ref, sol, 1e-9)
	}
}

// TestStreamingFuncStreamThroughEngine: the stream backend agrees with
// the RAM reference for sea, the kind registered outside
// internal/models.
func TestStreamingFuncStreamThroughEngine(t *testing.T) {
	m, _ := engine.Lookup("sea")
	inst := conformanceInstance(t, m, 400, 3)
	ref, _, err := m.SolveInstance(engine.BackendRAM, inst, engine.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sol, _, err := m.SolveInstance(engine.BackendStream, inst, engine.Options{R: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	assertSolutionsClose(t, "sea stream r=3", ref, sol, 1e-6)
}
