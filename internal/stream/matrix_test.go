package stream_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"lowdimlp/internal/core"
	"lowdimlp/internal/engine"
	"lowdimlp/internal/epsnet"
	"lowdimlp/internal/models"
	"lowdimlp/internal/sea"
	"lowdimlp/internal/stream"
)

// TestSolverMatchesTypedReference is the differential pin of the one
// streaming driver: for every kind × r × solver seed × input shape, a
// typed stream solved through stream.Solve (row adapter → SolveDataset
// → DatasetSolver, block kernels) must equal the typed per-item
// reference loop (solveRef, ref_test.go) — the rendered basis bit for
// bit, Stats by ==, errors by errors.Is — and every non-direct solve
// must spend exactly Iterations+1 passes (one pass per iteration: what
// the deleted unfused ablation used to be contrasted with).
//
// The net constant is well below the library default so that small
// instances stay iterative at r = 2 as well as 3 (n > 2m+1), iterations
// fail as well as succeed, up to
// four bases are stored (weights beyond PowWeight's fast paths) and
// the Monte-Carlo variant sometimes gives up; sea runs at d = 2
// because its basis solve is the slow one.
func TestSolverMatchesTypedReference(t *testing.T) {
	t.Run("lp", func(t *testing.T) {
		t.Parallel()
		n := 1000
		bad := engine.Instance{Dim: 3, Objective: []float64{1, 1, 1}}
		for i := 0; i < n; i++ { // x₁ ≥ 5 and x₁ ≤ 3
			bad.Rows = append(bad.Rows, []float64{-1, 0, 0, -5}, []float64{1, 0, 0, 3})
		}
		referenceMatrix(t, models.LP, 3, 2000, &bad)
	})
	t.Run("svm", func(t *testing.T) {
		t.Parallel()
		bad := generate(t, models.SVM, 3, 2000)
		for i := 0; i < 40; i++ { // the same point with both labels
			row := append([]float64(nil), bad.Rows[i]...)
			row[len(row)-1] = -row[len(row)-1]
			bad.Rows = append(bad.Rows, row)
		}
		referenceMatrix(t, models.SVM, 3, 2000, &bad)
	})
	t.Run("meb", func(t *testing.T) {
		t.Parallel()
		referenceMatrix(t, models.MEB, 3, 2000, nil)
	})
	t.Run("sea", func(t *testing.T) {
		t.Parallel()
		referenceMatrix(t, sea.Spec, 2, 2000, nil)
	})
}

func generate[P, C, B any](t *testing.T, s *engine.Spec[P, C, B], d, n int) engine.Instance {
	t.Helper()
	inst, err := s.Generate(s.Families()[0], engine.GenParams{N: n, D: d, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// referenceMatrix runs one kind's share of the matrix. infeasible, when
// the kind has such a thing, is an instance whose solve must fail.
func referenceMatrix[P, C, B any](t *testing.T, s *engine.Spec[P, C, B], d, n int, infeasible *engine.Instance) {
	full := generate(t, s, d, n)
	small := generate(t, s, d, 30)
	empty := engine.Instance{Dim: full.Dim, Objective: full.Objective}

	type shape struct {
		name       string
		inst       engine.Instance
		fn, count  bool // FuncStream instead of SliceStream; pass n ≤ 0
		monteCarlo bool
		direct     bool // must take the n ≤ 2m+1 path
		mustFail   bool
	}
	shapes := []shape{
		{name: "slice", inst: full},
		{name: "func", inst: full, fn: true},
		{name: "count", inst: full, count: true},
		{name: "direct", inst: small, direct: true},
		{name: "empty", inst: empty, count: true},
		{name: "montecarlo", inst: full, monteCarlo: true},
	}
	if infeasible != nil {
		shapes = append(shapes, shape{name: "infeasible", inst: *infeasible, mustFail: true})
	}

	iterative := 0
	for _, sh := range shapes {
		dim := sh.inst.Dim
		p, err := s.Problem(sh.inst)
		if err != nil {
			t.Fatal(err)
		}
		items := make([]C, len(sh.inst.Rows))
		for i, row := range sh.inst.Rows {
			items[i] = s.Item(dim, row)
		}
		mkStream := func() stream.Stream[C] {
			if sh.fn {
				return stream.NewFuncStream(len(items), func(i int) C { return items[i] })
			}
			return stream.NewSliceStream(items)
		}
		arg := len(items)
		if sh.count {
			arg = 0
		}
		encode := func(dst []float64, _ int, item C) ([]float64, error) { return s.Row(dim, dst, item), nil }
		var zc C
		var zb B
		for _, r := range []int{1, 2, 3} {
			for seed := uint64(1); seed <= 5; seed++ {
				what := fmt.Sprintf("%s r=%d seed=%d", sh.name, r, seed)
				opt := stream.Options{
					Core:         core.Options{R: r, Seed: seed, NetConst: 0.1, MonteCarlo: sh.monteCarlo},
					BitsPerItem:  s.ItemCodec(dim).Bits(zc),
					BitsPerBasis: s.BasisCodec(dim).Bits(zb),
				}
				// A fresh domain per solve: lp's counts its Solve calls.
				want, wantStats, wantErr := stream.SolveRef(s.NewDomain(p, seed^s.SeedMix), mkStream(), arg, opt)
				got, gotStats, gotErr := stream.Solve(s.Access(dim, s.NewDomain(p, seed^s.SeedMix)),
					mkStream(), arg, s.Width(dim), encode, opt)

				if !sameError(gotErr, wantErr) {
					t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
				}
				if gotStats != wantStats {
					t.Fatalf("%s: stats drift:\n driver    %+v\n reference %+v", what, gotStats, wantStats)
				}
				if gotErr == nil {
					assertBitIdentical(t, what, s.Render(dim, want), s.Render(dim, got))
				}
				if sh.mustFail && gotErr == nil {
					t.Fatalf("%s: solved an infeasible instance", what)
				}
				if sh.direct && !gotStats.DirectSolve {
					t.Fatalf("%s: expected the direct (n ≤ 2m+1) path: %+v", what, gotStats)
				}
				if gotErr == nil && gotStats.N > 0 && !gotStats.DirectSolve {
					iterative++
					passes := gotStats.Passes
					if sh.count {
						passes-- // the counting pass
					}
					if passes != gotStats.Iterations+1 {
						t.Fatalf("%s: %d passes for %d iterations, want iterations+1", what, passes, gotStats.Iterations)
					}
				}
			}
		}
	}
	if iterative < 20 {
		t.Fatalf("only %d iterative solves in the matrix — instance too small for the net size", iterative)
	}
}

func sameError(got, want error) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	return errors.Is(got, want) || errors.Is(want, got) || got.Error() == want.Error()
}

func assertBitIdentical(t *testing.T, what string, want, got engine.Solution) {
	t.Helper()
	if len(want.Fields) != len(got.Fields) {
		t.Fatalf("%s: %d fields, reference %d", what, len(got.Fields), len(want.Fields))
	}
	for i, fw := range want.Fields {
		fg := got.Fields[i]
		vw, vg := append([]float64{fw.Num}, fw.Vec...), append([]float64{fg.Num}, fg.Vec...)
		if fw.Key != fg.Key || len(vw) != len(vg) {
			t.Fatalf("%s: field %d is %s[%d], reference %s[%d]", what, i, fg.Key, len(fg.Vec), fw.Key, len(fw.Vec))
		}
		for j := range vw {
			if math.Float64bits(vw[j]) != math.Float64bits(vg[j]) {
				t.Fatalf("%s: %s differs from the reference: %v vs %v", what, fw.Key, vg, vw)
			}
		}
	}
}

// TestDirectNeverHoldsMoreRows pins the ship-all rule from the stream's
// side. At the smallest n the sampled net no longer covers (m < n, so
// n ≤ 2m+1), the solve ships the input: one pass holding the n rows —
// never more than the 2m+1 a sampled pass would hold — and one basis
// solve over them, bit for bit the solve of the whole input.
func TestDirectNeverHoldsMoreRows(t *testing.T) {
	t.Run("lp", func(t *testing.T) { directNeverHoldsMoreRows(t, models.LP) })
	t.Run("meb", func(t *testing.T) { directNeverHoldsMoreRows(t, models.MEB) })
	t.Run("sea", func(t *testing.T) { directNeverHoldsMoreRows(t, sea.Spec) })
}

func directNeverHoldsMoreRows[P, C, B any](t *testing.T, s *engine.Spec[P, C, B]) {
	const d, seed = 2, 3
	probe := generate(t, s, d, 10)
	pp, err := s.Problem(probe)
	if err != nil {
		t.Fatal(err)
	}
	nu, lambda := s.NewDomain(pp, 0).CombinatorialDim(), s.NewDomain(pp, 0).VCDim()
	var zc C
	var zb B
	for _, r := range []int{2, 3} {
		opt := stream.Options{
			Core:         core.Options{R: r, Seed: seed},
			BitsPerItem:  s.ItemCodec(d).Bits(zc),
			BitsPerBasis: s.BasisCodec(d).Bits(zb),
		}
		n, m := 2, 0.0
		for ; ; n++ {
			m = epsnet.PracticalSampleSize(core.NewParams(n, nu, lambda, opt.Core).Eps, lambda, core.DefaultNetConst)
			if m < float64(n) {
				break
			}
		}
		if !core.NewParams(n, nu, lambda, opt.Core).Direct || float64(n) > 2*m+1 {
			t.Fatalf("r=%d: n=%d, m=%v is not in (m, 2m+1] on the direct path", r, n, m)
		}
		inst, err := s.Generate(s.Families()[0], engine.GenParams{N: n, D: d, Seed: 41})
		if err != nil {
			t.Fatal(err)
		}
		p, err := s.Problem(inst)
		if err != nil {
			t.Fatal(err)
		}
		items := make([]C, n)
		for i, row := range inst.Rows {
			items[i] = s.Item(d, row)
		}
		encode := func(dst []float64, _ int, item C) ([]float64, error) { return s.Row(d, dst, item), nil }
		got, stats, err := stream.Solve(s.Access(d, s.NewDomain(p, seed)), stream.NewSliceStream(items), n, s.Width(d), encode, opt)
		if err != nil {
			t.Fatalf("r=%d n=%d: %v", r, n, err)
		}
		if limit := int64(2*m+1) * int64(opt.BitsPerItem); !stats.DirectSolve || stats.Passes != 1 || stats.PeakSpaceBits > limit {
			t.Fatalf("r=%d n=%d m=%v: %+v, want one direct pass within %d bits", r, n, m, stats, limit)
		}
		want, err := s.NewDomain(p, seed).Solve(items)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, fmt.Sprintf("r=%d n=%d", r, n), s.Render(d, want), s.Render(d, got))
		t.Logf("r=%d: n=%d, m=%v, %d of %d bits", r, n, m, stats.PeakSpaceBits, int64(2*m+1)*int64(opt.BitsPerItem))
	}
}
