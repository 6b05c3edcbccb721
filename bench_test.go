// Root benchmark harness: one benchmark per experiment of DESIGN.md §3
// (each drives the corresponding table of cmd/lpbench in quick mode),
// plus micro-benchmarks for the individual solvers. Regenerate the
// paper-shaped tables with
//
//	go run ./cmd/lpbench            # full sweeps (EXPERIMENTS.md)
//	go test -bench=Experiment .     # quick sweeps, timed
package lowdimlp

import (
	"io"
	"testing"

	"lowdimlp/internal/core"
	"lowdimlp/internal/experiments"
	"lowdimlp/internal/lp"
	"lowdimlp/internal/meb"
	"lowdimlp/internal/sea"
	"lowdimlp/internal/svm"
	"lowdimlp/internal/tci"
	"lowdimlp/internal/workload"

	"lowdimlp/internal/numeric"
)

func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, experiments.Config{Quick: true, Seed: 20190313}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1StreamingLP(b *testing.B)   { benchExperiment(b, "E1") }
func BenchmarkE2CoordinatorLP(b *testing.B) { benchExperiment(b, "E2") }
func BenchmarkE3MPCLP(b *testing.B)         { benchExperiment(b, "E3") }
func BenchmarkE4ChanChen(b *testing.B)      { benchExperiment(b, "E4") }
func BenchmarkE5SVM(b *testing.B)           { benchExperiment(b, "E5") }
func BenchmarkE6MEB(b *testing.B)           { benchExperiment(b, "E6") }
func BenchmarkE7Iterations(b *testing.B)    { benchExperiment(b, "E7") }
func BenchmarkE8LowerBound(b *testing.B)    { benchExperiment(b, "E8") }
func BenchmarkF1TCIReduction(b *testing.B)  { benchExperiment(b, "F1") }
func BenchmarkF2HardInstance(b *testing.B)  { benchExperiment(b, "F2") }

// --- solver micro-benchmarks --------------------------------------------

// BenchmarkSeidelLP and BenchmarkSEASolve are the basis solves behind
// lpmark's basis-heavy workload (the d=5 sphere and d=3 ring cells are
// its net sizes); reproduce their micro-cost with
//
//	go test -run '^$' -bench 'Seidel|SEASolve' -cpu 1
func BenchmarkSeidelLP(b *testing.B) {
	run := func(d, n int) {
		p, cons := workload.SphereLP(d, n, 1)
		b.Run(benchName("d", d, "n", n), func(b *testing.B) {
			rng := numeric.NewRand(1, 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := lp.Seidel(p, cons, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, d := range []int{2, 4, 6} {
		for _, n := range []int{1_000, 10_000} {
			run(d, n)
		}
	}
	run(5, 3_000)
	run(5, 6_000)
}

func BenchmarkSEASolve(b *testing.B) {
	for _, n := range []int{1_000, 2_000} {
		pts := make([]sea.Point, n)
		for i := range pts {
			pts[i] = sea.RingAt(3, 1, 0.3, i)
		}
		b.Run(benchName("d", 3, "n", n), func(b *testing.B) {
			dom := sea.NewDomain(3, 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dom.Solve(pts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSimplexLP(b *testing.B) {
	p, cons := workload.SphereLP(3, 200, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lp.SimplexValue(p, cons); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMEBSolve(b *testing.B) {
	for _, n := range []int{1_000, 100_000} {
		pts := workload.MEBCloud(workload.MEBGaussian, 3, n, 3)
		b.Run(benchName("n", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := meb.Solve(pts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSVMSolve(b *testing.B) {
	for _, n := range []int{1_000, 20_000} {
		exs, _ := workload.SeparableSVM(3, n, 0.3, 4)
		b.Run(benchName("n", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := svm.Solve(3, exs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkClarksonReference(b *testing.B) {
	p, cons := workload.SphereLP(3, 100_000, 5)
	dom := lp.NewDomain(p, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Solve[lp.Halfspace, lp.Basis](dom, cons, core.Options{R: 2, Seed: uint64(i), NetConst: 0.5}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamingLPPass(b *testing.B) {
	// Cost of one full streaming solve at n = 100k.
	inst := generate(b, "lp", "sphere", GenParams{N: 100_000, D: 3, Seed: 6})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		solve(b, "lp", "stream", inst, Options{R: 3, Seed: uint64(i)})
	}
}

func BenchmarkCoordinatorLP(b *testing.B) {
	inst := generate(b, "lp", "sphere", GenParams{N: 100_000, D: 3, Seed: 7})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		solve(b, "lp", "coordinator", inst, Options{R: 3, Seed: uint64(i), K: 8})
	}
}

func BenchmarkMPCLP(b *testing.B) {
	inst := generate(b, "lp", "sphere", GenParams{N: 100_000, D: 3, Seed: 8})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		solve(b, "lp", "mpc", inst, Options{Seed: uint64(i), Delta: 0.5})
	}
}

func BenchmarkTCIHardGen(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := numeric.NewRand(uint64(i), 9)
		if _, _, err := tci.Hard(tci.HardOptions{N: 8, R: 3, Rng: rng}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTCIProtocol(b *testing.B) {
	rng := numeric.NewRand(10, 10)
	ins, _, err := tci.Hard(tci.HardOptions{N: 16, R: 2, Rng: rng})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tci.RunProtocol(ins, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func benchName(parts ...any) string {
	s := ""
	for i := 0; i+1 < len(parts); i += 2 {
		if s != "" {
			s += "_"
		}
		s += parts[i].(string) + "=" + itoa(parts[i+1].(int))
	}
	return s
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
