package engine_test

import (
	"runtime"
	"testing"

	"lowdimlp/internal/engine"
)

// liveHeap is the live heap after two collections: the second empties
// the sync.Pool victim caches the first only demotes.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestReturnedBasisPinsNoInput: a basis that SolveSourceBasis returns
// owns its rows, so keeping it — lpserved's warm-start cache keeps 256
// — keeps O(ν) constraints alive, not the input it was solved from.
// Every registered kind on every backend solves fresh stores, keeps the
// bases and drops the stores; the live heap may then grow by at most
// 16 KB a basis. A kind whose basis type lacks Own, or a backend whose
// basis leaves the engine uncopied, keeps a store (ram, and the
// stream's direct path since it reads memory-backed sources in place)
// or an arena the rows were copied into: tens of KB a basis here.
func TestReturnedBasisPinsNoInput(t *testing.T) {
	const (
		kept        = 8
		maxPerBasis = 16 << 10
		d           = 3
	)
	for _, m := range engine.Models() {
		const n = 4000 // a 96–128 KB store
		fam := m.Families()[0]
		for _, backend := range engine.Backends() {
			t.Run(m.Kind()+"/"+backend, func(t *testing.T) {
				solve := func(seed uint64) any {
					inst, err := m.Generate(fam, engine.GenParams{D: d, N: n, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					st, err := engine.Columnar(m, inst)
					if err != nil {
						t.Fatal(err)
					}
					_, _, b, err := m.SolveSourceBasis(backend, d, inst.Objective, st, engine.Options{Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					return b
				}
				// Warm what a solve keeps on purpose: the Seidel workspaces
				// waiting between solves (up to one a CPU, taken in turn)
				// grow to this cell's size here, not while bases are kept.
				for i := range runtime.GOMAXPROCS(0) + 1 {
					solve(uint64(kept + 1 + i))
				}
				before := liveHeap()
				bases := make([]any, kept)
				for i := range bases {
					bases[i] = solve(uint64(i + 1))
				}
				after := liveHeap()
				runtime.KeepAlive(bases)
				store := n * m.RowWidth(d) * 8
				if growth := int64(after) - int64(before); growth > kept*maxPerBasis {
					t.Fatalf("%d kept bases grew the live heap by %d B (%d B a basis, want ≤ %d; a store is %d B)",
						kept, growth, growth/kept, maxPerBasis, store)
				} else {
					t.Logf("%d B a basis (a store is %d B)", growth/kept, store)
				}
			})
		}
	}
}
