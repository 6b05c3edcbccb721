package models

import (
	"testing"

	"lowdimlp/internal/engine"
)

// maxGenerateAllocs bounds one Generate call of any registered family:
// the rows and their backing array, one re-seeded PCG, the objective
// and the per-instance draws (BoxLP's rotation, Chebyshev's planted
// polynomial), none of which grows with n.
const maxGenerateAllocs = 16

// TestGenerateAllocations pins the generators' allocation count: every
// registered family fills its rows into one backing array with one
// PCG re-seeded per row, so Generate allocates at most
// maxGenerateAllocs times at n = 100 and at n = 4000 alike. Generators
// that allocate a row, or a generator, per row fail it by thousands.
// Every request lpserved serves from a "generate" body pays this cost.
func TestGenerateAllocations(t *testing.T) {
	for _, m := range engine.Models() {
		for _, fam := range m.Families() {
			allocs := func(n int) float64 {
				p := engine.GenParams{D: 3, N: n, Seed: 1}
				return testing.AllocsPerRun(3, func() {
					if _, err := m.Generate(fam, p); err != nil {
						t.Fatal(err)
					}
				})
			}
			small, big := allocs(100), allocs(4000)
			if small > maxGenerateAllocs || big > maxGenerateAllocs {
				t.Errorf("%s/%s: %.0f allocs at n=100, %.0f at n=4000 (want ≤ %d at both)",
					m.Kind(), fam, small, big, maxGenerateAllocs)
			}
			t.Logf("%s/%s: %.0f allocs", m.Kind(), fam, big)
		}
	}
}
