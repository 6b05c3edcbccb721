package lp_test

import (
	"testing"

	"lowdimlp/internal/lp"
	"lowdimlp/internal/workload"
)

// BenchmarkSimplexLP times the simplex oracle of simplex_test.go.
func BenchmarkSimplexLP(b *testing.B) {
	p, cons := workload.SphereLP(3, 200, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lp.SimplexValue(p, cons); err != nil {
			b.Fatal(err)
		}
	}
}
