package sampling

import (
	"math"
	"testing"

	"lowdimlp/internal/numeric"
)

// aliasRef is the alias-table construction as it stood before tables
// became rebuildable in place, kept verbatim (two explicit index
// stacks, a fresh scaled array, int aliases) as the differential
// oracle of Alias.Rebuild: protocol transcripts are pinned to the
// table's bits, so the shared-array stacks and the reused buffers
// must pair the same entries in the same order.
func aliasRef(weights []float64) (prob []float64, alias []int) {
	n := len(weights)
	var total float64
	for _, w := range weights {
		total += w
	}
	prob, alias = make([]float64, n), make([]int, n)
	scaled := make([]float64, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, w := range weights {
		scaled[i] = w / total * float64(n)
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		prob[s] = scaled[s]
		alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	for _, i := range large {
		prob[i] = 1
	}
	for _, i := range small {
		prob[i] = 1
	}
	return prob, alias
}

func checkAliasEqualsRef(t *testing.T, what string, a *Alias, weights []float64) {
	t.Helper()
	prob, alias := aliasRef(weights)
	if len(a.prob) != len(prob) || len(a.alias) != len(alias) {
		t.Fatalf("%s: table of %d/%d entries, want %d", what, len(a.prob), len(a.alias), len(prob))
	}
	for i := range prob {
		if math.Float64bits(a.prob[i]) != math.Float64bits(prob[i]) || int(a.alias[i]) != alias[i] {
			t.Fatalf("%s: entry %d = (%v, %d), reference (%v, %d)", what, i, a.prob[i], a.alias[i], prob[i], alias[i])
		}
	}
}

// aliasWeights draws the weight shapes a site produces: mostly 1, a
// few powers of a multiplier, optionally zeros.
func aliasWeights(n int, seed uint64, zeros bool) []float64 {
	rng := numeric.NewRand(seed, 9)
	w := make([]float64, n)
	for i := range w {
		switch rng.IntN(8) {
		case 0:
			w[i] = 31.6
		case 1:
			w[i] = 31.6 * 31.6
		case 2:
			if zeros {
				continue
			}
			fallthrough
		default:
			w[i] = 1
		}
	}
	w[rng.IntN(n)] = 1 // at least one positive weight
	return w
}

// TestAliasRebuildMatchesFresh pins the in-place rebuild: one table
// rebuilt over a sequence of weight vectors that shrink, grow and
// repeat equals — prob bits and alias entries, leftovers included — the
// reference construction and a fresh NewAlias of each vector, and draws
// the same indices from the same RNG stream. Uniform vectors (a site
// before its first success) include the sizes where 1/n·n ≠ 1 (49, 98,
// 103).
func TestAliasRebuildMatchesFresh(t *testing.T) {
	var reused Alias
	sizes := []int{1, 2, 49, 1000, 98, 7, 1000, 103, 4096, 3, 4096}
	for step, n := range sizes {
		for _, shape := range []string{"uniform", "site", "zeros"} {
			var w []float64
			switch shape {
			case "uniform":
				w = make([]float64, n)
				for i := range w {
					w[i] = 1
				}
			default:
				w = aliasWeights(n, uint64(step)*31+uint64(n), shape == "zeros")
			}
			what := shape
			keep := append([]float64(nil), w...)
			fresh := NewAlias(w)
			for i := range w {
				if w[i] != keep[i] {
					t.Fatalf("%s n=%d: NewAlias changed weight %d", what, n, i)
				}
			}
			checkAliasEqualsRef(t, what+" fresh", fresh, keep)
			reused.Rebuild(w) // consumes w
			checkAliasEqualsRef(t, what+" rebuilt", &reused, keep)

			r1, r2 := numeric.NewRand(uint64(n), 5), numeric.NewRand(uint64(n), 5)
			for d := 0; d < 200; d++ {
				if a, b := fresh.Draw(r1), reused.Draw(r2); a != b {
					t.Fatalf("%s n=%d: draw %d = %d (fresh) vs %d (rebuilt)", what, n, d, a, b)
				}
			}
			if r1.Uint64() != r2.Uint64() {
				t.Fatalf("%s n=%d: RNG streams diverged", what, n)
			}
		}
	}
}

// TestAliasRebuildAllocations: a rebuild that fits the table allocates
// only its transient stack array.
func TestAliasRebuildAllocations(t *testing.T) {
	const n = 2048
	var a Alias
	w := make([]float64, n)
	fill := func() {
		for i := range w {
			w[i] = float64(1 + i%3)
		}
	}
	fill()
	a.Rebuild(w)
	allocs := testing.AllocsPerRun(20, func() {
		fill()
		a.Rebuild(w)
	})
	if allocs > 1 {
		t.Fatalf("in-place rebuild allocates %.1f times, want ≤ 1 (the stack array)", allocs)
	}
}
