package lptype

import (
	"math"

	"lowdimlp/internal/numeric"
)

// sliceStoreRef is the typed constraint-slice Store the distributed
// backends scanned before typed input was converted to rows at the
// engine boundary, moved here verbatim (only the name changed) as the
// differential oracle of the one surviving Store: per-item
// dom.Violates, math.Pow for every weight, no blocks, no rows. It
// shares no code with sourceStore, which is what makes
// TestStoreMatchesSliceReference an independent check.
type sliceStoreRef[C, B any] struct {
	dom   Domain[C, B]
	items []C
}

// SliceStoreRef exposes the oracle to the external test package.
func SliceStoreRef[C, B any](dom Domain[C, B], items []C) Store[C, B] {
	return sliceStoreRef[C, B]{dom: dom, items: items}
}

func (s sliceStoreRef[C, B]) Size() int { return len(s.items) }

func (s sliceStoreRef[C, B]) Scan(bases []B, pending *B, mult float64) (float64, float64, int) {
	var wTot, wViol numeric.Kahan
	count := 0
	for _, c := range s.items {
		w := math.Pow(mult, float64(weightExp(s.dom, bases, c)))
		wTot.Add(w)
		if pending != nil && s.dom.Violates(*pending, c) {
			wViol.Add(w)
			count++
		}
	}
	return wTot.Sum(), wViol.Sum(), count
}

func (s sliceStoreRef[C, B]) Weights(bases []B, mult float64, w []float64) {
	for j, c := range s.items {
		w[j] = math.Pow(mult, float64(weightExp(s.dom, bases, c)))
	}
}

func (s sliceStoreRef[C, B]) Item(i int) C { return s.items[i] }

// weightExp is the on-the-fly weight exponent a(c) = #{stored bases
// violated by c} (§3.2) over a typed constraint.
func weightExp[C, B any](dom Domain[C, B], bases []B, c C) int {
	a := 0
	for i := range bases {
		if dom.Violates(bases[i], c) {
			a++
		}
	}
	return a
}
