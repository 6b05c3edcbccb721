// Package sampling provides the weighted-sampling substrates used by
// the model implementations of Algorithm 1:
//
//   - Reservoir / RowReservoir: single-pass weighted sampling with
//     replacement (Chao-style independent reservoirs) for a stream of
//     unknown total weight — the streaming implementation offers it
//     the violators of the pending basis only;
//   - KnownTotal: m i.i.d. weighted draws from a stream whose total
//     weight is known before the pass — the order statistics of m
//     uniforms on [0, total), one compare per row — which is every
//     pass of the streaming implementation;
//   - Alias: Walker/Vose alias tables for O(1) repeated draws from a
//     fixed weighted distribution, used when a site samples its local
//     constraints;
//   - Multinomial: splitting m draws across k buckets proportionally to
//     bucket weights, used by the coordinator protocol of Lemma 3.7 and
//     the MPC weight-tree sampling.
package sampling

import (
	"math"
	"math/rand/v2"
)

// Reservoir maintains m independent weighted-reservoir slots over a
// stream of (item, weight) offers: after the stream ends, each slot
// holds an independent sample with probability proportional to weight —
// exactly the "sample m sets i.i.d. by weight" step of Algorithm 1,
// realized in one pass (the paper points to Chao's unequal-probability
// sampling; per-slot replacement is the with-replacement variant the
// ε-net lemma wants).
//
// Each slot i independently replaces its occupant by the incoming item
// with probability w/W_i where W_i is the total weight offered so far.
type Reservoir[T any] struct {
	slots []T
	total float64
	rng   *rand.Rand
}

// NewReservoir returns a reservoir with m slots driven by rng.
func NewReservoir[T any](m int, rng *rand.Rand) *Reservoir[T] {
	return &Reservoir[T]{slots: make([]T, m), rng: rng}
}

// Offer presents one item with the given weight (must be ≥ 0).
//
// Each slot independently takes the item with probability w/W (W =
// total weight so far). Rather than flipping m coins per offer —
// O(n·m) per pass — Offer walks the slots with geometric skips, which
// costs O(1 + m·w/W) per offer and Θ(m·log n) per pass in total.
func (r *Reservoir[T]) Offer(item T, w float64) {
	if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		panic("sampling: weight must be finite and nonnegative")
	}
	if w == 0 {
		return
	}
	r.total += w
	p := w / r.total
	if p >= 1 {
		for i := range r.slots {
			r.slots[i] = item
		}
		return
	}
	// Geometric skipping: the index of the next replaced slot advances
	// by 1 + Geom(p) each step.
	log1p := math.Log1p(-p)
	i := 0
	for {
		u := r.rng.Float64()
		if u == 0 {
			u = 0.5
		}
		// Compared in float64: for p below ≈ 4e-18 the skip exceeds
		// MaxInt64 and the conversion is implementation-defined.
		skip := math.Log(u) / log1p
		if skip >= float64(len(r.slots)-i) {
			return
		}
		i += int(skip)
		r.slots[i] = item
		i++
	}
}

// Total returns the total weight offered so far.
func (r *Reservoir[T]) Total() float64 { return r.total }

// Sample returns the m sampled items. It must be called only after at
// least one positive-weight offer; ok is false otherwise.
func (r *Reservoir[T]) Sample() (items []T, ok bool) {
	if r.total <= 0 {
		return nil, false
	}
	return r.slots, true
}

// Reset clears the reservoir for a new pass, keeping the slot count.
func (r *Reservoir[T]) Reset() {
	r.total = 0
	var zero T
	for i := range r.slots {
		r.slots[i] = zero
	}
}

// RowReservoir is Reservoir specialized to flat dataset rows
// ([]float64 views whose backing memory the producer reuses between
// batches): accepted rows are copied into slot buffers allocated once
// at construction, so a whole streaming pass allocates nothing in the
// offer loop. The replacement logic and, critically, the RNG
// consumption are identical to Reservoir's — a row scan and a typed
// scan fed the same weights select the same items.
type RowReservoir struct {
	slots [][]float64 // m buffers of exactly width values
	total float64
	rng   *rand.Rand
}

// NewRowReservoir returns a reservoir of m slots for rows of the given
// width, driven by rng.
func NewRowReservoir(m, width int, rng *rand.Rand) *RowReservoir {
	return &RowReservoir{slots: rowSlots(m, width), rng: rng}
}

// rowSlots carves m row buffers of the given width out of one arena.
func rowSlots(m, width int) [][]float64 {
	arena := make([]float64, m*width)
	slots := make([][]float64, m)
	for i := range slots {
		slots[i] = arena[i*width : (i+1)*width : (i+1)*width]
	}
	return slots
}

// Offer presents one row with the given weight (≥ 0), copying it into
// every slot that takes it. Mirrors Reservoir.Offer step for step.
func (r *RowReservoir) Offer(row []float64, w float64) {
	if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		panic("sampling: weight must be finite and nonnegative")
	}
	if w == 0 {
		return
	}
	r.total += w
	p := w / r.total
	if p >= 1 {
		for i := range r.slots {
			copy(r.slots[i], row)
		}
		return
	}
	log1p := math.Log1p(-p)
	i := 0
	for {
		u := r.rng.Float64()
		if u == 0 {
			u = 0.5
		}
		skip := math.Log(u) / log1p
		if skip >= float64(len(r.slots)-i) {
			return
		}
		i += int(skip)
		copy(r.slots[i], row)
		i++
	}
}

// Total returns the total weight offered so far.
func (r *RowReservoir) Total() float64 { return r.total }

// Sample returns the m sampled rows; ok is false before the first
// positive-weight offer. The rows are the reservoir's own buffers and
// stay valid until the next Offer run reuses them.
func (r *RowReservoir) Sample() (rows [][]float64, ok bool) {
	if r.total <= 0 {
		return nil, false
	}
	return r.slots, true
}

// Reset empties the reservoir for a new pass, keeping its buffers.
func (r *RowReservoir) Reset() { r.total = 0 }

// KnownTotal draws m rows i.i.d. proportionally to weight from a
// stream whose total weight is known before the pass starts. m
// independent uniform points on [0, total) each select the row whose
// weight interval [cum−w, cum) holds them; sorted ascending, the
// points are consumed in stream order, so they are generated one at a
// time — point j is (1 − Π_{i≤j} V_i^{1/(m−i)})·total for uniform V_i,
// the order statistics of m uniforms — and a row that holds no point
// costs its caller one compare. The slots therefore come out in stream
// order: i.i.d. draws as a multiset, not slot by slot.
//
// The caller supplies the running total with each row, so a total it
// already accumulates is not summed twice. If that running total ends
// short of the announced one — a misprediction, or the last point
// rounding up to total itself — Finish gives the leftover points to
// the row the caller names as the stream's last.
type KnownTotal struct {
	slots  [][]float64 // m buffers of exactly width values
	rng    *rand.Rand
	total  float64
	logp   float64 // ln Π V_i^{1/(m−i)} over the points generated so far
	next   float64 // the pending sample point; +Inf once all m are placed
	filled int
}

// NewKnownTotal returns a sampler of m slots for rows of the given
// width, driven by rng. Reset arms it.
func NewKnownTotal(m, width int, rng *rand.Rand) *KnownTotal {
	return &KnownTotal{slots: rowSlots(m, width), rng: rng, next: math.Inf(1)}
}

// Reset arms the sampler for a pass of the given total weight and
// draws the first sample point. A total that is not positive (or is
// NaN) is a misprediction like any other: every point sits at 0, where
// no zero-weight row can hold it, and the first positive-weight row
// takes them all.
func (s *KnownTotal) Reset(total float64) {
	if !(total > 0) {
		total = 0
	}
	s.total, s.logp, s.filled = total, 0, 0
	s.advance()
}

// advance generates the next sample point: with k points still to
// place, the smallest of k uniforms on what is left of [0, 1) cuts off
// the fraction 1 − V^{1/k}, and V^{1/k} = exp(−E/k) for E ~ Exp(1).
func (s *KnownTotal) advance() {
	k := len(s.slots) - s.filled
	if k == 0 {
		s.next = math.Inf(1)
		return
	}
	s.logp -= s.rng.ExpFloat64() / float64(k)
	s.next = (1 - math.Exp(s.logp)) * s.total
}

// Offer presents the next row of the stream; cum is the total weight
// of the rows offered so far this pass, this one included (so a
// zero-weight row repeats its predecessor's cum and is never taken).
func (s *KnownTotal) Offer(row []float64, cum float64) {
	if cum > s.next {
		s.take(row, cum)
	}
}

// take copies row into one slot per sample point below cum.
func (s *KnownTotal) take(row []float64, cum float64) {
	for cum > s.next {
		copy(s.slots[s.filled], row)
		s.filled++
		s.advance()
	}
}

// Finish closes the pass and returns the m sampled rows — the
// sampler's own buffers, valid until the next Reset. Sample points at
// or beyond the weight actually offered go to last, which must be the
// caller's copy of the final positive-weight row of the pass; ok is
// false when such points exist and last is empty (nothing was
// offered).
func (s *KnownTotal) Finish(last []float64) (rows [][]float64, ok bool) {
	if s.filled < len(s.slots) && len(last) == 0 {
		return nil, false
	}
	for ; s.filled < len(s.slots); s.filled++ {
		copy(s.slots[s.filled], last)
	}
	s.next = math.Inf(1)
	return s.slots, true
}

// Alias is a Walker/Vose alias table: O(n) construction, O(1) per draw
// from a fixed discrete distribution. The zero value is an empty table
// ready for Rebuild.
type Alias struct {
	prob  []float64
	alias []int32
}

// NewAlias builds an alias table for the (unnormalized, nonnegative)
// weights. At least one weight must be positive. The weights are left
// untouched.
func NewAlias(weights []float64) *Alias {
	a := new(Alias)
	a.Rebuild(append([]float64(nil), weights...))
	return a
}

// Rebuild makes a the alias table of the (unnormalized, nonnegative)
// weights w, reusing the table's arrays when they are large enough —
// a holder of a long-lived table (lptype.SiteWeights) rebuilds in
// place when its weights change. w is consumed: it is the scratch the
// scaled probabilities are computed in and holds garbage afterwards.
// At least one weight must be positive.
//
// The table is a pure function of w, and callers' transcripts are
// pinned to its bits: the plain left-to-right total, w/total·n, and
// the order in which the small and large stacks pair entries must not
// change — which is why this is the only body that builds a table, with
// no shortcut for special weight vectors to keep in step with it. The
// two stacks share one transient n-entry array (small grows from the
// front, large from the back; together they never hold more than n
// entries), the only allocation of a rebuild that fits.
func (a *Alias) Rebuild(w []float64) {
	n := len(w)
	if n > math.MaxInt32 {
		panic("sampling: more than 2^31-1 weights")
	}
	var total float64
	for _, x := range w {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			panic("sampling: weight must be finite and nonnegative")
		}
		total += x
	}
	if total <= 0 {
		panic("sampling: all weights are zero")
	}
	if cap(a.prob) < n {
		a.prob, a.alias = make([]float64, n), make([]int32, n)
	}
	a.prob, a.alias = a.prob[:n], a.alias[:n]
	stack := make([]int32, n)
	ns, nl := 0, 0 // small is stack[:ns], large is stack[n-nl:] reversed
	for i, x := range w {
		w[i] = x / total * float64(n)
		if w[i] < 1 {
			stack[ns] = int32(i)
			ns++
		} else {
			nl++
			stack[n-nl] = int32(i)
		}
	}
	for ns > 0 && nl > 0 {
		ns--
		s, l := stack[ns], stack[n-nl]
		a.prob[s] = w[s]
		a.alias[s] = l
		w[l] -= 1 - w[s]
		if w[l] < 1 {
			nl--
			stack[ns] = l
			ns++
		}
	}
	// Leftovers on either stack are drawn with probability 1; their
	// alias entry is never read and is zeroed so that a rebuilt table
	// equals a fresh one.
	for _, i := range stack[:ns] {
		a.prob[i], a.alias[i] = 1, 0
	}
	for _, i := range stack[n-nl:] {
		a.prob[i], a.alias[i] = 1, 0
	}
}

// Bytes returns the size of the table's arrays.
func (a *Alias) Bytes() int { return 8*cap(a.prob) + 4*cap(a.alias) }

// Draw returns an index sampled proportionally to the weights.
func (a *Alias) Draw(rng *rand.Rand) int {
	i := rng.IntN(len(a.prob))
	if rng.Float64() < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}

// Multinomial splits m i.i.d. weighted draws across k buckets: the
// result counts[i] is the number of draws that landed in bucket i,
// sampled from the multinomial distribution with probabilities
// weights/Σweights. This is the coordinator's round-2 allocation in
// Lemma 3.7 (the coordinator draws x_1..x_m ~ sites and sends y_i =
// #{j : x_j = i} to site i).
func Multinomial(m int, weights []float64, rng *rand.Rand) []int {
	counts := make([]int, len(weights))
	if m == 0 {
		return counts
	}
	a := NewAlias(weights)
	for j := 0; j < m; j++ {
		counts[a.Draw(rng)]++
	}
	return counts
}

// WeightedIndex draws one index proportionally to weights, without
// building an alias table (O(n) per draw). Suitable for one-off draws.
func WeightedIndex(weights []float64, rng *rand.Rand) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		panic("sampling: all weights are zero")
	}
	t := rng.Float64() * total
	var acc float64
	for i, w := range weights {
		acc += w
		if t < acc {
			return i
		}
	}
	return len(weights) - 1
}
