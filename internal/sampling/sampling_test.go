package sampling

import (
	"math"
	"testing"

	"lowdimlp/internal/numeric"
)

// offerAll offers the single-number rows 0, 1, …, len(weights)-1 with
// the given weights.
func offerAll(r *RowReservoir, weights ...float64) {
	for i, w := range weights {
		r.Offer([]float64{float64(i)}, w)
	}
}

func TestReservoirUniform(t *testing.T) {
	// With equal weights each slot must be ≈ uniform over the rows.
	const n, m, trials = 10, 1, 20000
	counts := make([]int, n)
	rng := numeric.NewRand(1, 1)
	for trial := 0; trial < trials; trial++ {
		r := NewRowReservoir(m, 1, rng)
		for i := 0; i < n; i++ {
			r.Offer([]float64{float64(i)}, 1)
		}
		s, ok := r.Sample()
		if !ok {
			t.Fatal("sample must exist")
		}
		counts[int(s[0][0])]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("row %d drawn %d times, want ≈ %.0f", i, c, want)
		}
	}
}

func TestReservoirWeighted(t *testing.T) {
	// Row 1 has weight 3; it must be drawn ≈ 3/4 of the time.
	const trials = 20000
	rng := numeric.NewRand(2, 2)
	hits := 0
	for trial := 0; trial < trials; trial++ {
		r := NewRowReservoir(1, 1, rng)
		offerAll(r, 1, 3)
		s, _ := r.Sample()
		if s[0][0] == 1 {
			hits++
		}
	}
	p := float64(hits) / trials
	if math.Abs(p-0.75) > 0.02 {
		t.Errorf("P(row 1) = %v, want ≈ 0.75", p)
	}
}

func TestReservoirSlotsIndependent(t *testing.T) {
	// Two slots must not always agree (they are independent samples).
	rng := numeric.NewRand(3, 3)
	agree := 0
	const trials = 2000
	for trial := 0; trial < trials; trial++ {
		r := NewRowReservoir(2, 1, rng)
		offerAll(r, 1, 1, 1, 1)
		s, _ := r.Sample()
		if s[0][0] == s[1][0] {
			agree++
		}
	}
	// Independent uniform over 4: agreement probability 1/4.
	p := float64(agree) / trials
	if math.Abs(p-0.25) > 0.05 {
		t.Errorf("P(agree) = %v, want ≈ 0.25", p)
	}
}

func TestReservoirZeroAndReset(t *testing.T) {
	rng := numeric.NewRand(4, 4)
	r := NewRowReservoir(2, 1, rng)
	if _, ok := r.Sample(); ok {
		t.Error("empty reservoir must not produce a sample")
	}
	r.Offer([]float64{-1}, 0) // zero weight: ignored
	if _, ok := r.Sample(); ok {
		t.Error("zero-weight offers must not count")
	}
	r.Offer([]float64{7}, 1)
	if s, ok := r.Sample(); !ok || s[0][0] != 7 || s[1][0] != 7 {
		t.Error("single offer must fill every slot")
	}
	if r.Total() != 1 {
		t.Errorf("Total = %v", r.Total())
	}
	r.Reset()
	if _, ok := r.Sample(); ok || r.Total() != 0 {
		t.Error("Reset must clear state")
	}
}

func TestReservoirPanicsOnBadWeight(t *testing.T) {
	for _, w := range []float64{-1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic on weight %v", w)
				}
			}()
			NewRowReservoir(1, 1, numeric.NewRand(5, 5)).Offer([]float64{1}, w)
		}()
	}
}

func TestAliasDistribution(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	a := NewAlias(weights)
	rng := numeric.NewRand(6, 6)
	const trials = 100000
	counts := make([]int, len(weights))
	for i := 0; i < trials; i++ {
		counts[a.Draw(rng)]++
	}
	for i, w := range weights {
		want := w / 10 * trials
		if math.Abs(float64(counts[i])-want) > 5*math.Sqrt(want) {
			t.Errorf("index %d drawn %d times, want ≈ %.0f", i, counts[i], want)
		}
	}
}

func TestAliasSingleAndDegenerate(t *testing.T) {
	a := NewAlias([]float64{5})
	rng := numeric.NewRand(7, 7)
	for i := 0; i < 10; i++ {
		if a.Draw(rng) != 0 {
			t.Fatal("single-weight alias must always draw 0")
		}
	}
	// Zero weights mixed in: index 1 never drawn.
	a = NewAlias([]float64{1, 0, 1})
	for i := 0; i < 1000; i++ {
		if a.Draw(rng) == 1 {
			t.Fatal("zero-weight index drawn")
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on all-zero weights")
		}
	}()
	NewAlias([]float64{0, 0})
}

func TestMultinomial(t *testing.T) {
	rng := numeric.NewRand(8, 8)
	weights := []float64{1, 1, 2}
	const m = 40000
	counts := Multinomial(m, weights, rng)
	sum := 0
	for _, c := range counts {
		sum += c
	}
	if sum != m {
		t.Fatalf("counts sum to %d, want %d", sum, m)
	}
	wants := []float64{m / 4.0, m / 4.0, m / 2.0}
	for i := range wants {
		if math.Abs(float64(counts[i])-wants[i]) > 5*math.Sqrt(wants[i]) {
			t.Errorf("bucket %d: %d draws, want ≈ %.0f", i, counts[i], wants[i])
		}
	}
	empty := Multinomial(0, weights, rng)
	for _, c := range empty {
		if c != 0 {
			t.Error("m=0 must produce all-zero counts")
		}
	}
}

// TestReservoirSkipOverflow: once an earlier offer dwarfs the current
// one (p = w/total below ≈ 4e-18) the geometric skip exceeds MaxInt64;
// it must end the offer, not wrap into a negative slot index.
func TestReservoirSkipOverflow(t *testing.T) {
	const rows = 200_000
	flat := NewRowReservoir(8, 1, numeric.NewRand(10, 10))
	flat.Offer([]float64{-1}, 1e20)
	for i := 0; i < rows; i++ {
		flat.Offer([]float64{float64(i)}, 1)
	}
	slots, _ := flat.Sample()
	for k := range slots {
		if slots[k][0] != -1 {
			t.Fatalf("slot %d holds %v: a 1e-20 offer displaced the 1e20 one", k, slots[k][0])
		}
	}
}

func TestRowReservoirReset(t *testing.T) {
	r := NewRowReservoir(3, 2, numeric.NewRand(11, 11))
	r.Offer([]float64{1, 2}, 5)
	r.Reset()
	if _, ok := r.Sample(); ok || r.Total() != 0 {
		t.Fatal("Reset must empty the reservoir")
	}
	r.Offer([]float64{3, 4}, 1)
	rows, ok := r.Sample()
	if !ok || len(rows) != 3 {
		t.Fatal("a reset reservoir must sample again")
	}
	for _, row := range rows {
		if row[0] != 3 || row[1] != 4 {
			t.Fatalf("slot %v survived the reset", row)
		}
	}
}

// knownTotalPass runs one pass of s over single-number rows 0..n-1 with
// the given weights, announcing total, the way a caller must: the
// running Kahan total with every row, its last positive-weight row to
// Finish. It returns the sampled rows' first numbers.
func knownTotalPass(s *KnownTotal, weights []float64, total float64) (sampled []float64, ok bool) {
	s.Reset(total)
	var cum numeric.Kahan
	var last []float64
	for i, w := range weights {
		cum.Add(w)
		s.Offer([]float64{float64(i)}, cum.Sum())
		if w > 0 {
			last = []float64{float64(i)}
		}
	}
	rows, ok := s.Finish(last)
	for _, row := range rows {
		sampled = append(sampled, row[0])
	}
	return sampled, ok
}

// TestKnownTotalDistribution: slot contents are weight-proportional
// (χ² over all rows), zero-weight rows are never sampled, the slots
// come out in stream order, and the m draws are independent as a
// multiset — the rate of equal rows over all slot pairs is Σp², which
// a sampler that spread its points evenly (stratified) would undercut
// and one that clumped them would exceed.
func TestKnownTotalDistribution(t *testing.T) {
	const n, m, trials = 40, 16, 4000
	weights := make([]float64, n)
	var total numeric.Kahan
	for i := range weights {
		switch {
		case i%5 == 0:
			weights[i] = 0
		case i%7 == 0:
			weights[i] = 9.5
		default:
			weights[i] = 1 + float64(i%3)
		}
		total.Add(weights[i])
	}
	s := NewKnownTotal(m, 1, numeric.NewRand(12, 12))
	counts := make([]float64, n)
	equalPairs := 0
	for trial := 0; trial < trials; trial++ {
		got, ok := knownTotalPass(s, weights, total.Sum())
		if !ok || len(got) != m {
			t.Fatalf("ok=%v with %d slots, want %d", ok, len(got), m)
		}
		for k, x := range got {
			i := int(x)
			if weights[i] == 0 {
				t.Fatalf("zero-weight row %d sampled", i)
			}
			if k > 0 && got[k-1] > x {
				t.Fatalf("slots out of stream order: %v", got)
			}
			counts[i]++
			for _, y := range got[:k] {
				if y == x {
					equalPairs++
				}
			}
		}
	}
	chi2, dof, sumP2 := 0.0, -1, 0.0
	for i, w := range weights {
		if w == 0 {
			continue
		}
		p := w / total.Sum()
		want := p * m * trials
		chi2 += (counts[i] - want) * (counts[i] - want) / want
		sumP2 += p * p
		dof++
	}
	// χ² has mean dof and standard deviation √(2·dof).
	if limit := float64(dof) + 5*math.Sqrt(2*float64(dof)); chi2 > limit {
		t.Errorf("χ² = %.1f over %d degrees of freedom (limit %.1f): not weight-proportional", chi2, dof, limit)
	}
	pairs := float64(trials * m * (m - 1) / 2)
	rate := float64(equalPairs) / pairs
	// Each pair collides with probability Σp²; pairs within a trial are
	// only weakly dependent, so the binomial deviation is a fair scale.
	if sd := math.Sqrt(sumP2 * (1 - sumP2) / pairs); math.Abs(rate-sumP2) > 6*sd {
		t.Errorf("equal-row rate over slot pairs %.5f, want Σp² = %.5f ± %.5f", rate, sumP2, 6*sd)
	}
}

// TestKnownTotalMisprediction: whatever total was announced, Finish
// hands back m slots that each hold an offered positive-weight row —
// never a zero row, a panic or an unfilled slot. Points at or beyond
// the real total go to the last positive-weight row.
func TestKnownTotalMisprediction(t *testing.T) {
	const n, m = 500, 64
	weights := make([]float64, n)
	var total numeric.Kahan
	for i := range weights[:n-2] { // the last positive-weight row is n-3
		weights[i] = float64(1 + i%4)
		total.Add(weights[i])
	}
	real := total.Sum()
	cases := map[string]float64{
		"exact":    real,
		"+1ulp":    math.Nextafter(real, math.Inf(1)),
		"-1ulp":    math.Nextafter(real, 0),
		"half":     real / 2,
		"double":   real * 2,
		"zero":     0,
		"negative": -real,
		"inf":      math.Inf(1),
		"nan":      math.NaN(),
		"minimal":  math.SmallestNonzeroFloat64,
	}
	for name, announced := range cases {
		s := NewKnownTotal(m, 1, numeric.NewRand(13, 13))
		got, ok := knownTotalPass(s, weights, announced)
		if !ok || len(got) != m {
			t.Fatalf("%s: ok=%v with %d slots, want %d", name, ok, len(got), m)
		}
		tail, head := 0, 0
		for _, x := range got {
			i := int(x)
			if float64(i) != x || i < 0 || i >= n || weights[i] == 0 {
				t.Fatalf("%s: slot holds %v, not an offered positive-weight row", name, x)
			}
			if i == n-3 {
				tail++
			}
			if i == 0 {
				head++
			}
		}
		switch name {
		case "double": // about half the points lie beyond the real total
			if tail < m/4 || tail > 3*m/4 {
				t.Errorf("double: %d of %d slots fell back to the last row, want about half", tail, m)
			}
		case "inf": // no finite point
			if tail != m {
				t.Errorf("inf: %d of %d slots fell back to the last row, want all", tail, m)
			}
		case "zero", "nan", "negative": // every point at 0
			if head != m {
				t.Errorf("%s: %d of %d slots hold the first row, want all", name, head, m)
			}
		case "half": // every point lies in the first half of the stream
			for _, x := range got {
				if x > n/2+4 {
					t.Errorf("half: row %v sampled beyond the announced total", x)
				}
			}
		}
	}
	// Nothing offered: no sample, and no slot of zeros handed out.
	s := NewKnownTotal(m, 1, numeric.NewRand(13, 13))
	s.Reset(10)
	if rows, ok := s.Finish(nil); ok || rows != nil {
		t.Fatal("a pass without offers must not produce a sample")
	}
}

// FuzzKnownTotalSampler: arbitrary finite non-negative weights (zeros
// and a 1e±30 dynamic range included), any m, any announced total —
// Finish returns m filled slots, each an offered positive-weight row,
// in stream order, and the sampler draws at most m sample points.
func FuzzKnownTotalSampler(f *testing.F) {
	f.Add(uint64(1), uint8(4), 1.0, []byte{1, 2, 3, 0, 4})
	f.Add(uint64(2), uint8(1), 0.5, []byte{0, 0, 7})
	f.Add(uint64(3), uint8(200), 2.0, []byte{255, 1, 254, 2, 0, 128})
	f.Add(uint64(4), uint8(9), math.Inf(1), []byte{9})
	f.Add(uint64(5), uint8(0), 1.0, []byte{1})
	f.Add(uint64(2), uint8(1), -11.5, []byte{0, 48}) // negative total, leading zero-weight row
	f.Fuzz(func(t *testing.T, seed uint64, mByte uint8, scale float64, raw []byte) {
		if len(raw) > 4096 {
			raw = raw[:4096]
		}
		m := int(mByte)
		// Byte b → weight: 0 stays 0, others spread over 1e-30..1e30.
		weights := make([]float64, len(raw))
		var total numeric.Kahan
		last := -1
		for i, b := range raw {
			if b != 0 {
				weights[i] = math.Pow(10, (float64(b)-128)*30/127)
				last = i
			}
			total.Add(weights[i])
		}
		s := NewKnownTotal(m, 1, numeric.NewRand(seed, 14))
		// scale: any float64, NaN and ±Inf included.
		got, ok := knownTotalPass(s, weights, total.Sum()*scale)
		if last < 0 && m > 0 {
			if ok {
				t.Fatal("sample from a pass without positive weight")
			}
			return
		}
		if !ok || len(got) != m {
			t.Fatalf("ok=%v with %d slots, want %d", ok, len(got), m)
		}
		prev := -1
		for k, x := range got {
			i := int(x)
			if float64(i) != x || i < 0 || i >= len(weights) || weights[i] == 0 {
				t.Fatalf("slot %d holds %v, not an offered positive-weight row", k, x)
			}
			if i < prev {
				t.Fatalf("slot %d (row %d) precedes slot %d (row %d)", k, i, k-1, prev)
			}
			prev = i
		}
	})
}
