package comm

import (
	"errors"
	"sync"
	"testing"
	"time"

	"lowdimlp/internal/lp"
)

func TestMeterBasics(t *testing.T) {
	m := NewMeter()
	m.StartRound()
	m.Charge(100)
	m.Charge(28)
	m.StartRound()
	m.Charge(8)
	if m.TotalBits() != 136 || m.Rounds() != 2 || m.Messages() != 3 {
		t.Fatalf("meter state: %v", m)
	}
	m.ChargeN(3, 96)
	if m.TotalBits() != 232 || m.Rounds() != 2 || m.Messages() != 6 {
		t.Fatalf("meter state after ChargeN: %v", m)
	}
	if m.String() == "" {
		t.Error("String must render")
	}
}

func TestMeterConcurrent(t *testing.T) {
	m := NewMeter()
	m.StartRound()
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Charge(1)
		}()
	}
	wg.Wait()
	if m.TotalBits() != 64 || m.Messages() != 64 {
		t.Fatal("concurrent charges lost")
	}
}

// TestEachSite: every site is called, and the lowest failing site's
// error is returned whatever order the calls finish in.
func TestEachSite(t *testing.T) {
	const k = 5
	var called [k]bool
	errs := map[int]error{1: errors.New("site 1"), 3: errors.New("site 3")}
	err := EachSite(k, func(i int) error {
		called[i] = true
		if i == 1 {
			time.Sleep(20 * time.Millisecond) // finishes after site 3
		}
		return errs[i]
	})
	if err != errs[1] {
		t.Fatalf("EachSite returned %v, want site 1's error", err)
	}
	for i, c := range called {
		if !c {
			t.Errorf("site %d was not called", i)
		}
	}
	if err := EachSite(k, func(int) error { return nil }); err != nil {
		t.Fatalf("EachSite with no failure returned %v", err)
	}
}

func TestBufferRoundtrip(t *testing.T) {
	b := NewBuffer()
	b.PutUvarint(300)
	b.PutInt(-7)
	b.PutFloat(2.5)
	b.PutBool(true)
	b.PutBool(false)

	r := FromBytes(b.Bytes())
	if v, err := r.Uvarint(); err != nil || v != 300 {
		t.Fatalf("uvarint: %v %v", v, err)
	}
	if v, err := r.Int(); err != nil || v != -7 {
		t.Fatalf("int: %v %v", v, err)
	}
	if v, err := r.Float(); err != nil || v != 2.5 {
		t.Fatalf("float: %v %v", v, err)
	}
	if v, err := r.Bool(); err != nil || !v {
		t.Fatalf("bool: %v %v", v, err)
	}
	if v, err := r.Bool(); err != nil || v {
		t.Fatalf("bool2: %v %v", v, err)
	}
	if b.Bits() != 8*b.Len() {
		t.Error("Bits/Len inconsistent")
	}
}

func TestBufferErrors(t *testing.T) {
	r := FromBytes(nil)
	if _, err := r.Uvarint(); err == nil {
		t.Error("expected uvarint error")
	}
	if _, err := r.Int(); err == nil {
		t.Error("expected varint error")
	}
	if _, err := r.Float(); err == nil {
		t.Error("expected float error")
	}
	if _, err := r.Bool(); err == nil {
		t.Error("expected bool error")
	}
}

func TestBufferCodecValue(t *testing.T) {
	// The halfspace row codec through the generic Buffer value path.
	var c Codec[lp.Halfspace] = RowCodec[lp.Halfspace]{
		Width: 3,
		Item:  func(row []float64) lp.Halfspace { return lp.Halfspace{A: row[:2], B: row[2]} },
		Row:   func(dst []float64, h lp.Halfspace) []float64 { return append(append(dst, h.A...), h.B) },
	}
	b := NewBuffer()
	h := lp.Halfspace{A: []float64{1, -2}, B: 3}
	PutValue(b, c, h)
	if b.Bits() != c.Bits(h) {
		t.Errorf("buffer bits %d vs codec bits %d", b.Bits(), c.Bits(h))
	}
	r := FromBytes(b.Bytes())
	h2, err := Value(r, c)
	if err != nil || h2.B != 3 || h2.A[1] != -2 {
		t.Fatalf("value roundtrip: %v %v", h2, err)
	}
	// Truncated decode must error.
	r2 := FromBytes(b.Bytes()[:5])
	if _, err := Value(r2, c); err == nil {
		t.Error("expected decode error")
	}
}
