package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"
)

func TestTraceSpans(t *testing.T) {
	tr := New("job-1")
	if !tr.Enabled() {
		t.Fatal("New trace not enabled")
	}
	ph := tr.Start("ingest")
	ph.End()
	ex := tr.StartSite("round-a", 2, 1)
	ex.EndBytes(100)
	ex2 := tr.StartSite("round-b", 0, 2)
	ex2.EndErr(errors.New("boom"), "timeout")
	tr.Annotate("kind", "lp")
	tr.Fail(errors.New("site 2 died"), "unreachable")

	d := tr.Data()
	if d.Name != "job-1" {
		t.Errorf("name = %q", d.Name)
	}
	if len(d.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(d.Spans))
	}
	if d.Spans[0].Name != "ingest" || d.Spans[0].Site != -1 {
		t.Errorf("phase span = %+v", d.Spans[0])
	}
	if d.Spans[1].Site != 2 || d.Spans[1].Round != 1 || d.Spans[1].Bytes != 100 {
		t.Errorf("exchange span = %+v", d.Spans[1])
	}
	if d.Spans[2].Err != "boom" || d.Spans[2].ErrClass != "timeout" {
		t.Errorf("failed span = %+v", d.Spans[2])
	}
	if d.Err != "site 2 died" || d.ErrClass != "unreachable" {
		t.Errorf("trace error = %q/%q", d.Err, d.ErrClass)
	}
	if d.Attrs["kind"] != "lp" {
		t.Errorf("attrs = %v", d.Attrs)
	}
	// Per-site totals: site 2 has 100 bytes, sites 0 and 1 exist up to
	// the max site index.
	if len(d.PerSite) != 3 {
		t.Fatalf("per-site = %v", d.PerSite)
	}
	if d.PerSite[2].Bytes != 100 {
		t.Errorf("site 2 bytes = %d, want 100", d.PerSite[2].Bytes)
	}
	// The rendered trace must be JSON-marshalable (the wire form).
	if _, err := json.Marshal(d); err != nil {
		t.Fatalf("marshal: %v", err)
	}
}

// TestNilTraceAllocs pins the disabled recorder's cost: every
// instrumentation call on a nil *Trace must allocate nothing — this is
// the "strictly zero-cost when disabled" guarantee the solve path
// relies on.
func TestNilTraceAllocs(t *testing.T) {
	var tr *Trace
	err := errors.New("x")
	allocs := testing.AllocsPerRun(1000, func() {
		if tr.Enabled() {
			t.Fatal("nil trace enabled")
		}
		s := tr.Start("phase")
		s.End()
		e := tr.StartSite("round-a", 3, 1)
		e.EndBytes(10)
		e2 := tr.StartSite("round-b", 3, 2)
		e2.EndErr(err, "timeout")
		tr.Fail(err, "unreachable")
		tr.Annotate("k", "v")
		tr.Data()
	})
	if allocs != 0 {
		t.Fatalf("nil-trace instrumentation allocates %v allocs/op, want 0", allocs)
	}
}

func TestTraceConcurrent(t *testing.T) {
	tr := New("conc")
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 100; j++ {
				s := tr.StartSite("round-a", i, j)
				s.EndBytes(int64(j))
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if got := len(tr.Data().Spans); got != 800 {
		t.Fatalf("spans = %d, want 800", got)
	}
}

func TestRing(t *testing.T) {
	r := NewRing(3)
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("empty ring snapshot = %v", got)
	}
	for i := 0; i < 5; i++ {
		r.Add(TraceData{Name: fmt.Sprintf("t%d", i)})
	}
	got := r.Snapshot()
	if len(got) != 3 {
		t.Fatalf("snapshot len = %d, want 3", len(got))
	}
	// Newest first: t4, t3, t2.
	for i, want := range []string{"t4", "t3", "t2"} {
		if got[i].Name != want {
			t.Errorf("snapshot[%d] = %q, want %q", i, got[i].Name, want)
		}
	}
	if r.Added() != 5 {
		t.Errorf("added = %d, want 5", r.Added())
	}
}
