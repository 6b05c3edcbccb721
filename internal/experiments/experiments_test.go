package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func TestLookup(t *testing.T) {
	if _, ok := Lookup("E1"); !ok {
		t.Fatal("E1 must exist")
	}
	if _, ok := Lookup("E99"); ok {
		t.Fatal("E99 must not exist")
	}
	ids := map[string]bool{}
	for _, e := range All() {
		if ids[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		ids[e.ID] = true
		if e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Fatalf("experiment %s incompletely defined", e.ID)
		}
	}
	for _, want := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "F1", "F2", "A1"} {
		if !ids[want] {
			t.Fatalf("missing experiment %s", want)
		}
	}
}

// TestQuickSuite runs every experiment in quick mode end to end — the
// integration test of the entire repository — and requires the output
// to match testdata/quick.golden byte for byte. Every cell is a metered
// count (passes, rounds, bits, load) or an exact check, so the tables
// are host-independent; a wall-clock column cannot pass. After a change
// that moves a cell on purpose, regenerate the golden with
//
//	go run ./cmd/lpbench -quick > internal/experiments/testdata/quick.golden
func TestQuickSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite run")
	}
	want, err := os.ReadFile("testdata/quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RunAll(&buf, Config{Quick: true, Seed: 20190313}); err != nil {
		t.Fatalf("suite failed: %v\noutput so far:\n%s", err, buf.String())
	}
	out := buf.String()
	// Correctness assertions render as yes/FAIL (see the pass helper).
	if strings.Contains(out, "FAIL") {
		t.Errorf("an experiment reported a correctness failure:\n%s", out)
	}
	if out == string(want) {
		return
	}
	got, exp := strings.Split(out, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(got), len(exp)); i++ {
		var g, e string
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			e = exp[i]
		}
		if g != e {
			t.Fatalf("output differs from testdata/quick.golden at line %d:\n got: %q\nwant: %q", i+1, g, e)
		}
	}
}

func TestTableHelper(t *testing.T) {
	var buf bytes.Buffer
	tb := newTable(&buf, "a", "b")
	tb.row(1, 2)
	tb.flush()
	if !strings.Contains(buf.String(), "a") || !strings.Contains(buf.String(), "1") {
		t.Error("table did not render")
	}
	if kb(1500) != "1.5" {
		t.Errorf("kb(1500) = %s", kb(1500))
	}
}
