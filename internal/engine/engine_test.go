package engine

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"lowdimlp/internal/core"
)

func TestCanonicalOptions(t *testing.T) {
	full := Options{R: 3, Delta: 0.4, Seed: 9, MonteCarlo: true, NetConst: 2, K: 8, Parallel: true}
	cases := []struct {
		backend string
		want    Options
	}{
		{BackendRAM, Options{Seed: 9}},
		{BackendStream, Options{R: 3, Seed: 9, MonteCarlo: true, NetConst: 2}},
		{BackendCoordinator, Options{R: 3, Seed: 9, MonteCarlo: true, NetConst: 2, K: 8}},
		{BackendMPC, Options{R: 3, Delta: 0.4, Seed: 9, MonteCarlo: true, NetConst: 2}},
	}
	for _, c := range cases {
		if got := Canonical(c.backend, full); got != c.want {
			t.Errorf("%s: canonical %+v, want %+v", c.backend, got, c.want)
		}
	}
	// Defaults normalize: R 0→2 (except mpc), NetConst 0→the core
	// default, K 0→4, Delta 0→0.5.
	zero := Options{Seed: 1}
	if got := Canonical(BackendStream, zero); got.R != 2 || got.NetConst != core.DefaultNetConst {
		t.Errorf("stream defaults: %+v", got)
	}
	if got := Canonical(BackendCoordinator, zero); got.K != 4 {
		t.Errorf("coordinator defaults: %+v", got)
	}
	if got := Canonical(BackendMPC, zero); got.R != 0 || got.Delta != 0.5 {
		t.Errorf("mpc defaults: %+v (R=0 must survive: it means derive-from-δ)", got)
	}
	if got := Canonical(BackendRAM, full); got.Parallel || got.R != 0 || got.K != 0 {
		t.Errorf("ram must ignore everything but the seed: %+v", got)
	}
}

func TestOptionsCoreDefaults(t *testing.T) {
	// A zero NetConst passes through: core applies its one default.
	co := Options{}.Core()
	if co.R != 2 || co.NetConst != 0 {
		t.Fatalf("defaults: %+v", co)
	}
	if s := (Options{}).Sites(); s != 4 {
		t.Fatalf("sites default %d", s)
	}
}

// TestOptionsCheck is the engine boundary's table: a NetConst that is
// negative, NaN or ±Inf is ErrNetConst; zero (the default) and any
// positive finite value pass, however large — a huge c ships the input.
func TestOptionsCheck(t *testing.T) {
	for _, tc := range []struct {
		c   float64
		bad bool
	}{
		{0, false}, {0.5, false}, {core.DefaultNetConst, false}, {1e308, false},
		{-1, true}, {math.Copysign(0, -1), false}, {-1e-300, true},
		{math.NaN(), true}, {math.Inf(1), true}, {math.Inf(-1), true},
	} {
		err := Options{NetConst: tc.c}.Check()
		if tc.bad != (err != nil) || (err != nil && !errors.Is(err, ErrNetConst)) {
			t.Errorf("NetConst %v: Check() = %v, want rejected %v", tc.c, err, tc.bad)
		}
	}
}

func TestSolutionJSONRoundTrip(t *testing.T) {
	s := Solution{Fields: []Field{
		VecField("x", "x*", []float64{1, 2}),
		NumField("value", "objective", 3),
	}}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != `{"x":[1,2],"value":3}` {
		t.Fatalf("marshal: %s", raw)
	}
	var back Solution
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if v, ok := back.Scalar("value"); !ok || v != 3 {
		t.Fatalf("scalar after roundtrip: %v %v", v, ok)
	}
	if x, ok := back.Vector("x"); !ok || len(x) != 2 || x[1] != 2 {
		t.Fatalf("vector after roundtrip: %v %v", x, ok)
	}
	if _, ok := back.Scalar("x"); ok {
		t.Fatal("vector field must not answer as a scalar")
	}
	if !strings.Contains(s.Text(), "objective = 3") || !strings.Contains(s.Text(), "x* = [1 2]") {
		t.Fatalf("text rendering: %q", s.Text())
	}
	// After a JSON roundtrip labels are gone; keys take over.
	if !strings.Contains(back.Text(), "value = 3") {
		t.Fatalf("text rendering after roundtrip: %q", back.Text())
	}
}

func TestSolutionJSONErrors(t *testing.T) {
	var s Solution
	for _, bad := range []string{`[1,2]`, `{"x":"str"}`, `{"x":{}}`} {
		if err := json.Unmarshal([]byte(bad), &s); err == nil {
			t.Errorf("unmarshal %s: want error", bad)
		}
	}
}

func TestRegistryErrors(t *testing.T) {
	if _, ok := Lookup("no-such-kind"); ok {
		t.Fatal("lookup of unregistered kind succeeded")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("empty-kind Register must panic")
		}
	}()
	Register(&Spec[int, int, int]{Name: "  "})
}

func TestValidBackend(t *testing.T) {
	for _, b := range Backends() {
		if !ValidBackend(b) {
			t.Errorf("%s not valid", b)
		}
	}
	if ValidBackend("quantum") {
		t.Error("quantum accepted")
	}
}
