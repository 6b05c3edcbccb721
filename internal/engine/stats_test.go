package engine_test

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"lowdimlp/internal/engine"
	_ "lowdimlp/internal/models" // populate the registry
)

// TestStatsJSONKeys pins the top-level JSON keys of each engine.Stats
// member — the names lpserved, lpsolve and lpmark read off the wire —
// as a sorted list, so a change to how the Stats types are declared
// cannot rename or drop one. Key order is not part of the contract.
func TestStatsJSONKeys(t *testing.T) {
	want := map[string][]string{
		engine.BackendStream:      {"DirectSolve", "Failures", "ItemsScanned", "Iterations", "N", "NetSize", "Passes", "PeakSpaceBits", "R", "StoredBases", "Successes"},
		engine.BackendCoordinator: {"DirectSolve", "Failures", "Iterations", "K", "Messages", "N", "NetSize", "R", "Retries", "Rounds", "Successes", "TotalBits"},
		engine.BackendMPC:         {"Delta", "DirectSolve", "Failures", "FanOut", "Iterations", "Machines", "MaxLoadBits", "N", "NetSize", "R", "Rounds", "Successes", "TotalBits"},
	}
	m, _ := engine.Lookup("lp")
	inst, err := m.Generate(m.Families()[0], engine.GenParams{N: 2000, D: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	src, err := engine.Columnar(m, inst)
	if err != nil {
		t.Fatal(err)
	}
	for backend, keys := range want {
		_, st, err := m.SolveSource(backend, inst.Dim, inst.Objective, src, engine.Options{R: 3, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		raw, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		var members map[string]map[string]json.RawMessage
		if err := json.Unmarshal(raw, &members); err != nil {
			t.Fatalf("%s: %v in %s", backend, err, raw)
		}
		if len(members) != 1 || members[backend] == nil {
			t.Fatalf("%s: want exactly the %q member, got %s", backend, backend, raw)
		}
		got := make([]string, 0, len(members[backend]))
		for k := range members[backend] {
			got = append(got, k)
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, keys) {
			t.Errorf("%s: JSON keys %q, want %q", backend, got, keys)
		}
	}
}
