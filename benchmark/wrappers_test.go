package main

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"

	"lowdimlp"
	"lowdimlp/internal/comm/httptransport"
	"lowdimlp/internal/engine"
	"lowdimlp/internal/server"
)

// TestMain lets the test binary stand in for lpmark when a test starts
// a workload child (the supervisor re-executes its own binary).
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain())
	}
	os.Exit(m.Run())
}

func render(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// The timing Domain wrapper must not change a single bit: for every
// kind × backend, through both the columnar and the typed-slice entry
// point, solution and Stats equal the registry model's own.
func TestTimedDomainIsTransparent(t *testing.T) {
	for _, kind := range lowdimlp.Kinds() {
		m, _ := lowdimlp.LookupKind(kind)
		// n is above every kind's direct-solve threshold at r=3, so the
		// iterative protocol (scans, several basis calls) really runs.
		inst, err := m.Generate(m.Families()[0], lowdimlp.GenParams{N: 6000, D: 3, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		store, err := engine.Columnar(m, inst)
		if err != nil {
			t.Fatal(err)
		}
		for _, backend := range lowdimlp.Backends() {
			opt := engine.Options{R: 3, K: 3, Seed: 5}
			rec := &opRec{t: newTracer()}
			tm, err := timedModel(kind, rec)
			if err != nil {
				t.Fatal(err)
			}
			wantSol, wantStats, err := m.SolveSource(backend, inst.Dim, inst.Objective, store, opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", kind, backend, err)
			}
			gotSol, gotStats, err := tm.SolveSource(backend, inst.Dim, inst.Objective, store, opt)
			if err != nil {
				t.Fatalf("%s/%s traced: %v", kind, backend, err)
			}
			if render(t, gotSol) != render(t, wantSol) || !reflect.DeepEqual(gotStats, wantStats) {
				t.Errorf("%s/%s columnar: traced %s %s, plain %s %s", kind, backend,
					render(t, gotSol), render(t, gotStats), render(t, wantSol), render(t, wantStats))
			}
			if rec.basisCalls == 0 {
				t.Errorf("%s/%s: the wrapper saw no Domain.Solve call", kind, backend)
			}
			if backend != "ram" && gotStats.Stream != nil && !gotStats.Stream.DirectSolve && rec.scanBlocks == 0 {
				t.Errorf("%s/%s: block kernels were not selected through the wrapper", kind, backend)
			}

			wantSol, wantStats, err = m.SolveInstance(backend, inst, opt)
			if err != nil {
				t.Fatal(err)
			}
			gotSol, gotStats, err = tm.SolveInstance(backend, inst, opt)
			if err != nil {
				t.Fatal(err)
			}
			if render(t, gotSol) != render(t, wantSol) || !reflect.DeepEqual(gotStats, wantStats) {
				t.Errorf("%s/%s slice: traced and plain results differ", kind, backend)
			}
		}
	}
}

// The timing Transport wrapper around httptransport's run must give
// SolveFleet's result bit for bit — solution, rounds, bits — and both
// must equal the in-process coordinator over the same manifest.
func TestTimedTransportIsTransparent(t *testing.T) {
	for _, kind := range lowdimlp.Kinds() {
		li, err := generate(instSpec{ID: kind, Kind: kind, Family: familyOf(kind), N: 6000, D: 3, Seed: 3, Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		shards, err := li.writeFiles(t.TempDir(), false)
		if err != nil {
			t.Fatal(err)
		}
		var urls []string
		for _, shard := range shards {
			w, err := server.NewWorker(server.WorkerConfig{DataPath: shard})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(w.Handler())
			t.Cleanup(func() { srv.Close(); w.Close() })
			urls = append(urls, srv.URL)
		}
		opt := lowdimlp.Options{R: 3, Seed: 9}
		_, wantSol, wantStats, err := lowdimlp.SolveFleet(urls, opt)
		if err != nil {
			t.Fatalf("%s: SolveFleet: %v", kind, err)
		}

		fleet, err := httptransport.Dial(urls, httptransport.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rec := &opRec{t: newTracer()}
		tm, err := timedModel(kind, rec)
		if err != nil {
			t.Fatal(err)
		}
		tr := &timedTransport{Transport: fleet.Run(), rec: rec}
		gotSol, gotStats, err := tm.SolveTransport(fleet.Info().Dim, fleet.Info().Objective, tr, engineOptions(opt))
		tr.Close()
		if err != nil {
			t.Fatalf("%s: traced fleet solve: %v", kind, err)
		}
		if render(t, gotSol) != render(t, wantSol) || !reflect.DeepEqual(gotStats, wantStats) {
			t.Errorf("%s: traced fleet %s %s, SolveFleet %s %s", kind,
				render(t, gotSol), render(t, gotStats), render(t, wantSol), render(t, wantStats))
		}
		if rec.exchanges == 0 || rec.exchangeBytes == 0 {
			t.Errorf("%s: the transport wrapper saw %d exchanges, %d bytes", kind, rec.exchanges, rec.exchangeBytes)
		}
		local := opt
		local.K = len(urls)
		refSol, refStats, err := lowdimlp.SolveDatasetFile(li.manifest, "coordinator", local)
		if err != nil {
			t.Fatal(err)
		}
		if render(t, refSol) != render(t, wantSol) || !reflect.DeepEqual(refStats, wantStats) {
			t.Errorf("%s: fleet and in-process coordinator differ: %s vs %s", kind, render(t, wantStats), render(t, refStats))
		}
	}
}

func familyOf(kind string) string {
	m, _ := lowdimlp.LookupKind(kind)
	return m.Families()[0]
}
