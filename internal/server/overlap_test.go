package server

import (
	"errors"
	"io"
	"net/http"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"lowdimlp/internal/comm"
	"lowdimlp/internal/comm/httptransport"
	"lowdimlp/internal/engine"
)

// TestFleetSolveLeavesNoGoroutines: a fleet solve's concurrent
// exchanges — dial, begin, rounds and the closing End frames — are all
// finished when it returns, after a clean solve and after one whose
// site 1 fails mid-protocol. The client's idle connections are closed
// before counting; their goroutines belong to the connection pool.
func TestFleetSolveLeavesNoGoroutines(t *testing.T) {
	m, _ := engine.Lookup("meb")
	const k = 3
	manifest := writeShardedInstance(t, m, 8000, k, 4)
	var armed atomic.Bool
	var steps atomic.Int64
	urls := startWorkerFleet(t, manifest, k, func(i int, h http.Handler) http.Handler {
		if i != 1 {
			return h
		}
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			// Armed, site 1 answers its Begin and first round A, then
			// fails every frame.
			if armed.Load() && steps.Add(1) > 2 {
				io.Copy(io.Discard, r.Body)
				http.Error(rw, "injected failure", http.StatusInternalServerError)
				return
			}
			h.ServeHTTP(rw, r)
		})
	})
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	topt := httptransport.Options{Client: client, Timeout: 5 * time.Second}
	opt := engine.Options{Seed: 3, K: k, NetConst: 0.2}

	base := runtime.NumGoroutine()
	if _, _, _, err := engine.SolveFleetTransport(urls, opt, topt, ""); err != nil {
		t.Fatal(err)
	}
	client.CloseIdleConnections()
	waitGoroutines(t, "clean fleet solve", base)

	fleet, err := httptransport.Dial(urls, topt)
	if err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	tr := fleet.Run()
	_, _, err = m.SolveTransport(fleet.Info().Dim, fleet.Info().Objective, tr, opt)
	tr.Close()
	var te *comm.TransportError
	if !errors.As(err, &te) || te.Site != 1 {
		t.Fatalf("want a transport error naming site 1, got %v", err)
	}
	client.CloseIdleConnections()
	waitGoroutines(t, "failed fleet solve", base)
}

// waitGoroutines fails unless the goroutine count falls back to base
// within 5 s (closed connections take a moment to wind down).
func waitGoroutines(t *testing.T, what string, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("after a %s: %d goroutines, %d before", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
