package server

import (
	"bytes"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"lowdimlp/internal/comm"
	"lowdimlp/internal/comm/httptransport"
	"lowdimlp/internal/dataset"
	"lowdimlp/internal/engine"
)

// newTestWorker opens a Worker over a tiny single-shard meb dataset.
func newTestWorker(t *testing.T, cfg WorkerConfig) *Worker {
	t.Helper()
	m, _ := engine.Lookup("meb")
	manifest := writeShardedInstance(t, m, 60, 1, 1)
	cfg.DataPath = filepath.Join(filepath.Dir(manifest), dataset.ShardName(manifest, 0))
	w, err := NewWorker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// openTestSession begins one protocol session directly against the
// worker's handler and returns its HTTP status plus the reply frame.
func openTestSession(t *testing.T, w *Worker) (int, comm.Frame) {
	t.Helper()
	frame := comm.EncodeFrame(comm.Frame{
		Type: comm.FrameBegin, Seq: 1,
		Payload: comm.AppendBeginPayload(nil, 1, 0, 1.5),
	})
	req := httptest.NewRequest("POST", httptransport.StepPath, bytes.NewReader(frame))
	rec := httptest.NewRecorder()
	w.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		return rec.Code, comm.Frame{}
	}
	rep, err := comm.DecodeFrameStrict(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("begin reply: %v", err)
	}
	return rec.Code, rep
}

// The sweep tick is ttl/4 clamped to [1s, 1min]: a tiny session TTL
// must not spin the sweeper hot (the regression this pins), and a
// huge TTL must not let dead sessions linger for hours.
func TestSweepIntervalClamp(t *testing.T) {
	cases := []struct {
		ttl, want time.Duration
	}{
		{10 * time.Millisecond, time.Second}, // tiny TTL: floor, not a 2.5ms spin
		{time.Second, time.Second},           // ttl/4 below floor
		{4 * time.Second, time.Second},       // exactly the floor
		{40 * time.Second, 10 * time.Second}, // plain ttl/4
		{4 * time.Minute, time.Minute},       // exactly the ceiling
		{24 * time.Hour, time.Minute},        // huge TTL: ceiling, not 6h ticks
	}
	for _, c := range cases {
		if got := sweepInterval(c.ttl); got != c.want {
			t.Errorf("sweepInterval(%v) = %v, want %v", c.ttl, got, c.want)
		}
	}
}

// A worker configured with a tiny SessionTTL must still reclaim idle
// sessions (on the floored tick) without melting: end-to-end guard on
// the clamp actually being wired into the worker's sweeper.
func TestWorkerSweeperTinyTTL(t *testing.T) {
	w := newTestWorker(t, WorkerConfig{sessionTTL: 50 * time.Millisecond})
	if code, _ := openTestSession(t, w); code != 200 {
		t.Fatalf("begin: HTTP %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if w.metrics.SessionsExpired.Load() >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session never expired under a tiny TTL")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
