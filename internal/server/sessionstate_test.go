package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"testing"

	"lowdimlp/internal/comm"
	"lowdimlp/internal/comm/httptransport"
	"lowdimlp/internal/dataset"
	"lowdimlp/internal/engine"
	"lowdimlp/internal/meb"
)

// newMebWorker opens a Worker over a single-shard meb dataset of n
// rows and returns it with a round-A request carrying a basis of a few
// of its points.
func newMebWorker(t *testing.T, n int, cfg WorkerConfig) (*Worker, []byte) {
	t.Helper()
	m, _ := engine.Lookup("meb")
	inst, err := m.Generate(m.Families()[0], engine.GenParams{N: n, D: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(t.TempDir(), "ds.ldm")
	if err := engine.WriteShardedDatasetFile(manifest, m.Kind(), inst, 1); err != nil {
		t.Fatal(err)
	}
	cfg.DataPath = filepath.Join(filepath.Dir(manifest), dataset.ShardName(manifest, 0))
	w, err := NewWorker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })

	pts := make([]meb.Point, 5)
	for i := range pts {
		pts[i] = meb.Point(inst.Rows[i])
	}
	dom := meb.NewDomain(3)
	basis, err := dom.Solve(pts)
	if err != nil {
		t.Fatal(err)
	}
	req := comm.NewBuffer()
	req.PutBool(true)
	comm.PutValue(req, comm.Codec[meb.Basis](meb.BasisCodec{Dim: 3}), basis)
	return w, req.Bytes()
}

// stepWorker posts one frame to the worker's step endpoint and returns
// the HTTP status and, on 200, the reply frame.
func stepWorker(t *testing.T, w *Worker, f comm.Frame) (int, comm.Frame) {
	t.Helper()
	req := httptest.NewRequest("POST", httptransport.StepPath, bytes.NewReader(comm.EncodeFrame(f)))
	rec := httptest.NewRecorder()
	w.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return rec.Code, comm.Frame{}
	}
	rep, err := comm.DecodeFrameStrict(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("reply to frame type %d: %v", f.Type, err)
	}
	return rec.Code, rep
}

func beginSession(t *testing.T, w *Worker, mult float64) uint64 {
	t.Helper()
	code, rep := stepWorker(t, w, comm.Frame{Type: comm.FrameBegin, Seq: 1, Payload: comm.AppendBeginPayload(nil, 9, 0, mult)})
	if code != http.StatusOK {
		t.Fatalf("begin: HTTP %d", code)
	}
	return rep.Session
}

func roundB(success bool, alloc int) []byte {
	b := comm.NewBuffer()
	b.PutBool(success)
	b.PutInt(alloc)
	return b.Bytes()
}

// TestWorkerRoundBConsumedOnce drives the state machine's A → B
// alternation through the unauthenticated step endpoint: a replayed or
// premature round B is a 422 that leaves the session exactly as it was
// — a twin session that never saw the hostile frames keeps answering
// with the same bytes.
func TestWorkerRoundBConsumedOnce(t *testing.T) {
	const n = 3000
	w, roundA := newMebWorker(t, n, WorkerConfig{})
	mult := math.Sqrt(n)
	victim, twin := beginSession(t, w, mult), beginSession(t, w, mult)

	hostile := func(what string, typ comm.FrameType, payload []byte) {
		t.Helper()
		if code, _ := stepWorker(t, w, comm.Frame{Type: typ, Session: victim, Seq: 2, Payload: payload}); code != http.StatusUnprocessableEntity {
			t.Fatalf("%s: HTTP %d, want 422", what, code)
		}
	}
	both := func(what string, typ comm.FrameType, payload []byte) {
		t.Helper()
		code, got := stepWorker(t, w, comm.Frame{Type: typ, Session: victim, Seq: 2, Payload: payload})
		if code != http.StatusOK {
			t.Fatalf("%s: HTTP %d", what, code)
		}
		_, want := stepWorker(t, w, comm.Frame{Type: typ, Session: twin, Seq: 2, Payload: payload})
		if !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("%s: reply differs from the undisturbed twin session's", what)
		}
	}
	before := w.metrics.StepErrors.Load()
	hostile("round B before any round A", comm.FrameRoundB, roundB(false, 0))
	both("bootstrap round A", comm.FrameRoundA, []byte{0})
	hostile("success with nothing tested", comm.FrameRoundB, roundB(true, 8))
	both("bootstrap round B", comm.FrameRoundB, roundB(false, 8))
	both("round A", comm.FrameRoundA, roundA)
	both("successful round B", comm.FrameRoundB, roundB(true, 8))
	hostile("replayed successful round B", comm.FrameRoundB, roundB(true, 8))
	hostile("replayed round B, flag flipped", comm.FrameRoundB, roundB(false, 8))
	both("next round A", comm.FrameRoundA, roundA)
	both("next round B", comm.FrameRoundB, roundB(false, 8))
	if got := w.metrics.StepErrors.Load() - before; got != 4 {
		t.Fatalf("step errors counted %d, want 4", got)
	}
}

// TestWorkerSessionStateBoundedAndReleased opens MaxSessions sessions,
// takes each through a bootstrap iteration and a successful one (so
// its alias table and exponents exist), and checks the contract: the
// state the worker reports — in /v1/worker/info and as
// lpserved_worker_session_state_bytes — is at most 24 B per shard row
// per session, the heap really grew by about that much, and End gives
// all of it back.
func TestWorkerSessionStateBoundedAndReleased(t *testing.T) {
	const n, sessions = 100000, 8
	w, roundA := newMebWorker(t, n, WorkerConfig{maxSessions: sessions})
	ts := httptest.NewServer(w.Handler())
	defer ts.Close()
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	reported := func() (info, metric int64) {
		resp, err := http.Get(ts.URL + "/v1/worker/info")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Sessions   int   `json:"sessions"`
			StateBytes int64 `json:"session_state_bytes"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body.StateBytes, int64(scrape(t, ts.URL+"/metrics").Sum("lpserved_worker_session_state_bytes"))
	}

	base := heap()
	ids := make([]uint64, sessions)
	for i := range ids {
		ids[i] = beginSession(t, w, math.Sqrt(n))
	}
	if info, _ := reported(); info != 0 {
		t.Fatalf("fresh sessions report %d state bytes, want 0", info)
	}
	for _, id := range ids {
		for _, f := range []comm.Frame{
			{Type: comm.FrameRoundA, Payload: []byte{0}},
			{Type: comm.FrameRoundB, Payload: roundB(false, 16)},
			{Type: comm.FrameRoundA, Payload: roundA},
			{Type: comm.FrameRoundB, Payload: roundB(true, 16)},
		} {
			f.Session, f.Seq = id, 2
			if code, _ := stepWorker(t, w, f); code != http.StatusOK {
				t.Fatalf("session %d frame type %d: HTTP %d", id, f.Type, code)
			}
		}
	}
	const bound = int64(sessions) * 24 * n
	info, metric := reported()
	if info != metric || info < bound*20/24 || info > bound {
		t.Fatalf("open sessions report %d (info) / %d (metrics) state bytes, want equal and in [20, 24] B/row × %d rows × %d sessions = ≤ %d",
			info, metric, n, sessions, bound)
	}
	const slack = 2 << 20
	if grew := heap() - base; grew < info-slack || grew > bound+slack {
		t.Fatalf("heap grew %d bytes with %d sessions open; they report %d and may hold ≤ %d", grew, sessions, info, bound)
	}

	for _, id := range ids {
		if code, _ := stepWorker(t, w, comm.Frame{Type: comm.FrameEnd, Session: id, Seq: 3}); code != http.StatusOK {
			t.Fatalf("end: HTTP %d", code)
		}
	}
	if info, metric := reported(); info != 0 || metric != 0 {
		t.Fatalf("after End: %d / %d state bytes reported", info, metric)
	}
	if left := heap() - base; left > slack {
		t.Fatalf("after End the heap still holds %d bytes over the baseline", left)
	}
}

// discardWriter is a ResponseWriter that counts the body and keeps
// none of it, so a test can measure what a handler itself allocates.
type discardWriter struct {
	h    http.Header
	code int
	n    int
}

func (d *discardWriter) Header() http.Header { return d.h }

func (d *discardWriter) WriteHeader(code int) { d.code = code }

func (d *discardWriter) Write(p []byte) (int, error) {
	d.n += len(p)
	return len(p), nil
}

// TestShipAllStepAllocations: once the worker has served a few solves,
// a ship-all step on a 20 000-row shard (a 480 KB reply) allocates no
// buffer of the reply's size — neither a reply buffer that dies with
// its session nor a frame that copies it.
func TestShipAllStepAllocations(t *testing.T) {
	const n, budget = 20000, 64 << 10
	w, _ := newMebWorker(t, n, WorkerConfig{})
	shipAll := func() (allocated uint64) {
		id := beginSession(t, w, math.Sqrt(n))
		req := httptest.NewRequest("POST", httptransport.StepPath,
			bytes.NewReader(comm.EncodeFrame(comm.Frame{Type: comm.FrameShipAll, Session: id, Seq: 2})))
		rw := &discardWriter{h: http.Header{}}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w.Handler().ServeHTTP(rw, req)
		runtime.ReadMemStats(&after)
		if rw.code != 0 && rw.code != http.StatusOK || rw.n < 3*8*n {
			t.Fatalf("ship-all: HTTP %d, %d bytes", rw.code, rw.n)
		}
		if code, _ := stepWorker(t, w, comm.Frame{Type: comm.FrameEnd, Session: id, Seq: 3}); code != http.StatusOK {
			t.Fatalf("end: HTTP %d", code)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	for range 3 {
		shipAll()
	}
	for i := range 4 {
		got := shipAll()
		t.Logf("steady-state ship-all step %d: %d bytes allocated", i, got)
		if got > budget {
			t.Fatalf("steady-state ship-all step %d allocated %d bytes, want < %d", i, got, budget)
		}
	}
}
