package httptransport

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"

	"lowdimlp/internal/comm"
)

// echoWorker is a minimal step endpoint: it decodes the request frame
// and replies with a FrameReply echoing session, seq, and a payload
// derived from the request payload (each byte incremented) — enough
// to prove the reply the client hands back came from *this* exchange's
// bytes, not a recycled buffer. With sized, it declares the reply's
// Content-Length as lpserved's worker does; without, a reply over 2 KB
// goes out chunked, of unknown length, and the client takes its pooled
// bounded read.
func echoWorker(t testing.TB, sized bool) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("worker read: %v", err)
			return
		}
		f, err := comm.DecodeFrameStrict(body)
		if err != nil {
			t.Errorf("worker decode: %v", err)
			return
		}
		out := make([]byte, len(f.Payload))
		for i, b := range f.Payload {
			out[i] = b + 1
		}
		enc := comm.EncodeFrame(comm.Frame{
			Type: comm.FrameReply, Session: f.Session, Seq: f.Seq, Payload: out,
		})
		if sized {
			w.Header().Set("Content-Length", strconv.Itoa(len(enc)))
		}
		w.Write(enc)
	}))
}

// bothReads runs a test once against each of echoWorker's reply forms.
func bothReads(t *testing.T, test func(t *testing.T, ts *httptest.Server)) {
	for _, sized := range []bool{false, true} {
		name := "unknown-length"
		if sized {
			name = "sized"
		}
		t.Run(name, func(t *testing.T) {
			ts := echoWorker(t, sized)
			defer ts.Close()
			test(t, ts)
		})
	}
}

// TestExchangePayloadDetached pins the pooling contract: a reply
// payload must survive later exchanges unchanged. If the exchange ever
// returned a payload aliasing the pooled body buffer, the next
// exchange through the same pool would scribble over it.
func TestExchangePayloadDetached(t *testing.T) {
	bothReads(t, testExchangePayloadDetached)
}

func testExchangePayloadDetached(t *testing.T, ts *httptest.Server) {
	f := &Fleet{urls: []string{ts.URL}, rows: []int{0}}

	payload := bytes.Repeat([]byte{7}, 1024)
	rep1, err := f.exchange(0, comm.Frame{Type: comm.FrameRoundA, Session: 1, Seq: 1, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), rep1.Payload...)
	// Exchanges with different content and sizes, cycling the pool.
	for k := 0; k < 8; k++ {
		other := bytes.Repeat([]byte{byte(40 + k)}, 256*(k+1))
		if _, err := f.exchange(0, comm.Frame{Type: comm.FrameRoundA, Session: 1, Seq: uint64(2 + k), Payload: other}); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(rep1.Payload, want) {
		t.Fatal("reply payload mutated by later exchanges — pooled buffer escaped")
	}
	for _, b := range want {
		if b != 8 {
			t.Fatalf("echo payload byte %d, want 8", b)
		}
	}
}

// TestReadAllReuse pins the body-read half of the pooling directly: a
// sized buffer must absorb repeated reads with zero allocations (this
// is the io.ReadAll replacement — ReadAll would allocate a doubling
// chain on every exchange).
func TestReadAllReuse(t *testing.T) {
	src := bytes.Repeat([]byte{9}, 65536)
	buf := make([]byte, 0, len(src)+1)
	bp := &buf
	r := bytes.NewReader(src)
	allocs := testing.AllocsPerRun(20, func() {
		r.Reset(src)
		body, err := readAll(r, bp)
		if err != nil {
			t.Fatal(err)
		}
		if len(body) != len(src) {
			t.Fatalf("read %d bytes, want %d", len(body), len(src))
		}
	})
	if allocs > 0 {
		t.Fatalf("readAll into a sized buffer: %.1f allocs (want 0)", allocs)
	}
}

// TestExchangeAllocations is the allocation-regression guard on the
// worker step exchange: with the frame-encode buffer pooled, an
// exchange's allocation count is the HTTP client machinery plus
// exactly one payload buffer — the detach copy out of the pooled body
// buffer for a reply of unknown length, the exact-size body for a sized
// one — measured at ~108 on the CI toolchain. The bound leaves a few
// allocs of headroom; unpooling a buffer or regrowing the payload
// pushes past it.
func TestExchangeAllocations(t *testing.T) {
	bothReads(t, testExchangeAllocations)
}

func testExchangeAllocations(t *testing.T, ts *httptest.Server) {
	f := &Fleet{urls: []string{ts.URL}, rows: []int{0}}
	payload := bytes.Repeat([]byte{3}, 8192)
	seq := uint64(0)
	allocs := testing.AllocsPerRun(50, func() {
		seq++
		rep, err := f.exchange(0, comm.Frame{Type: comm.FrameRoundA, Session: 1, Seq: seq, Payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Payload) != len(payload) {
			t.Fatalf("echo length %d, want %d", len(rep.Payload), len(payload))
		}
	})
	const maxAllocs = 120
	if allocs > maxAllocs {
		t.Fatalf("step exchange: %.1f allocs (want ≤ %d) — scratch buffers no longer pooled?", allocs, maxAllocs)
	}
	t.Logf("step exchange: %.1f allocs for %d-byte payloads", allocs, len(payload))
}

// TestExchangeAfterGCAllocatesItsReply: a step reply of declared length
// is read into one buffer of its size, which the decoded payload keeps,
// so an exchange allocates about its reply even when a GC has just
// emptied the buffer pool — the frontend's case once its live heap is
// small and GCs are frequent. A body read that regrows a pooled buffer
// by doubling from 4 KB and then detaches the payload costs about three
// times the reply.
func TestExchangeAfterGCAllocatesItsReply(t *testing.T) {
	const payloadBytes = 640 << 10 // a ship-all reply of a 60 000-row fleet lp, per site
	reply := comm.EncodeFrame(comm.Frame{Type: comm.FrameReply, Session: 1, Seq: 1,
		Payload: bytes.Repeat([]byte{5}, payloadBytes)})
	// A worker that answers every step with the one pre-encoded reply,
	// so the server side allocates no reply of its own.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Length", strconv.Itoa(len(reply)))
		w.Write(reply)
	}))
	defer ts.Close()
	f := &Fleet{urls: []string{ts.URL}, rows: []int{0}}
	frame := comm.Frame{Type: comm.FrameRoundA, Session: 1, Seq: 1, Payload: []byte{1}}
	if _, err := f.exchange(0, frame); err != nil { // dials the connection
		t.Fatal(err)
	}
	runtime.GC() // a pooled buffer survives one GC in the victim cache
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := f.exchange(0, frame)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Payload) != payloadBytes {
		t.Fatalf("payload of %d bytes, want %d", len(rep.Payload), payloadBytes)
	}
	got, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(reply))*5/4
	if got > limit {
		t.Fatalf("one %d-byte exchange after a GC allocated %d bytes (%.2f×; want ≤ 1.25×)",
			len(reply), got, float64(got)/float64(len(reply)))
	}
	t.Logf("one %d-byte exchange after a GC: %d bytes allocated (%.2f×)",
		len(reply), got, float64(got)/float64(len(reply)))
}
