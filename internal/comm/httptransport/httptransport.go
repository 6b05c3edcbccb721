// Package httptransport is the networked comm.Transport: it carries
// the coordinator protocol's payload frames to a fleet of lpserved
// worker processes over HTTP, turning the in-process simulation of
// Theorem 2 into a real multi-process distributed solve.
//
// Each worker owns one dataset shard and exposes a single binary
// endpoint, POST /v1/worker/step, that accepts one enveloped frame
// (comm.Frame) per request and returns one reply frame. The payloads
// inside the envelopes are the exact bytes the in-process simulation
// meters, so a solve driven through this transport charges the
// comm.Meter identical totals — and, given the same seed, produces
// bit-identical bases and solutions (pinned by the server package's
// conformance test).
//
// Usage:
//
//	fleet, err := httptransport.Dial([]string{"host1:8080", "host2:8080"}, httptransport.Options{})
//	tr := fleet.Run()
//	defer tr.Close()
//	sol, stats, err := model.SolveTransport(fleet.Info().Dim, fleet.Info().Objective, tr, opt)
//
// Every exchange is bounded by Options.Timeout and every failure —
// timeout, refused connection, short or corrupt frame, mismatched
// session — surfaces as a *comm.TransportError naming the worker, so
// a dead worker yields a clean typed error, never a hang or a partial
// solution.
package httptransport

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"time"

	"lowdimlp/internal/comm"
)

// StepPath is the worker's binary protocol endpoint.
const StepPath = "/v1/worker/step"

// Options tune the transport client.
type Options struct {
	// Timeout bounds one request/reply exchange (0 = 60s). A worker
	// that stops answering fails the solve after this long instead of
	// hanging it.
	Timeout time.Duration
	// Client overrides the HTTP client (nil = http.DefaultTransport
	// with no client-level timeout; the per-exchange timeout above
	// still applies).
	Client *http.Client
	// Metrics, when non-nil, collects per-exchange latency and
	// error-class counters across every exchange this fleet performs
	// (a frontend shares one collector across solves so /metrics shows
	// cumulative fleet health).
	Metrics *Metrics
}

func (o Options) timeout() time.Duration {
	if o.Timeout <= 0 {
		return 60 * time.Second
	}
	return o.Timeout
}

func (o Options) client() *http.Client {
	if o.Client != nil {
		return o.Client
	}
	return http.DefaultClient
}

// Fleet is a dialed set of workers: their URLs, their shard
// descriptions, and the merged instance metadata. A Fleet is cheap
// and reusable; each solve takes its own Run.
type Fleet struct {
	urls []string
	opt  Options
	info comm.SiteInfo // merged: Rows is the fleet total
	rows []int         // per-worker shard rows
}

// SplitList parses a comma-separated worker list (the CLIs' -workers
// flag) into Dial's worker slice, trimming whitespace and skipping
// empty elements.
func SplitList(s string) []string {
	var out []string
	for _, w := range strings.Split(s, ",") {
		if w = strings.TrimSpace(w); w != "" {
			out = append(out, w)
		}
	}
	return out
}

// Dial contacts every worker at once, fetches its shard description,
// and verifies the fleet is coherent: every worker must hold the same
// kind, dimension, width and objective (they are shards of one
// instance). The error is the lowest-index worker's, whether it failed
// to answer or answered incoherently. Worker i becomes site i of every
// Run — list workers in shard order to match an in-process solve over
// the same sharded dataset.
func Dial(workers []string, opt Options) (*Fleet, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("httptransport: no workers")
	}
	f := &Fleet{opt: opt, rows: make([]int, len(workers))}
	for i, w := range workers {
		u := strings.TrimRight(strings.TrimSpace(w), "/")
		if u == "" {
			return nil, fmt.Errorf("httptransport: empty worker address at position %d", i)
		}
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		f.urls = append(f.urls, u)
	}
	infos := make([]*comm.SiteInfo, len(f.urls))
	err := comm.EachSite(len(f.urls), func(i int) error {
		rep, err := f.exchange(i, comm.Frame{Type: comm.FrameInfo, Seq: uint64(i)})
		if err != nil {
			return err
		}
		info, err := comm.DecodeSiteInfo(rep.Payload)
		if err != nil {
			return &comm.TransportError{Site: i, Type: comm.FrameInfo, Err: err}
		}
		infos[i] = &info
		return nil
	})
	for i, info := range infos {
		if info == nil {
			return nil, err // worker i is the lowest that failed
		}
		f.rows[i] = info.Rows
		if i == 0 {
			f.info = *info
			continue
		}
		if info.Kind != f.info.Kind || info.Dim != f.info.Dim || info.Width != f.info.Width ||
			!sameObjective(info.Objective, f.info.Objective) {
			return nil, fmt.Errorf("httptransport: worker %s holds %s/dim=%d/width=%d (objective %v), worker %s holds %s/dim=%d/width=%d (objective %v) — not shards of one instance",
				f.urls[0], f.info.Kind, f.info.Dim, f.info.Width, f.info.Objective,
				f.urls[i], info.Kind, info.Dim, info.Width, info.Objective)
		}
		f.info.Rows += info.Rows
	}
	return f, nil
}

// sameObjective compares objective rows bit for bit.
func sameObjective(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Info returns the merged instance metadata (Rows is the fleet
// total) — what a coordinator needs to build the problem.
func (f *Fleet) Info() comm.SiteInfo { return f.info }

// Workers returns the fleet size.
func (f *Fleet) Workers() int { return len(f.urls) }

// SiteRows returns worker i's shard row count.
func (f *Fleet) SiteRows(i int) int { return f.rows[i] }

// Run returns a fresh Transport for one solve. Begin opens a protocol
// session on every worker; Close releases them.
func (f *Fleet) Run() comm.Transport {
	return &run{
		fleet:    f,
		sessions: make([]uint64, len(f.urls)),
		seqs:     make([]uint64, len(f.urls)),
	}
}

// run is one solve's worth of per-worker sessions. RoundTrip may be
// called concurrently for distinct sites (each has its own session
// and sequence counter), never for the same site — the Transport
// contract.
type run struct {
	fleet    *Fleet
	sessions []uint64
	seqs     []uint64
	mu       sync.Mutex // guards begun/closed transitions
	begun    bool
	closed   bool
}

func (r *run) Sites() int { return len(r.fleet.urls) }

func (r *run) SiteRows(i int) int { return r.fleet.rows[i] }

// Begin opens the protocol session on every worker at once,
// delivering the run parameters.
func (r *run) Begin(seed uint64, mult float64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("httptransport: Begin on a closed run")
	}
	if r.begun {
		return fmt.Errorf("httptransport: Begin called twice")
	}
	err := comm.EachSite(len(r.fleet.urls), func(i int) error {
		payload := comm.AppendBeginPayload(nil, seed, i, mult)
		rep, err := r.fleet.exchange(i, comm.Frame{Type: comm.FrameBegin, Seq: r.seqs[i], Payload: payload})
		if err != nil {
			return err
		}
		if rep.Session == 0 {
			return &comm.TransportError{Site: i, Type: comm.FrameBegin,
				Err: fmt.Errorf("%w: begin reply without a session", comm.ErrProtocol)}
		}
		buf := comm.FromBytes(rep.Payload)
		rows, err := buf.Uvarint()
		if err != nil || buf.Remaining() != 0 {
			return &comm.TransportError{Site: i, Type: comm.FrameBegin,
				Err: fmt.Errorf("%w: bad begin reply payload", comm.ErrProtocol)}
		}
		if int(rows) != r.fleet.rows[i] {
			return &comm.TransportError{Site: i, Type: comm.FrameBegin,
				Err: fmt.Errorf("%w: worker reports %d rows, dial saw %d — shard changed underneath the fleet", comm.ErrProtocol, rows, r.fleet.rows[i])}
		}
		r.sessions[i] = rep.Session
		return nil
	})
	if err != nil {
		return err
	}
	r.begun = true
	return nil
}

// RoundTrip delivers one protocol payload to worker `site` and
// returns the reply payload.
func (r *run) RoundTrip(site int, typ comm.FrameType, payload []byte) ([]byte, error) {
	r.mu.Lock()
	begun, closed := r.begun, r.closed
	r.mu.Unlock()
	if closed {
		return nil, &comm.TransportError{Site: site, Type: typ,
			Err: fmt.Errorf("httptransport: round trip on a closed run")}
	}
	if !begun {
		return nil, &comm.TransportError{Site: site, Type: typ,
			Err: fmt.Errorf("httptransport: round trip before Begin")}
	}
	r.seqs[site]++
	rep, err := r.fleet.exchange(site, comm.Frame{
		Type: typ, Session: r.sessions[site], Seq: r.seqs[site], Payload: payload,
	})
	if err != nil {
		return nil, err
	}
	if rep.Session != r.sessions[site] || rep.Seq != r.seqs[site] {
		return nil, &comm.TransportError{Site: site, Type: typ,
			Err: fmt.Errorf("%w: reply for session %d seq %d, want session %d seq %d",
				comm.ErrProtocol, rep.Session, rep.Seq, r.sessions[site], r.seqs[site])}
	}
	return rep.Payload, nil
}

// Close releases the workers' sessions at once, best-effort: a worker
// that is already gone stays gone, and its session TTL reclaims the
// state.
// End frames use a short deadline of their own — Close often runs
// right after a RoundTrip failed on a hung worker, and waiting the
// full exchange timeout again per dead worker would double the time
// to surface the typed error the caller is about to report.
func (r *run) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	deadline := r.fleet.opt.timeout()
	if deadline > 2*time.Second {
		deadline = 2 * time.Second
	}
	comm.EachSite(len(r.sessions), func(i int) error {
		if r.sessions[i] == 0 {
			return nil
		}
		r.seqs[i]++
		r.fleet.exchangeTimeout(i, comm.Frame{Type: comm.FrameEnd, Session: r.sessions[i], Seq: r.seqs[i]}, deadline)
		r.sessions[i] = 0
		return nil
	})
	return nil
}

// bufPool recycles the per-exchange scratch buffers — the encoded
// request frame, and the body of a reply whose length the worker did
// not declare (an error, or a worker that sends no Content-Length).
// The coordinator protocol performs thousands of step exchanges per
// solve and the frames are small, so without pooling the encode and
// the body read dominate the client's steady-state allocation profile
// (TestExchangeAllocations pins the pooled cost). Buffers grow to a
// solve's working frame size once and are reused for its lifetime.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// readAll reads r to EOF into bp's backing array, growing it as needed.
// The result aliases *bp, which keeps the grown capacity for the next
// exchange — callers must copy anything they retain past putting the
// buffer back.
func readAll(r io.Reader, bp *[]byte) ([]byte, error) {
	buf := (*bp)[:0]
	if cap(buf) == 0 {
		buf = make([]byte, 0, 4096)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		*bp = buf
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// exchange POSTs one frame to worker i's step endpoint and decodes
// the reply frame, enforcing the per-exchange timeout and translating
// every failure into a *comm.TransportError.
func (f *Fleet) exchange(i int, frame comm.Frame) (comm.Frame, error) {
	return f.exchangeTimeout(i, frame, f.opt.timeout())
}

// exchangeTimeout is exchange with an explicit deadline.
func (f *Fleet) exchangeTimeout(i int, frame comm.Frame, timeout time.Duration) (rep comm.Frame, err error) {
	start := time.Now()
	defer func() { f.opt.Metrics.observe(time.Since(start), err) }()
	fail := func(err error) (comm.Frame, error) {
		return comm.Frame{}, &comm.TransportError{Site: i, Type: frame.Type, Err: err}
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	reqBuf := bufPool.Get().(*[]byte)
	*reqBuf = comm.AppendFrame((*reqBuf)[:0], frame)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		f.urls[i]+StepPath, bytes.NewReader(*reqBuf))
	if err != nil {
		bufPool.Put(reqBuf)
		return fail(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := f.opt.client().Do(req)
	if err != nil {
		// Deliberately NOT pooled: on some Do error paths the transport's
		// write goroutine can still be draining the request body, so the
		// buffer is abandoned to the GC rather than risked on reuse.
		// Errors are rare; the cost is one dropped buffer.
		return fail(err)
	}
	bufPool.Put(reqBuf)
	defer resp.Body.Close()
	const maxBody = comm.MaxFramePayload + 64
	if resp.StatusCode == http.StatusOK && resp.ContentLength >= 0 {
		// A reply of declared length (the worker sets it on every step
		// reply) is read into one buffer of exactly that size, and the
		// decoded payload keeps aliasing it: no growth chain, no detach
		// copy, whatever the pool holds.
		if resp.ContentLength > maxBody {
			return fail(fmt.Errorf("%w: reply of %d bytes exceeds the %d-byte frame limit",
				comm.ErrProtocol, resp.ContentLength, maxBody))
		}
		body := make([]byte, resp.ContentLength)
		if _, err := io.ReadFull(resp.Body, body); err != nil {
			return fail(err)
		}
		if rep, err = decodeReply(body); err != nil {
			return fail(err)
		}
		return rep, nil
	}
	bodyBuf := bufPool.Get().(*[]byte)
	defer bufPool.Put(bodyBuf)
	body, err := readAll(io.LimitReader(resp.Body, maxBody), bodyBuf)
	if err != nil {
		return fail(err)
	}
	if resp.StatusCode != http.StatusOK {
		msg := strings.TrimSpace(string(body))
		if len(msg) > 512 {
			msg = msg[:512] + "…"
		}
		return fail(fmt.Errorf("worker %s: %w", f.urls[i],
			&comm.RemoteError{Status: resp.StatusCode, Msg: msg}))
	}
	if rep, err = decodeReply(body); err != nil {
		return fail(err)
	}
	// The decoded payload aliases the pooled body buffer; detach it with
	// one exact-size copy — RoundTrip's callers retain the payload well
	// past this exchange.
	rep.Payload = append([]byte(nil), rep.Payload...)
	return rep, nil
}

// decodeReply decodes a 200 reply body into its reply frame; the
// payload aliases body.
func decodeReply(body []byte) (comm.Frame, error) {
	rep, err := comm.DecodeFrameStrict(body)
	if err == nil && rep.Type != comm.FrameReply {
		err = fmt.Errorf("%w: reply frame type %d", comm.ErrProtocol, rep.Type)
	}
	return rep, err
}
