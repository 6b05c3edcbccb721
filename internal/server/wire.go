// Package server is the lpserved subsystem: an HTTP/JSON solve
// service over the lowdimlp model registry. It accepts instances of
// any registered problem kind (inline, chunk-uploaded, or generated
// on the fly), runs them in a chosen computation model on a bounded
// worker pool with a job queue, caches results by instance digest,
// and exposes health and metrics endpoints. The handlers are fully
// registry-driven: registering a kind with internal/engine makes it
// servable here with no server changes.
//
// # Endpoints
//
//	POST /v1/solve              solve synchronously (small instances)
//	POST /v1/jobs               enqueue a job; returns its id
//	GET  /v1/jobs/{id}          poll job status / result
//	GET  /v1/models             list registered kinds and backends
//	POST /v1/instances          create a chunk-upload instance
//	POST /v1/instances/{id}/rows  append a batch of rows
//	GET  /v1/instances          list open uploads (operator view)
//	DELETE /v1/instances/{id}   drop an uploaded instance
//	GET  /v1/traces             recent execution traces (newest first)
//	GET  /healthz               liveness
//	GET  /metrics               Prometheus-style text metrics
package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"lowdimlp/internal/dataset"
	"lowdimlp/internal/engine"
	"lowdimlp/internal/gateway"
	"lowdimlp/internal/obs"
)

// Problem kinds and computation models accepted on the wire. The kind
// constants are conveniences for tests and clients; the authoritative
// list is the engine registry.
const (
	KindLP  = "lp"
	KindSVM = "svm"
	KindMEB = "meb"
	KindSEA = "sea"

	ModelRAM         = engine.BackendRAM
	ModelStream      = engine.BackendStream
	ModelCoordinator = engine.BackendCoordinator
	ModelMPC         = engine.BackendMPC
)

// GenerateSpec asks the server to synthesize an instance with the
// kind's registered generator families instead of shipping rows — the
// load-testing path. See GET /v1/models for the family catalog.
type GenerateSpec struct {
	// Family selects the generator (empty = the kind's default).
	Family string `json:"family"`
	// N is the instance size (constraints / examples / points).
	N int `json:"n"`
	// D is the ambient dimension (default 3; for chebyshev D is the
	// polynomial degree + 2 and the degree is D−2).
	D int `json:"d,omitempty"`
	// Seed drives the generator.
	Seed uint64 `json:"seed,omitempty"`
	// Margin is the planted SVM margin (default 0.5).
	Margin float64 `json:"margin,omitempty"`
	// Noise is the sample noise / shell thickness (default 0.1).
	Noise float64 `json:"noise,omitempty"`
}

func (g *GenerateSpec) params() engine.GenParams {
	return engine.GenParams{N: g.N, D: g.D, Seed: g.Seed, Margin: g.Margin, Noise: g.Noise}
}

// SolveRequest is the body of POST /v1/solve and POST /v1/jobs.
// Exactly one of Rows, InstanceID or Generate supplies the instance.
type SolveRequest struct {
	// Kind is the problem kind (any registered kind; see /v1/models).
	Kind string `json:"kind"`
	// Model is the computation model: ram, stream, coordinator or mpc.
	Model string `json:"model"`
	// Dim is the ambient dimension d.
	Dim int `json:"dim"`
	// Objective is the objective row for kinds that have one (lp;
	// len = Dim).
	Objective []float64 `json:"objective,omitempty"`
	// Rows carries the instance inline, one row per constraint /
	// example / point, in the lpsolve text-format layout: lp rows are
	// a_1…a_d b, svm rows are x_1…x_d y, meb/sea rows are x_1…x_d.
	Rows [][]float64 `json:"rows,omitempty"`
	// InstanceID references rows previously chunk-uploaded through
	// POST /v1/instances.
	InstanceID string `json:"instance_id,omitempty"`
	// Generate synthesizes the instance server-side.
	Generate *GenerateSpec `json:"generate,omitempty"`
	// Fleet asks the service to solve over its configured worker fleet
	// (lpserved -workers): the instance lives pre-sharded on the
	// workers, so fleet requests carry no rows — kind, dimension and
	// objective come from the workers' shard headers. The model is
	// coordinator (the only backend with a networked substrate) and
	// may be omitted.
	Fleet bool `json:"fleet,omitempty"`
	// Options tune the solver.
	Options engine.Options `json:"options,omitempty"`
	// Trace asks the service to record an execution trace of this solve
	// (phases, per-round site exchanges, error annotations — see
	// internal/obs). The trace comes back on the job status and lands
	// in the service's bounded trace ring (GET /v1/traces). Tracing never
	// changes the answer; requests that differ only in Trace share a
	// cache entry.
	Trace bool `json:"trace,omitempty"`

	// rawRows holds the JSON of an inline rows array, its grammar
	// checked and its rows counted (rawN) but no number converted. The
	// HTTP handlers deliberately do not convert it: materialization of
	// inline bodies happens on the worker pool (materialize), so a
	// flood of large uploads is bounded by Workers, not by however
	// many handler goroutines are in flight.
	rawRows []byte
	rawN    int
	// data is the materialized columnar instance: set by the worker
	// (from rawRows, Rows or Generate) or at decode time for
	// chunk-uploaded instances (InstanceStore.Take). It is always an
	// in-memory store; inputs too large for memory are solved from
	// dataset files or by a worker fleet, not through this request.
	data *dataset.Store
	// trace is the live recorder for Trace requests, attached by
	// Manager.run before the solve and read back after. Nil when
	// tracing is off — every instrumentation call no-ops at zero cost.
	trace *obs.Trace
	// rowsKeyMemo memoizes instanceDigest: the result-cache key and the
	// warm key hash the same instance, and re-hashing a multi-million-row
	// store for each would multiply the keying cost. The memo also pins generated instances to their
	// pre-materialization (spec-based) digest — see instanceDigest.
	rowsKeyMemo string
	// tenant is the authenticated tenant this request arrived under,
	// attached at decode time from the gateway's context value. Nil
	// when the gateway is off — the anonymous namespace.
	tenant *gateway.Tenant
}

// ns is the request's tenant namespace ("" when the gateway is off).
func (r *SolveRequest) ns() string {
	if r.tenant != nil {
		return r.tenant.ID
	}
	return ""
}

// UnmarshalJSON decodes the request envelope as the handlers do
// (decodeBody), then copies the rows bytes out of b, which the caller
// may reuse once it returns. Client-side marshalling is untouched: Rows
// marshals normally.
func (r *SolveRequest) UnmarshalJSON(b []byte) error {
	if err := r.decodeBody(b); err != nil {
		return err
	}
	r.rawRows = bytes.Clone(r.rawRows)
	return nil
}

// decodeBody decodes a request body through decodeRowsBody: the rows
// array is checked, counted and kept raw (see rawRows) as a slice of
// body, so the caller hands body over and must not reuse it.
func (r *SolveRequest) decodeBody(body []byte) error {
	type envelope SolveRequest // method-free alias: no recursion
	raw, n, err := decodeRowsBody(body, (*envelope)(r))
	if err != nil {
		return err
	}
	r.rawRows, r.rawN = raw, n
	return nil
}

// decodeRowsBody decodes a JSON body whose "rows" member is an array of
// arrays of numbers. The rows member is cut out, so encoding/json never
// reads it: its grammar is checked in one pass (scanRowsJSON, without
// converting a number), and the rest of the body is decoded into v by
// json.Unmarshal. Members match "rows" the way encoding/json matches
// keys to a field: with escapes decoded, exactly or case-folded, the
// last one winning. It returns the rows array's bytes (nil when it is
// absent, null or empty) and its row count.
func decodeRowsBody(body []byte, v any) (rows []byte, n int, err error) {
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		// Not an object: encoding/json decides (null decodes to
		// nothing; anything else is an error).
		return nil, 0, json.Unmarshal(body, v)
	}
	rest := []byte{'{'}
	i = skipSpace(body, i+1)
	more := i == len(body) || body[i] != '}'
	if !more {
		i++ // {}
	}
	for more {
		start := i
		keyEnd, err := stringEnd(body, i)
		if err != nil {
			return nil, 0, err
		}
		isRows, err := rowsKey(body[start:keyEnd])
		if err != nil {
			return nil, 0, err
		}
		i = skipSpace(body, keyEnd)
		if i == len(body) || body[i] != ':' {
			return nil, 0, syntaxError(body, i, "':' after an object key")
		}
		i = skipSpace(body, i+1)
		var end int
		switch {
		case !isRows:
			if end, err = valueEnd(body, i); err != nil {
				return nil, 0, err
			}
			if len(rest) > 1 {
				rest = append(rest, ',')
			}
			rest = append(rest, body[start:end]...)
		case bytes.HasPrefix(body[i:], []byte("null")):
			end, rows, n = i+4, nil, 0
		default:
			if end, n, err = scanRowsJSON(body, i, nil); err != nil {
				return nil, 0, err
			}
			rows = body[i:end]
			if n == 0 {
				rows = nil // absent and empty mean the same: no inline rows
			}
		}
		i = skipSpace(body, end)
		if i == len(body) || body[i] != ',' && body[i] != '}' {
			return nil, 0, syntaxError(body, i, "',' or '}' after an object member")
		}
		more = body[i] == ','
		i = skipSpace(body, i+1)
	}
	if i = skipSpace(body, i); i != len(body) {
		return nil, 0, syntaxError(body, i, "nothing after the top-level object")
	}
	if err := json.Unmarshal(append(rest, '}'), v); err != nil {
		return nil, 0, err
	}
	return rows, n, nil
}

// rowsKey reports whether the quoted object key names the rows member.
func rowsKey(quoted []byte) (bool, error) {
	key := quoted[1 : len(quoted)-1]
	if bytes.IndexByte(key, '\\') < 0 {
		return bytes.EqualFold(key, []byte("rows")), nil
	}
	var s string
	if err := json.Unmarshal(quoted, &s); err != nil {
		return false, err
	}
	return strings.EqualFold(s, "rows"), nil
}

// stringEnd returns the offset just past the JSON string that starts
// at b[i], skipping escaped characters. encoding/json checks the
// string itself.
func stringEnd(b []byte, i int) (int, error) {
	if i >= len(b) || b[i] != '"' {
		return 0, syntaxError(b, i, "a string")
	}
	for i++; i < len(b); i++ {
		switch b[i] {
		case '\\':
			i++
		case '"':
			return i + 1, nil
		}
	}
	return 0, syntaxError(b, len(b), "the end of a string")
}

// valueEnd returns the offset just past the JSON value that starts at
// b[i]: a string, an object or array (brackets matched, strings
// skipped) or a run of literal or number bytes. It checks only what it
// needs to find the end; encoding/json decodes the value and checks
// all of it.
func valueEnd(b []byte, i int) (int, error) {
	if i >= len(b) {
		return 0, syntaxError(b, i, "a value")
	}
	switch b[i] {
	case '"':
		return stringEnd(b, i)
	case '{', '[':
		depth := 0
		for i < len(b) {
			switch b[i] {
			case '"':
				end, err := stringEnd(b, i)
				if err != nil {
					return 0, err
				}
				i = end
				continue
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1, nil
				}
			}
			i++
		}
		return 0, syntaxError(b, i, "the end of an object or array")
	}
	j := i
	for j < len(b) && (b[j] == '-' || b[j] == '+' || b[j] == '.' ||
		'0' <= b[j] && b[j] <= '9' || 'a' <= b[j] && b[j] <= 'z' || 'A' <= b[j] && b[j] <= 'Z') {
		j++
	}
	if j == i {
		return 0, syntaxError(b, i, "a value")
	}
	return j, nil
}

// syntaxError reports that b[i] is not what a JSON object needs there.
func syntaxError(b []byte, i int, want string) error {
	return fmt.Errorf("offset %d: want %s, got %s", i, want, found(b, i))
}

// model returns the registry entry for the request's kind. It is only
// valid after Validate normalized the kind.
func (r *SolveRequest) model() (engine.Model, error) { return lookupModel(r.Kind) }

// lookupModel resolves a normalized kind in the engine registry.
func lookupModel(kind string) (engine.Model, error) {
	m, ok := engine.Lookup(kind)
	if !ok {
		return nil, fmt.Errorf("unknown kind %q (want one of %s)", kind, strings.Join(engine.Kinds(), ", "))
	}
	return m, nil
}

// SolveResult is the rendered solution: a flat JSON object whose
// fields are the kind's registered solution components (lp: x, value;
// svm: u, norm2, margin; meb: center, radius; sea: center, inner,
// outer, width). Use Scalar/Vector to read fields by name.
type SolveResult = engine.Solution

// StatsPayload carries the resource stats of whichever model ran.
type StatsPayload = engine.Stats

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// JobStatus is the response of POST /v1/jobs and GET /v1/jobs/{id}.
type JobStatus struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Kind   string `json:"kind"`
	Model  string `json:"model"`
	N      int    `json:"n"`
	Cached bool   `json:"cached,omitempty"`
	// Warm marks a warm-started solve: the answer came from
	// re-verifying a cached basis in one scan rather than re-solving
	// (bit-identical to the cold solve that produced the basis).
	Warm bool `json:"warm,omitempty"`
	// Coalesced marks a job that copied an identical in-flight (or
	// in-batch) job's result instead of re-running the solve.
	Coalesced bool `json:"coalesced,omitempty"`
	// ElapsedMS is wall-clock solve time (done/failed jobs only).
	ElapsedMS float64       `json:"elapsed_ms,omitempty"`
	Result    *SolveResult  `json:"result,omitempty"`
	Stats     *StatsPayload `json:"stats,omitempty"`
	// Trace is the recorded execution trace, present on terminal jobs
	// that asked for one ("trace": true or ?trace=1).
	Trace *obs.TraceData `json:"trace,omitempty"`
	Error string         `json:"error,omitempty"`
}

// errorBody is the uniform error response.
type errorBody struct {
	Error string `json:"error"`
}

// MaxDim bounds accepted dimensions: the solvers are exact but
// exponential in d, so the service refuses instances it could never
// finish.
const MaxDim = 16

// MaxGenerateN bounds server-side instance generation.
const MaxGenerateN = 5_000_000

// MaxInstanceRows bounds a chunk-uploaded instance's total size (the
// per-request body limit alone would let repeated appends grow one
// instance without bound).
const MaxInstanceRows = 5_000_000

// Validate checks a request for structural errors and normalizes the
// kind/model spelling. It checks the objective and a generate spec;
// rows are checked when they are materialized, and InstanceID
// resolution happens later, at submit time.
func (r *SolveRequest) Validate() error {
	r.Kind = strings.ToLower(strings.TrimSpace(r.Kind))
	r.Model = strings.ToLower(strings.TrimSpace(r.Model))
	if r.Fleet {
		// Fleet solves: the workers hold the instance, so no local
		// material is accepted and the kind (if stated at all) is just
		// an expectation checked against the fleet's shard headers.
		if r.Model == "" {
			r.Model = ModelCoordinator
		}
		if r.Model != ModelCoordinator {
			return fmt.Errorf("fleet solves run on the coordinator model, not %q", r.Model)
		}
		if len(r.Rows) > 0 || len(r.rawRows) > 0 || r.InstanceID != "" || r.Generate != nil {
			return fmt.Errorf("fleet solves take no rows, instance_id or generate — the workers hold the instance")
		}
		if r.Kind != "" {
			if _, err := r.model(); err != nil {
				return err
			}
		}
		return nil
	}
	if r.Model == "" {
		r.Model = ModelRAM
	}
	if r.Kind == "" {
		return fmt.Errorf("missing kind (want one of %s)", strings.Join(engine.Kinds(), ", "))
	}
	m, err := r.model()
	if err != nil {
		return err
	}
	if !engine.ValidBackend(r.Model) {
		return fmt.Errorf("unknown model %q (want %s)", r.Model, strings.Join(engine.Backends(), ", "))
	}
	sources := 0
	if len(r.Rows) > 0 || len(r.rawRows) > 0 {
		sources++
	}
	if r.InstanceID != "" {
		sources++
	}
	if r.Generate != nil {
		sources++
	}
	if sources > 1 {
		return fmt.Errorf("rows, instance_id and generate are mutually exclusive")
	}
	if r.Generate != nil {
		return r.validateGenerate(m)
	}
	if r.Dim < 1 {
		return fmt.Errorf("dim must be ≥ 1, got %d", r.Dim)
	}
	if r.Dim > MaxDim {
		return fmt.Errorf("dim %d exceeds the service limit %d", r.Dim, MaxDim)
	}
	// Rows are checked where they become a columnar store: inline and
	// in-process rows on the worker pool (materialize), uploads at
	// append time.
	return engine.CheckObjective(m, r.Dim, r.Objective)
}

func (r *SolveRequest) validateGenerate(m engine.Model) error {
	g := r.Generate
	g.Family = strings.ToLower(strings.TrimSpace(g.Family))
	if g.N < 1 {
		return fmt.Errorf("generate.n must be ≥ 1, got %d", g.N)
	}
	if g.N > MaxGenerateN {
		return fmt.Errorf("generate.n %d exceeds the service limit %d", g.N, MaxGenerateN)
	}
	if g.D == 0 {
		g.D = 3
	}
	if g.D < 1 || g.D > MaxDim {
		return fmt.Errorf("generate.d must be in [1, %d], got %d", MaxDim, g.D)
	}
	if g.Family == "" {
		g.Family = m.Families()[0]
	}
	return m.CheckGenerate(g.Family, g.params())
}

// digestWriters returns the little-endian hash helpers shared by the
// request keys, so every key encodes numbers identically.
func digestWriters(h io.Writer) (putU func(uint64), putF func(float64)) {
	buf := make([]byte, 8)
	putU = func(v uint64) {
		binary.LittleEndian.PutUint64(buf, v)
		h.Write(buf)
	}
	putF = func(v float64) { putU(math.Float64bits(v)) }
	return putU, putF
}

// instanceDigest identifies the instance material alone — no model, no
// options, no objective. Generated instances hash their spec (family,
// n, d, seed, margin, noise): the generator is deterministic, so the
// spec names the rows without paying materialization. Everything else
// hashes the rows themselves, row-major, straight off the columnar
// arena. Memoized: the cache key and the warm key reuse one hash of
// the rows.
func (r *SolveRequest) instanceDigest() string {
	if r.rowsKeyMemo != "" {
		return r.rowsKeyMemo
	}
	h := sha256.New()
	putU, putF := digestWriters(h)
	switch {
	case r.Generate != nil:
		g := r.Generate
		h.Write([]byte("gen\x00"))
		h.Write([]byte(g.Family))
		h.Write([]byte{0})
		putU(uint64(g.N))
		putU(uint64(g.D))
		putU(g.Seed)
		putF(g.Margin)
		putF(g.Noise)
	case r.data != nil:
		putU(uint64(r.data.Rows()))
		for _, v := range r.data.Values() {
			putF(v)
		}
	default:
		putU(uint64(len(r.Rows)))
		for _, row := range r.Rows {
			for _, v := range row {
				putF(v)
			}
		}
	}
	r.rowsKeyMemo = hex.EncodeToString(h.Sum(nil))
	return r.rowsKeyMemo
}

// Digest is the result-cache key: a SHA-256 over a canonical binary
// encoding of everything that determines the answer — kind, model, the
// options the model actually reads (engine.Canonical zeroes the rest,
// so e.g. a ram solve hits the same entry whatever ?k= says),
// dimension, objective and the instance digest. Requests that would
// recompute the same solution share a digest. The instance part is
// memoized — generated instances therefore keep their spec-based
// digest before AND after materialization, which is what lets a hot
// ?generate= workload hit the cache without synthesizing the instance
// first.
func (r *SolveRequest) Digest() string {
	h := sha256.New()
	putU, putF := digestWriters(h)
	h.Write([]byte(r.Kind))
	h.Write([]byte{0})
	h.Write([]byte(r.Model))
	h.Write([]byte{0})
	o := engine.Canonical(r.Model, r.Options)
	putU(uint64(o.R))
	putF(o.Delta)
	putU(o.Seed)
	if o.MonteCarlo {
		putU(1)
	} else {
		putU(0)
	}
	putF(o.NetConst)
	putU(uint64(o.K))
	putU(uint64(r.Dim))
	putU(uint64(len(r.Objective)))
	for _, v := range r.Objective {
		putF(v)
	}
	h.Write([]byte(r.instanceDigest()))
	return hex.EncodeToString(h.Sum(nil))
}

// warmKey keys the warm-start basis cache: instance identity plus the
// geometry (kind, dim, objective) plus the solver seed — and nothing
// else. Options that change how a solve runs but not what instance it
// solves (model, r, delta, k, …) are deliberately excluded, so a
// ?delta= or ?r= overlay re-solve of the same instance warm-starts
// from the basis the first solve left behind. Keying by instance
// digest is also the soundness precondition of VerifyBasisSource: a
// cached basis is only ever verified against the exact rows it was
// computed from.
func (r *SolveRequest) warmKey() string {
	h := sha256.New()
	putU, putF := digestWriters(h)
	h.Write([]byte("warm\x00"))
	h.Write([]byte(r.Kind))
	h.Write([]byte{0})
	putU(uint64(r.Dim))
	putU(uint64(len(r.Objective)))
	for _, v := range r.Objective {
		putF(v)
	}
	putU(r.Options.Seed)
	h.Write([]byte(r.instanceDigest()))
	return hex.EncodeToString(h.Sum(nil))
}
