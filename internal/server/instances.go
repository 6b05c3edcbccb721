package server

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lowdimlp/internal/dataset"
)

// ErrUnknownInstance marks lookups of IDs the store does not hold —
// handlers use it to distinguish a gone/never-existed instance (404)
// from a malformed payload (400).
var ErrUnknownInstance = errors.New("unknown instance")

// instance is a chunk-uploaded row set awaiting a solve request. Rows
// land directly in a columnar store: appends are arena copies, and the
// eventual solve scans the arena with no per-row decode. Inputs too
// large to upload into memory go through dataset files (lpsolve) or a
// worker fleet instead.
type instance struct {
	mu   sync.Mutex
	kind string
	dim  int
	// ns is the owning tenant's namespace ("" = the anonymous
	// namespace when the gateway is off). Lookups from any other
	// namespace behave exactly as if the ID never existed.
	ns     string
	data   *dataset.Store // the uploaded rows
	sealed bool           // claimed by a job; further appends are rejected

	created time.Time
	// touched is the unix-nano time of the last Create/Append/Restore,
	// read lock-free by the idle sweeper and the list endpoint.
	touched atomic.Int64
	// nrows mirrors the row count for lock-free listing.
	nrows atomic.Int64
}

func (ins *instance) touch(now time.Time) { ins.touched.Store(now.UnixNano()) }

// InstanceInfo is one open upload as reported by List — the operator
// view behind GET /v1/instances.
type InstanceInfo struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`
	Dim  int    `json:"dim"`
	Rows int    `json:"rows"`
	// AgeMS and IdleMS are milliseconds since creation / last append.
	AgeMS  float64 `json:"age_ms"`
	IdleMS float64 `json:"idle_ms"`
}

// maxTombstones bounds the DELETE memory; beyond it the oldest
// tombstones are evicted (weakening only the rare resurrect guard for
// the evicted IDs).
const maxTombstones = 4096

// InstanceStore holds chunk-uploaded instances between the upload
// calls and the job that references them. Instances are single-use:
// submitting a job consumes the rows (zero-copy) and drops the entry.
// Uploads idle past the TTL are reclaimed by Sweep (driven by the
// Server), so abandoned uploads cannot wedge the slot limit; dropped
// IDs leave a tombstone so a Restore after a queue-full 503 cannot
// resurrect an instance the client deleted in between.
//
// Every entry lives in a tenant namespace (ns; "" when the gateway is
// off): Meta/Append/Take/Drop from the wrong namespace report
// ErrUnknownInstance — indistinguishable from an ID that never
// existed, so one tenant cannot even probe for another's uploads.
// Tombstones are namespace-scoped too: a DELETE can only tombstone
// (and a Restore only resurrect) within the deleting tenant's own
// namespace. Sweep and TTL semantics are namespace-blind — idle is
// idle whoever owns the upload.
type InstanceStore struct {
	mu     sync.Mutex
	nextID uint64
	byID   map[string]*instance
	max    int
	ttl    time.Duration
	tombs  map[string]time.Time // dropped IDs → drop time
}

// DefaultInstanceTTL is the idle eviction horizon when the Server
// config leaves it zero.
const DefaultInstanceTTL = 10 * time.Minute

// NewInstanceStore returns a store admitting up to max in-flight
// uploads (≤ 0 means 64) with the given idle TTL (0 means
// DefaultInstanceTTL; < 0 disables sweeping).
func NewInstanceStore(max int, ttl time.Duration) *InstanceStore {
	if max <= 0 {
		max = 64
	}
	if ttl == 0 {
		ttl = DefaultInstanceTTL
	}
	return &InstanceStore{
		byID:  make(map[string]*instance),
		max:   max,
		ttl:   ttl,
		tombs: make(map[string]time.Time),
	}
}

// tombKey scopes a tombstone to its namespace: a cross-tenant DELETE
// must never block another tenant's Restore of the same wire ID.
func tombKey(ns, id string) string { return ns + "\x00" + id }

// Create opens a new upload in namespace ns for the given kind/dim and
// returns its ID. The kind must be registered (its row width fixes the
// columnar layout). IDs stay globally sequential across namespaces —
// the namespace guards access, not the ID format.
func (s *InstanceStore) Create(ns, kind string, dim int) (string, error) {
	m, err := lookupModel(kind)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.byID) >= s.max {
		return "", fmt.Errorf("too many in-flight instances (limit %d)", s.max)
	}
	s.nextID++
	id := fmt.Sprintf("inst-%06d", s.nextID)
	now := time.Now()
	ins := &instance{ns: ns, kind: kind, dim: dim, data: dataset.NewStore(m.RowWidth(dim)), created: now}
	ins.touch(now)
	s.byID[id] = ins
	return id, nil
}

// Meta returns the kind and dimension of an open upload — what the
// append handler needs to validate and decode a chunk before taking
// the instance lock.
func (s *InstanceStore) Meta(ns, id string) (kind string, dim int, err error) {
	s.mu.Lock()
	ins, ok := s.byID[id]
	s.mu.Unlock()
	if !ok || ins.ns != ns {
		return "", 0, fmt.Errorf("%w %q", ErrUnknownInstance, id)
	}
	// kind, dim and ns are immutable after Create.
	return ins.kind, ins.dim, nil
}

// Append adds a batch of rows to an open upload. Row widths and
// kind-specific invariants are validated against the instance's
// registered kind. (The HTTP handler decodes JSON chunks straight into
// a columnar store and uses AppendChunk; this [][]float64 entry point
// serves library callers and tests.)
func (s *InstanceStore) Append(ns, id string, rows [][]float64) (total int, err error) {
	kind, dim, err := s.Meta(ns, id)
	if err != nil {
		return 0, err
	}
	m, err := lookupModel(kind)
	if err != nil {
		return 0, err
	}
	if err := validateRows(m, dim, rows); err != nil {
		return 0, err
	}
	chunk := dataset.NewStore(m.RowWidth(dim))
	chunk.Grow(len(rows))
	for _, row := range rows {
		chunk.AppendRow(row)
	}
	return s.AppendChunk(ns, id, chunk)
}

// AppendChunk appends an already-validated columnar chunk to an open
// upload: one arena copy, no per-row decode.
func (s *InstanceStore) AppendChunk(ns, id string, chunk *dataset.Store) (total int, err error) {
	s.mu.Lock()
	ins, ok := s.byID[id]
	s.mu.Unlock()
	if !ok || ins.ns != ns {
		return 0, fmt.Errorf("%w %q", ErrUnknownInstance, id)
	}
	ins.mu.Lock()
	defer ins.mu.Unlock()
	if ins.sealed {
		return 0, fmt.Errorf("instance %q already submitted", id)
	}
	if width := ins.data.Width(); chunk.Width() != width {
		return 0, fmt.Errorf("instance %q chunk width %d, want %d", id, chunk.Width(), width)
	}
	if ins.data.Rows()+chunk.Rows() > MaxInstanceRows {
		return 0, fmt.Errorf("instance %q would exceed %d rows", id, MaxInstanceRows)
	}
	ins.data.AppendValues(chunk.Values())
	ins.nrows.Store(int64(ins.data.Rows()))
	ins.touch(time.Now())
	return ins.data.Rows(), nil
}

// Take seals and removes the instance, returning its columnar store
// for the job that referenced it (zero-copy: the arena moves). The
// kind and dimension must match the claiming request; on mismatch the
// upload stays in the store so a corrected resubmission can still find
// it.
func (s *InstanceStore) Take(ns, id, kind string, dim int) (*dataset.Store, error) {
	s.mu.Lock()
	ins, ok := s.byID[id]
	if !ok || ins.ns != ns {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w %q", ErrUnknownInstance, id)
	}
	// kind, dim and ns are immutable after Create, so the mismatch
	// check needs no per-instance lock and the store lock is released
	// before waiting on ins.mu — a slow in-flight Append must not stall
	// the whole instance API.
	if ins.kind != kind || ins.dim != dim {
		s.mu.Unlock()
		return nil, fmt.Errorf("instance %q was uploaded as %s/dim=%d, requested as %s/dim=%d",
			id, ins.kind, ins.dim, kind, dim)
	}
	delete(s.byID, id)
	s.mu.Unlock()

	ins.mu.Lock()
	defer ins.mu.Unlock()
	ins.sealed = true
	return ins.data, nil
}

// Restore re-registers a taken store under its original ID after a
// Take whose job submission failed, so a retryable 503 does not
// destroy a chunk-uploaded instance. It bypasses the in-flight limit
// (the rows were already admitted once). A tombstoned ID — the client
// DELETEd the instance during the Take window — is not resurrected.
// A restored instance accepts both further solves and further appends.
func (s *InstanceStore) Restore(ns, id, kind string, dim int, data *dataset.Store) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dropped := s.tombs[tombKey(ns, id)]; dropped {
		return
	}
	now := time.Now()
	ins := &instance{ns: ns, kind: kind, dim: dim, data: data, created: now}
	ins.nrows.Store(int64(data.Rows()))
	ins.touch(now)
	s.byID[id] = ins
}

// Drop discards an upload and tombstones its ID — including IDs that
// are momentarily absent because a Take is in flight, so a subsequent
// Restore cannot resurrect what the client just deleted. Only IDs the
// store could actually have issued are tombstoned: otherwise a flood
// of DELETEs for made-up IDs would evict the genuine tombstones.
// Sealing closes the window where an in-flight Append to the
// just-deleted instance would report success for rows that are
// already gone.
func (s *InstanceStore) Drop(ns, id string) bool {
	s.mu.Lock()
	ins, ok := s.byID[id]
	if ok && ins.ns != ns {
		// Another tenant's upload: to this namespace the ID does not
		// exist, and no tombstone is laid — the owner's instance and a
		// future Restore of it are untouched.
		s.mu.Unlock()
		return false
	}
	delete(s.byID, id)
	if s.issuedLocked(id) {
		s.tombstoneLocked(tombKey(ns, id))
	}
	s.mu.Unlock()
	if ok {
		ins.mu.Lock()
		ins.sealed = true
		ins.mu.Unlock()
	}
	return ok
}

// issuedLocked reports whether id is one this store could have handed
// out (inst-<n> with n ≤ nextID). Caller holds s.mu.
func (s *InstanceStore) issuedLocked(id string) bool {
	num, ok := strings.CutPrefix(id, "inst-")
	if !ok {
		return false
	}
	n, err := strconv.ParseUint(num, 10, 64)
	return err == nil && n >= 1 && n <= s.nextID
}

// tombstoneLocked records a dropped ID, evicting the oldest entries
// beyond the cap. Caller holds s.mu.
func (s *InstanceStore) tombstoneLocked(id string) {
	if len(s.tombs) >= maxTombstones {
		oldest, oldestAt := "", time.Time{}
		for t, at := range s.tombs {
			if oldest == "" || at.Before(oldestAt) {
				oldest, oldestAt = t, at
			}
		}
		delete(s.tombs, oldest)
	}
	s.tombs[id] = time.Now()
}

// Len returns the number of open uploads.
func (s *InstanceStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byID)
}

// List snapshots namespace ns's open uploads, ordered by ID (creation
// order). A tenant only ever sees its own.
func (s *InstanceStore) List(ns string) []InstanceInfo {
	now := time.Now()
	s.mu.Lock()
	out := make([]InstanceInfo, 0, len(s.byID))
	for id, ins := range s.byID {
		if ins.ns != ns {
			continue
		}
		// A concurrent Append can stamp touched after our now was
		// taken; clamp so an actively-fed upload reads idle 0, not a
		// negative number.
		idle := now.UnixNano() - ins.touched.Load()
		if idle < 0 {
			idle = 0
		}
		out = append(out, InstanceInfo{
			ID:     id,
			Kind:   ins.kind,
			Dim:    ins.dim,
			Rows:   int(ins.nrows.Load()),
			AgeMS:  float64(now.Sub(ins.created)) / float64(time.Millisecond),
			IdleMS: float64(idle) / float64(time.Millisecond),
		})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Sweep reclaims uploads idle past the TTL and expires old
// tombstones, returning the number of evicted uploads. The Server
// runs it periodically; it is a no-op for ttl < 0.
//
// Eviction seals before it deletes: each candidate is re-checked and
// sealed under its own lock first, so an Append that raced in after
// the candidate scan (refreshing touched) keeps its instance, and an
// Append arriving after sealing fails loudly — a client is never told
// rows were stored on an upload the sweeper is reclaiming.
func (s *InstanceStore) Sweep() int {
	if s.ttl < 0 {
		return 0
	}
	now := time.Now()
	cutoff := now.Add(-s.ttl).UnixNano()
	type candidate struct {
		id  string
		ins *instance
	}
	var stale []candidate
	s.mu.Lock()
	for id, ins := range s.byID {
		if ins.touched.Load() < cutoff {
			stale = append(stale, candidate{id, ins})
		}
	}
	for id, at := range s.tombs {
		if now.Sub(at) > s.ttl {
			delete(s.tombs, id)
		}
	}
	s.mu.Unlock()
	var victims []candidate
	for _, c := range stale {
		c.ins.mu.Lock()
		if c.ins.touched.Load() < cutoff && !c.ins.sealed {
			c.ins.sealed = true
			victims = append(victims, c)
		}
		c.ins.mu.Unlock()
	}
	s.mu.Lock()
	for _, c := range victims {
		// Delete only the instance we sealed: a concurrent
		// Take→Restore may have re-registered the id with fresh rows.
		if s.byID[c.id] == c.ins {
			delete(s.byID, c.id)
		}
	}
	s.mu.Unlock()
	return len(victims)
}

// TTL returns the store's idle eviction horizon.
func (s *InstanceStore) TTL() time.Duration { return s.ttl }
