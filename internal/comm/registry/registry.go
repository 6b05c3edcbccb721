// Package registry is the coordinator-side worker registry — the
// membership layer that makes an lpserved fleet elastic. The PR 5
// cluster was a static `-workers host1,host2,...` list: the set of
// sites was fixed at process start and one dead worker failed every
// fleet solve with a typed error. The registry decouples solve
// topology from physical membership:
//
//   - workers register themselves (POST /v1/fleet/register on the
//     frontend) and keep registering on a heartbeat interval; a
//     worker whose heartbeat lapses past the TTL is marked down,
//   - a solve asks the registry for the live membership at the moment
//     it begins (LiveWorkers), so workers can join and leave between
//     solves without any coordinator restart,
//   - a solve that loses a worker mid-protocol reports the failure
//     (ReportFailure) and retries against the survivors — the
//     two-round protocol makes retry-from-round-start nearly free
//     (see engine.SolveFleetElastic and DESIGN.md §9),
//   - draining workers (POST /v1/worker/drain, or SIGTERM) announce
//     departure first, so scale-down never loses a solve.
//
// The static `-workers` list is now just the special case of a
// registry seeded with members that never expire (SeedStatic): the
// same liveness, failure-reporting and retry machinery applies, the
// membership merely has no dynamic joins.
//
// Every membership change bumps an epoch (and a monotone change
// counter) so operators — and the lpstat doctor — can see that the
// fleet a solve ran on is not the fleet that was deployed.
package registry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// State is a member's liveness state.
type State int

const (
	// StateLive: the member answers heartbeats (or is static) and is
	// eligible for solves.
	StateLive State = iota
	// StateDraining: the member announced departure — it finishes its
	// in-flight sessions but must not join new solves.
	StateDraining
	// StateDown: the member's heartbeat lapsed or a solve reported a
	// failed exchange with it. It is kept (not deleted) so operators
	// and the doctor can name what was lost; a re-register revives it.
	StateDown
)

// String renders the state for JSON and boards.
func (s State) String() string {
	switch s {
	case StateDraining:
		return "draining"
	case StateDown:
		return "down"
	default:
		return "live"
	}
}

// Member is one registered worker.
type Member struct {
	// URL is the worker's base URL (normalized: scheme added, no
	// trailing slash) — the registry key and the dial address.
	URL string
	// Kind/Dim/Rows describe the shard the worker owns, from its
	// registration (zero-valued for static members until they serve).
	Kind string
	Dim  int
	Rows int
	// Static marks a member seeded from the -workers list: it never
	// heartbeats and never expires, but can still be reported down.
	Static bool
	// State is the liveness state.
	State State
	// LastSeen is the last registration/heartbeat time (seed time for
	// static members).
	LastSeen time.Time
	// LastErr records why the member went down ("" while live).
	LastErr string
}

// DefaultTTL is the heartbeat horizon: a dynamic member silent for
// longer is marked down by Sweep.
const DefaultTTL = 15 * time.Second

// Registry tracks fleet membership. All methods are safe for
// concurrent use.
type Registry struct {
	mu      sync.Mutex
	ttl     time.Duration
	now     func() time.Time
	order   []string // registration order; worker i = site i of a solve
	members map[string]*Member
	epoch   uint64
	changes uint64
}

// New returns an empty registry with the given heartbeat TTL
// (≤ 0 = DefaultTTL).
func New(ttl time.Duration) *Registry {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	return &Registry{ttl: ttl, now: time.Now, members: make(map[string]*Member)}
}

// TTL returns the heartbeat horizon.
func (r *Registry) TTL() time.Duration { return r.ttl }

// Normalize canonicalizes a worker address the way the fleet
// transport's Dial does (scheme added, whitespace and trailing slash
// trimmed) so "host:8080" and "http://host:8080/" are one member.
func Normalize(u string) string {
	u = strings.TrimRight(strings.TrimSpace(u), "/")
	if u != "" && !strings.Contains(u, "://") {
		u = "http://" + u
	}
	return u
}

// SeedStatic registers the -workers list as static members: live from
// the start, exempt from heartbeat expiry, listed before any dynamic
// member (so a purely static fleet keeps its flag order — worker i =
// site i, exactly the PR 5 contract). Seeding is the deployment
// baseline, not a membership change: the epoch and change counter stay
// untouched, so `changes > 0` always means the fleet moved after
// deployment.
func (r *Registry) SeedStatic(urls []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, u := range urls {
		u = Normalize(u)
		if u == "" || r.members[u] != nil {
			continue
		}
		r.members[u] = &Member{URL: u, Static: true, State: StateLive, LastSeen: r.now()}
		r.order = append(r.order, u)
	}
}

// bump records one membership change. Caller holds r.mu.
func (r *Registry) bump() {
	r.epoch++
	r.changes++
}

// Register adds a worker (or refreshes its heartbeat). A new member,
// a revived down member and an un-drained member all bump the epoch; a
// plain heartbeat of a live member does not. The shard identity must
// match the live fleet's — shards of different instances cannot serve
// one coordinator, and rejecting here keeps a misconfigured worker
// from failing every solve at dial time. It returns the epoch after
// the call.
func (r *Registry) Register(url, kind string, dim, rows int) (uint64, error) {
	url = Normalize(url)
	if url == "" {
		return 0, fmt.Errorf("registry: empty worker url")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, u := range r.order {
		m := r.members[u]
		if m.State != StateLive || m.URL == url || m.Kind == "" || kind == "" {
			continue
		}
		if m.Kind != kind || m.Dim != dim {
			return r.epoch, fmt.Errorf("registry: worker %s offers %s/d=%d but the live fleet holds %s/d=%d — not shards of one instance",
				url, kind, dim, m.Kind, m.Dim)
		}
	}
	m := r.members[url]
	if m == nil {
		m = &Member{URL: url}
		r.members[url] = m
		r.order = append(r.order, url)
		m.State = StateDown // force the bump path below
	}
	if kind != "" {
		m.Kind, m.Dim, m.Rows = kind, dim, rows
	}
	m.LastSeen = r.now()
	if m.State != StateLive {
		m.State = StateLive
		m.LastErr = ""
		r.bump()
	}
	return r.epoch, nil
}

// Deregister removes a member entirely — the clean-departure path a
// draining worker takes. Unknown URLs are a no-op.
func (r *Registry) Deregister(url string) bool {
	url = Normalize(url)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.members[url] == nil {
		return false
	}
	delete(r.members, url)
	for i, u := range r.order {
		if u == url {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	r.bump()
	return true
}

// Drain marks a member draining: it finishes in-flight work but joins
// no new solves. Draining an already-draining member is a no-op.
func (r *Registry) Drain(url string) bool {
	url = Normalize(url)
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.members[url]
	if m == nil || m.State == StateDraining {
		return false
	}
	m.State = StateDraining
	r.bump()
	return true
}

// ReportFailure marks a member down after a solve's exchange with it
// failed — the fast path that beats the heartbeat TTL, so a retry
// immediately sees the shrunken membership. Static members are marked
// down too (a re-register, or an operator restart, revives them).
func (r *Registry) ReportFailure(url string, err error) {
	url = Normalize(url)
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.members[url]
	if m == nil || m.State == StateDown {
		return
	}
	m.State = StateDown
	if err != nil {
		m.LastErr = err.Error()
	}
	r.bump()
}

// Sweep marks dynamic members whose heartbeat lapsed past the TTL as
// down, returning how many it demoted. Static members never expire.
func (r *Registry) Sweep() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	cutoff := r.now().Add(-r.ttl)
	n := 0
	for _, u := range r.order {
		m := r.members[u]
		if m.Static || m.State != StateLive {
			continue
		}
		if m.LastSeen.Before(cutoff) {
			m.State = StateDown
			m.LastErr = fmt.Sprintf("heartbeat lapsed (last seen %s ago)", r.now().Sub(m.LastSeen).Round(time.Millisecond))
			r.bump()
			n++
		}
	}
	return n
}

// LiveWorkers returns the live members' URLs in registration order —
// the membership one solve attempt runs against (worker i = site i).
func (r *Registry) LiveWorkers() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for _, u := range r.order {
		if r.members[u].State == StateLive {
			out = append(out, u)
		}
	}
	return out
}

// Epoch returns the current membership epoch.
func (r *Registry) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// Changes returns the total number of membership changes ever made —
// the monotone counter behind lpserved_fleet_membership_changes_total.
func (r *Registry) Changes() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.changes
}

// Counts returns the member totals by state (live, draining, down).
func (r *Registry) Counts() (live, draining, down int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.members {
		switch m.State {
		case StateDraining:
			draining++
		case StateDown:
			down++
		default:
			live++
		}
	}
	return
}

// Snapshot returns every member (registration order) plus the epoch
// and change counter — the GET /v1/fleet view.
func (r *Registry) Snapshot() ([]Member, uint64, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Member, 0, len(r.order))
	for _, u := range r.order {
		out = append(out, *r.members[u])
	}
	return out, r.epoch, r.changes
}

// DownMembers returns the down members' URLs, sorted, with their
// recorded failure reasons — what the doctor names when membership
// changed underneath a deployment.
func (r *Registry) DownMembers() map[string]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]string)
	for _, m := range r.members {
		if m.State == StateDown {
			out[m.URL] = m.LastErr
		}
	}
	return out
}

// SetClock swaps the clock (tests).
func (r *Registry) SetClock(now func() time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.now = now
}

// sortedURLs is a test helper: every member URL, sorted.
func (r *Registry) sortedURLs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]string(nil), r.order...)
	sort.Strings(out)
	return out
}
