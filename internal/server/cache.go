package server

import (
	"container/list"
	"sync"
)

// lru is a thread-safe least-recently-used map from request keys to
// values, the one LRU behind both of the server's caches. A nil lru,
// or one of capacity ≤ 0, is disabled: every lookup misses and puts
// are dropped. So is a nil value.
type lru[V any] struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // of *lruEntry[V], front = most recent
	entries map[string]*list.Element
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](cap int) *lru[V] {
	return &lru[V]{cap: cap, order: list.New(), entries: make(map[string]*list.Element)}
}

// Enabled reports whether the cache can ever store an entry.
func (c *lru[V]) Enabled() bool { return c != nil && c.cap > 0 }

// Get returns the value cached under key, bumping its recency.
func (c *lru[V]) Get(key string) (val V, ok bool) {
	if c == nil {
		return val, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return val, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// Put stores val under key, evicting the least-recently-used entry
// when over capacity.
func (c *lru[V]) Put(key string, val V) {
	if !c.Enabled() || any(val) == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*lruEntry[V]).val = val
		return
	}
	c.entries[key] = c.order.PushFront(&lruEntry[V]{key: key, val: val})
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*lruEntry[V]).key)
	}
}

// Len returns the number of cached entries.
func (c *lru[V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// cachedSolve is one cached solve outcome.
type cachedSolve struct {
	result *SolveResult
	stats  *StatsPayload
}

// Cache is a thread-safe LRU of solve results keyed by request digest
// (instance + model + options), so repeated solves of hot instances
// skip recomputation.
type Cache struct{ *lru[cachedSolve] }

// NewCache returns an LRU cache holding up to cap results; cap ≤ 0
// disables it (every lookup misses, entries are not retained).
func NewCache(cap int) *Cache { return &Cache{newLRU[cachedSolve](cap)} }

// Get returns the cached result for key, bumping its recency.
func (c *Cache) Get(key string) (*SolveResult, *StatsPayload, bool) {
	e, ok := c.lru.Get(key)
	return e.result, e.stats, ok
}

// Put stores a result, evicting the least-recently-used entry when
// over capacity.
func (c *Cache) Put(key string, result *SolveResult, stats *StatsPayload) {
	c.lru.Put(key, cachedSolve{result, stats})
}

// BasisCache is a thread-safe LRU of final solve bases keyed by the
// request's warmKey (instance digest + geometry + seed). It is
// deliberately separate from the result Cache: a basis is a handful of
// floats where a result plus stats can be much more, so warm starts
// stay available even when result caching is disabled (CacheSize < 0),
// and a result eviction never takes the far cheaper basis with it.
// All methods are nil-safe — a nil *BasisCache is a disabled cache —
// and a nil basis is never stored.
//
// An entry owns its rows: engine.SolveSourceBasis, the one road by
// which a basis reaches putBasis, copies the support or tight set out
// of the solve's input, so an entry holds O(ν) constraints (a few
// hundred bytes at d = 3) and never the request's store or a backend's
// arena. TestCachedBasisSharesNoRowsWithItsRequest pins that.
type BasisCache = lru[any]

// NewBasisCache returns a basis LRU holding up to cap bases; cap ≤ 0
// disables warm starts (every lookup misses, puts are dropped).
func NewBasisCache(cap int) *BasisCache { return newLRU[any](cap) }
