package server

import (
	"container/list"
	"sync"
)

// cacheEntry is one cached solve outcome.
type cacheEntry struct {
	key    string
	result *SolveResult
	stats  *StatsPayload
}

// Cache is a thread-safe LRU of solve results keyed by request digest
// (instance + model + options), so repeated solves of hot instances
// skip recomputation.
type Cache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recent
	entries map[string]*list.Element
}

// NewCache returns an LRU cache holding up to cap results; cap ≤ 0
// disables it (every lookup misses, entries are not retained).
func NewCache(cap int) *Cache {
	return &Cache{cap: cap, order: list.New(), entries: make(map[string]*list.Element)}
}

// Enabled reports whether the cache can ever store a result — false
// lets callers skip computing cache keys entirely.
func (c *Cache) Enabled() bool { return c.cap > 0 }

// Get returns the cached result for key, bumping its recency.
func (c *Cache) Get(key string) (*SolveResult, *StatsPayload, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, nil, false
	}
	c.order.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	return e.result, e.stats, true
}

// Put stores a result, evicting the least-recently-used entry when
// over capacity.
func (c *Cache) Put(key string, result *SolveResult, stats *StatsPayload) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*cacheEntry).result, el.Value.(*cacheEntry).stats = result, stats
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, result: result, stats: stats})
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).key)
	}
}

// Len returns the number of cached results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// basisEntry is one cached final basis.
type basisEntry struct {
	key   string
	basis any
}

// BasisCache is a thread-safe LRU of final solve bases keyed by the
// request's warmKey (instance digest + geometry + seed). It is
// deliberately separate from the result Cache: a basis is a handful of
// floats where a result plus stats can be much more, so warm starts
// stay available even when result caching is disabled (CacheSize < 0),
// and a result eviction never takes the far cheaper basis with it.
// All methods are nil-safe — a nil *BasisCache is a disabled cache.
type BasisCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recent
	entries map[string]*list.Element
}

// NewBasisCache returns a basis LRU holding up to cap bases; cap ≤ 0
// disables warm starts (every lookup misses, puts are dropped).
func NewBasisCache(cap int) *BasisCache {
	return &BasisCache{cap: cap, order: list.New(), entries: make(map[string]*list.Element)}
}

// Enabled reports whether the cache can ever store a basis — false
// lets callers skip computing warm keys entirely.
func (c *BasisCache) Enabled() bool { return c != nil && c.cap > 0 }

// Get returns the cached basis for key, bumping its recency.
func (c *BasisCache) Get(key string) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*basisEntry).basis, true
}

// Put stores a basis, evicting the least-recently-used entry when over
// capacity.
func (c *BasisCache) Put(key string, basis any) {
	if c == nil || c.cap <= 0 || basis == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*basisEntry).basis = basis
		return
	}
	c.entries[key] = c.order.PushFront(&basisEntry{key: key, basis: basis})
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*basisEntry).key)
	}
}

// Len returns the number of cached bases.
func (c *BasisCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
