package dag

import (
	"container/list"
	"sync"

	"datachat/internal/skills"
)

// DefaultCacheCapacity bounds the sub-DAG cache of a freshly built executor
// or platform, in bytes: what its entries pin (see charge), not how many
// there are.
const DefaultCacheCapacity = 256 << 20

// entryOverhead is what an entry costs beside its key and table: the LRU
// element, the map slot and the result struct.
const entryOverhead = 128

// charge is the bytes a cached result pins: its table's backing arrays —
// whole, for a Window view of a larger table — plus the key and the entry.
func charge(key string, res *skills.Result) int64 {
	b := int64(entryOverhead + len(key))
	if res != nil && res.Table != nil {
		b += res.Table.PinnedBytes()
	}
	return b
}

// CacheStats is a point-in-time snapshot of cache effectiveness counters.
type CacheStats struct {
	// Hits counts lookups served from a stored entry or a shared in-flight
	// computation (singleflight followers).
	Hits int64
	// Misses counts lookups that had to execute.
	Misses int64
	// Evictions counts entries dropped by the LRU bound (invalidations are
	// not evictions).
	Evictions int64
	// Entries is the current number of stored results.
	Entries int
	// Bytes is what the stored results pin; Capacity is the bound on it.
	Bytes, Capacity int64
}

// Cache is a concurrency-safe LRU cache of sub-DAG results keyed by content
// signature (§2.2), bounded by the bytes its entries pin. It may be shared by
// the executors of many sessions: identical computations submitted
// concurrently share a single execution (singleflight), and Invalidate bumps
// a generation counter so executions that started before an invalidation
// cannot store stale results after it.
type Cache struct {
	mu       sync.Mutex
	capacity int64
	bytes    int64
	lru      *list.List // front = most recently used
	entries  map[string]*list.Element
	flights  map[string]*flight
	gen      uint64

	hits, misses, evictions int64
}

type cacheEntry struct {
	key   string
	res   *skills.Result
	bytes int64
}

// flight is one in-progress computation that concurrent callers of the same
// key wait on instead of recomputing.
type flight struct {
	done chan struct{}
	res  *skills.Result
	err  error
}

// NewCache returns an empty cache whose entries pin at most capacity bytes
// (DefaultCacheCapacity when capacity <= 0).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &Cache{
		capacity: int64(capacity),
		lru:      list.New(),
		entries:  map[string]*list.Element{},
		flights:  map[string]*flight{},
	}
}

// Get returns the stored result for key, bumping its recency and the hit
// counter. It does not join in-flight computations; use Do for that.
func (c *Cache) Get(key string) (*skills.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits++
	return el.Value.(*cacheEntry).res, true
}

// Peek reports whether key is stored, without touching recency or counters.
// The planner uses it to stop consolidation chains at already-cached
// prefixes.
func (c *Cache) Peek(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// Do returns the result for key, computing it with fn on a miss. Concurrent
// calls with the same key share one execution: the first caller (the leader)
// runs fn while the rest block and receive the leader's result, counted as
// hits — so hit/miss totals do not depend on scheduling. A leader's error is
// returned to every waiter and nothing is stored. Results computed across an
// Invalidate call are discarded rather than stored, and so are degraded
// results: the key fingerprints the exact computation, and a fallback answer
// must not be served later as if it were the exact one.
func (c *Cache) Do(key string, fn func() (*skills.Result, error)) (res *skills.Result, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		res = el.Value.(*cacheEntry).res
		c.mu.Unlock()
		return res, true, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, false, f.err
		}
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
		return f.res, true, nil
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	gen := c.gen
	c.misses++
	c.mu.Unlock()

	f.res, f.err = fn()

	c.mu.Lock()
	delete(c.flights, key)
	if f.err == nil && gen == c.gen && (f.res == nil || !f.res.Degraded) {
		c.storeLocked(key, f.res)
	}
	c.mu.Unlock()
	close(f.done)
	return f.res, false, f.err
}

// storeLocked inserts (or replaces) an entry and evicts least recently used
// ones until the pinned bytes fit the capacity. A result that alone exceeds
// the capacity is not stored.
func (c *Cache) storeLocked(key string, res *skills.Result) {
	b := charge(key, res)
	if el, ok := c.entries[key]; ok {
		c.removeLocked(el)
	}
	if b > c.capacity {
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, res: res, bytes: b})
	c.bytes += b
	for c.bytes > c.capacity {
		c.removeLocked(c.lru.Back())
		c.evictions++
	}
}

func (c *Cache) removeLocked(el *list.Element) {
	e := c.lru.Remove(el).(*cacheEntry)
	delete(c.entries, e.key)
	c.bytes -= e.bytes
}

// Invalidate drops every entry and bumps the generation, so computations
// already in flight cannot repopulate the cache with pre-invalidation
// results. Counters are preserved.
func (c *Cache) Invalidate() {
	c.mu.Lock()
	c.gen++
	c.lru.Init()
	c.entries = map[string]*list.Element{}
	c.bytes = 0
	c.mu.Unlock()
}

// Len returns the number of stored entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   len(c.entries),
		Bytes:     c.bytes,
		Capacity:  c.capacity,
	}
}
