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

// probationShare divides the budget into the bytes the probation segment may
// take (2Q's Kin, a quarter): results computed once can push out at most that
// much of what was read again.
const probationShare = 4

// ghostLimit bounds the keys remembered after their results left probation
// (2Q's A1out). A ghost holds no result, only its key.
const ghostLimit = 4096

// entryOverhead is what an entry costs beside its key and table: the list
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
	// Hits counts lookups served from a stored entry, in either segment, or
	// from a shared in-flight computation (singleflight followers).
	Hits int64
	// Misses counts lookups that had to execute.
	Misses int64
	// Evictions counts entries the byte bound dropped, from either segment
	// (invalidations are not evictions).
	Evictions int64
	// Promotions counts results admitted to the main segment because their
	// key was computed again while it was a ghost of an evicted probation
	// entry. Results admitted to main at once are not promotions.
	Promotions int64
	// Entries is the current number of stored results, in both segments.
	Entries int
	// Bytes is what the stored results pin, in both segments; Capacity is
	// the bound on it.
	Bytes, Capacity int64
	// ProbationEntries and ProbationBytes are the part of Entries and Bytes
	// held in the probation segment.
	ProbationEntries int
	ProbationBytes   int64
}

// Cache is a concurrency-safe cache of sub-DAG results keyed by content
// signature (§2.2), bounded by the bytes its entries pin. It may be shared by
// the executors of many sessions: identical computations submitted
// concurrently share a single execution (singleflight), and Invalidate bumps
// a generation counter so executions that started before an invalidation
// cannot store stale results after it.
//
// It is a 2Q cache (Johnson and Shasha, VLDB 1994). A result computed for the
// first time enters a FIFO probation segment whose bytes may take a quarter
// of the budget; the newest probation entry is always kept. A result that
// leaves probation leaves its key behind as a ghost, and a key computed again
// while it is a ghost enters the main segment, an LRU. DoMain sends a
// result to main at once. Both segments serve hits; a hit in probation moves
// nothing. When the whole budget is exceeded, main's least recently
// used entry goes first. So a one-off result — computed once, read only by
// its own request's next step — costs at most the probation share, not the
// whole budget.
type Cache struct {
	mu       sync.Mutex
	capacity int64
	bytes    int64
	main     *list.List // front = most recently used
	prob     *list.List // front = newest
	entries  map[string]*list.Element
	flights  map[string]*flight
	gen      uint64

	probBytes int64
	ghosts    *list.List // front = newest; values are keys
	ghostKeys map[string]*list.Element

	hits, misses, evictions, promotions int64
}

type cacheEntry struct {
	key       string
	res       *skills.Result
	bytes     int64
	probation bool
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
		capacity:  int64(capacity),
		main:      list.New(),
		prob:      list.New(),
		entries:   map[string]*list.Element{},
		flights:   map[string]*flight{},
		ghosts:    list.New(),
		ghostKeys: map[string]*list.Element{},
	}
}

// Get returns the stored result for key, bumping the hit counter and, in the
// main segment, its recency. It does not join in-flight computations; use Do
// for that.
func (c *Cache) Get(key string) (*skills.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hitLocked(key)
}

// hitLocked serves key from either segment, counting the hit.
func (c *Cache) hitLocked(key string) (*skills.Result, bool) {
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if !e.probation {
		c.main.MoveToFront(el)
	}
	c.hits++
	return e.res, true
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
//
// A computed result enters probation, or main when its key is a ghost.
func (c *Cache) Do(key string, fn func() (*skills.Result, error)) (res *skills.Result, hit bool, err error) {
	return c.do(key, false, fn)
}

// DoMain is Do for a result that enters the main segment at once: one every
// analysis of a source starts from, or one kept whole on purpose. When
// callers of one key mix Do and DoMain, the leader's call decides.
func (c *Cache) DoMain(key string, fn func() (*skills.Result, error)) (res *skills.Result, hit bool, err error) {
	return c.do(key, true, fn)
}

func (c *Cache) do(key string, admit bool, fn func() (*skills.Result, error)) (res *skills.Result, hit bool, err error) {
	c.mu.Lock()
	if res, ok := c.hitLocked(key); ok {
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
		c.storeLocked(key, f.res, admit)
	}
	c.mu.Unlock()
	close(f.done)
	return f.res, false, f.err
}

// storeLocked inserts (or replaces) an entry in the segment admission picks,
// then evicts until probation fits its share and both segments fit the
// capacity. A result that alone exceeds the capacity is not stored.
func (c *Cache) storeLocked(key string, res *skills.Result, admit bool) {
	b := charge(key, res)
	if el, ok := c.entries[key]; ok {
		c.removeLocked(el)
	}
	if b > c.capacity {
		return
	}
	e := &cacheEntry{key: key, res: res, bytes: b}
	if g, ok := c.ghostKeys[key]; ok {
		c.ghosts.Remove(g)
		delete(c.ghostKeys, key)
		if !admit {
			c.promotions++
		}
		admit = true
	}
	if admit {
		c.entries[key] = c.main.PushFront(e)
	} else {
		e.probation = true
		c.entries[key] = c.prob.PushFront(e)
		c.probBytes += b
	}
	c.bytes += b
	for c.probBytes > c.capacity/probationShare && c.prob.Len() > 1 {
		c.evictLocked(c.prob.Back())
	}
	for c.bytes > c.capacity {
		// Main's least recently used entry goes first, but never the one
		// just stored, and never the newest probation entry: b fits the
		// capacity, so the others are enough.
		if tail := c.main.Back(); tail != nil && tail.Value.(*cacheEntry) != e {
			c.evictLocked(tail)
		} else {
			c.evictLocked(c.prob.Back())
		}
	}
}

// evictLocked drops an entry for the byte bound; a probation entry leaves its
// key as a ghost.
func (c *Cache) evictLocked(el *list.Element) {
	e := c.removeLocked(el)
	c.evictions++
	if !e.probation {
		return
	}
	c.ghostKeys[e.key] = c.ghosts.PushFront(e.key)
	if c.ghosts.Len() > ghostLimit {
		delete(c.ghostKeys, c.ghosts.Remove(c.ghosts.Back()).(string))
	}
}

func (c *Cache) removeLocked(el *list.Element) *cacheEntry {
	e := el.Value.(*cacheEntry)
	if e.probation {
		c.prob.Remove(el)
		c.probBytes -= e.bytes
	} else {
		c.main.Remove(el)
	}
	delete(c.entries, e.key)
	c.bytes -= e.bytes
	return e
}

// Invalidate drops every entry and ghost and bumps the generation, so
// computations already in flight cannot repopulate the cache with
// pre-invalidation results. Counters are preserved.
func (c *Cache) Invalidate() {
	c.mu.Lock()
	c.gen++
	c.main.Init()
	c.prob.Init()
	c.ghosts.Init()
	c.entries = map[string]*list.Element{}
	c.ghostKeys = map[string]*list.Element{}
	c.bytes, c.probBytes = 0, 0
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
		Hits:             c.hits,
		Misses:           c.misses,
		Evictions:        c.evictions,
		Promotions:       c.promotions,
		Entries:          len(c.entries),
		Bytes:            c.bytes,
		Capacity:         c.capacity,
		ProbationEntries: c.prob.Len(),
		ProbationBytes:   c.probBytes,
	}
}
