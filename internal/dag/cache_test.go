package dag

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"datachat/internal/dataset"
	"datachat/internal/skills"
)

func resultNamed(name string) *skills.Result {
	return &skills.Result{
		Table: dataset.MustNewTable(name, dataset.IntColumn("x", []int64{1}, nil)),
	}
}

// entries is the byte capacity that holds n resultNamed entries under keys
// of up to two bytes: the cache is bounded in bytes, these tests count
// entries.
func entries(n int) int { return n * int(charge("k0", resultNamed("k0"))) }

// doer is c.DoMain when admit is set, else c.Do.
func doer(c *Cache, admit bool) func(string, func() (*skills.Result, error)) (*skills.Result, bool, error) {
	if admit {
		return c.DoMain
	}
	return c.Do
}

// store computes key through c, admitting it to main when admit is set.
func store(c *Cache, key string, admit bool) {
	doer(c, admit)(key, func() (*skills.Result, error) { return resultNamed(key), nil })
}

// TestCacheLRUEviction: the main segment is an LRU under the byte bound.
func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(entries(2))
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, hit, err := c.DoMain(key, func() (*skills.Result, error) {
			return resultNamed(key), nil
		}); err != nil || hit {
			t.Fatalf("Do(%s) = hit=%v err=%v", key, hit, err)
		}
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
	if _, ok := c.Get("k0"); ok {
		t.Error("k0 should have been evicted (least recently used)")
	}
	if _, ok := c.Get("k2"); !ok {
		t.Error("k2 should be present")
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if st.Misses != 3 {
		t.Errorf("misses = %d, want 3", st.Misses)
	}
	if st.ProbationEntries != 0 || st.ProbationBytes != 0 {
		t.Errorf("admitted results reached probation: %+v", st)
	}
}

// TestCacheLRUOrderRefreshedByUse: a hit in main refreshes recency.
func TestCacheLRUOrderRefreshedByUse(t *testing.T) {
	c := NewCache(entries(2))
	store(c, "a", true)
	store(c, "b", true)
	c.Get("a") // refresh a's recency; b is now the eviction candidate
	store(c, "c", true)
	if _, ok := c.Get("a"); !ok {
		t.Error("recently used entry evicted")
	}
	if _, ok := c.Get("b"); ok {
		t.Error("least recently used entry survived")
	}
}

// TestCacheProbationIsFIFO: a result computed once enters probation, which
// holds a quarter of the budget and drops its oldest entry first, hits or
// not.
func TestCacheProbationIsFIFO(t *testing.T) {
	c := NewCache(entries(8)) // probation holds two
	store(c, "a", false)
	store(c, "b", false)
	c.Get("a")
	store(c, "c", false)
	if c.Peek("a") {
		t.Error("oldest probation entry survived a third")
	}
	if !c.Peek("b") || !c.Peek("c") {
		t.Error("newer probation entries were evicted")
	}
	st := c.Stats()
	if st.ProbationEntries != 2 || st.Entries != 2 || st.ProbationBytes != st.Bytes || st.Evictions != 1 {
		t.Errorf("stats = %+v, want two entries, both on probation, one eviction", st)
	}
}

// TestCacheProbationHitDoesNotPromote: a hit in probation serves the result
// and moves nothing.
func TestCacheProbationHitDoesNotPromote(t *testing.T) {
	c := NewCache(entries(8))
	store(c, "a", false)
	for i := 0; i < 3; i++ {
		if _, hit, _ := c.Do("a", func() (*skills.Result, error) {
			t.Fatal("a probation hit recomputed")
			return nil, nil
		}); !hit {
			t.Fatal("probation entry missed")
		}
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("probation entry missed by Get")
	}
	st := c.Stats()
	if st.Hits != 4 || st.ProbationEntries != 1 || st.Promotions != 0 {
		t.Errorf("stats = %+v, want 4 hits, a still on probation, no promotion", st)
	}
	store(c, "b", false)
	store(c, "c", false)
	if c.Peek("a") {
		t.Error("hits kept a probation entry past its turn")
	}
}

// TestCacheGhostPromotes: a key computed again after probation dropped it
// goes to main, and main's entries outlive a stream of one-off results.
func TestCacheGhostPromotes(t *testing.T) {
	c := NewCache(entries(8))
	store(c, "a", false)
	store(c, "b", false)
	store(c, "c", false) // a leaves probation; its key is a ghost
	if c.Peek("a") {
		t.Fatal("a still stored")
	}
	store(c, "a", false)
	st := c.Stats()
	if st.Promotions != 1 || st.ProbationEntries != 2 || st.Entries != 3 {
		t.Fatalf("stats = %+v, want a promoted beside two probation entries", st)
	}
	for i := 0; i < 20; i++ {
		store(c, fmt.Sprintf("x%d", i), false)
	}
	if !c.Peek("a") {
		t.Error("one-off results pushed a promoted entry out of main")
	}
	if st := c.Stats(); st.Promotions != 1 || st.Bytes > st.Capacity || st.ProbationBytes > st.Capacity/probationShare {
		t.Errorf("stats = %+v", st)
	}
}

// TestCacheAdmitGoesToMain: an admitted result skips probation, and main's
// least recently used entry is the first to go when the whole budget is
// exceeded.
func TestCacheAdmitGoesToMain(t *testing.T) {
	c := NewCache(entries(4)) // probation holds one
	store(c, "m0", true)
	store(c, "m1", true)
	store(c, "m2", true)
	if st := c.Stats(); st.ProbationEntries != 0 || st.Entries != 3 {
		t.Fatalf("stats = %+v, want three main entries", st)
	}
	store(c, "p", false)
	store(c, "m3", true)
	if c.Peek("m0") {
		t.Error("main's least recently used entry survived the bound")
	}
	for _, k := range []string{"m1", "m2", "m3", "p"} {
		if !c.Peek(k) {
			t.Errorf("%s evicted before main's tail", k)
		}
	}
	if st := c.Stats(); st.ProbationEntries != 1 || st.Promotions != 0 || st.Evictions != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestCacheNewestProbationEntryKept: a result larger than the probation share
// is still kept while it is the newest, and goes when the next one arrives.
func TestCacheNewestProbationEntryKept(t *testing.T) {
	c := NewCache(entries(64))
	big := &skills.Result{Table: dataset.MustNewTable("big",
		dataset.IntColumn("x", make([]int64, 2*entries(16)/8), nil))}
	if charge("big", big) <= int64(entries(16)) || charge("big", big) > int64(entries(64)) {
		t.Fatalf("big charges %d; want over the probation share, within the budget", charge("big", big))
	}
	c.Do("big", func() (*skills.Result, error) { return big, nil })
	if st := c.Stats(); !c.Peek("big") || st.ProbationEntries != 1 || st.ProbationBytes <= st.Capacity/probationShare {
		t.Fatalf("newest probation entry dropped: %+v", st)
	}
	store(c, "a", false)
	if c.Peek("big") || !c.Peek("a") {
		t.Error("the oversized entry outlived a newer one")
	}
}

// TestCacheInvalidateClearsGhosts: after Invalidate a key that was a ghost is
// computed as if for the first time.
func TestCacheInvalidateClearsGhosts(t *testing.T) {
	c := NewCache(entries(8))
	store(c, "a", false)
	store(c, "b", false)
	store(c, "c", false) // a is a ghost
	c.Invalidate()
	store(c, "a", false)
	st := c.Stats()
	if st.Promotions != 0 || st.ProbationEntries != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want a on probation, not promoted", st)
	}
}

func TestCacheSingleflightDeduplicates(t *testing.T) {
	c := NewCache(entries(16))
	var executions atomic.Int64
	var hits atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, hit, err := c.Do("shared", func() (*skills.Result, error) {
				executions.Add(1)
				<-release // hold the flight open so every goroutine joins it
				return resultNamed("shared"), nil
			})
			if err != nil {
				t.Error(err)
			}
			if hit {
				hits.Add(1)
			}
		}()
	}
	// The leader is inside fn once executions becomes 1; release everyone.
	for executions.Load() == 0 {
	}
	close(release)
	wg.Wait()
	if executions.Load() != 1 {
		t.Errorf("fn executed %d times, want 1 (singleflight)", executions.Load())
	}
	if hits.Load() != 7 {
		t.Errorf("follower hits = %d, want 7", hits.Load())
	}
	st := c.Stats()
	if st.Hits != 7 || st.Misses != 1 {
		t.Errorf("cache stats = %+v, want 7 hits / 1 miss", st)
	}
}

func TestCacheLeaderErrorPropagatesAndStoresNothing(t *testing.T) {
	c := NewCache(entries(16))
	boom := errors.New("boom")
	if _, _, err := c.Do("bad", func() (*skills.Result, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if c.Len() != 0 {
		t.Error("failed computation should not be stored")
	}
	// A later call retries rather than serving the error.
	res, hit, err := c.Do("bad", func() (*skills.Result, error) {
		return resultNamed("bad"), nil
	})
	if err != nil || hit || res == nil {
		t.Errorf("retry = (%v, %v, %v)", res, hit, err)
	}
}

func TestCacheInvalidateDiscardsInFlightResults(t *testing.T) {
	for _, admit := range []bool{false, true} {
		c := NewCache(entries(16))
		_, _, err := doer(c, admit)("k", func() (*skills.Result, error) {
			// Invalidation lands while the computation is running: its
			// result must not be stored afterwards, in either segment.
			c.Invalidate()
			return resultNamed("k"), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 || st.ProbationEntries != 0 || st.ProbationBytes != 0 {
			t.Errorf("admit=%v: result computed across an invalidation was stored: %+v", admit, st)
		}
		// Nor did it leave a ghost: computed again, it is not promoted.
		store(c, "k", false)
		if st := c.Stats(); st.Promotions != 0 || st.ProbationEntries != 1 {
			t.Errorf("admit=%v: stats = %+v, want k on probation", admit, st)
		}
	}
}

func TestCacheInvalidateClearsEntries(t *testing.T) {
	c := NewCache(entries(16))
	store(c, "k", false)
	c.Invalidate()
	if _, ok := c.Get("k"); ok {
		t.Error("entry survived invalidation")
	}
	st := c.Stats()
	if st.Evictions != 0 {
		t.Errorf("invalidation should not count as eviction: %+v", st)
	}
}

// TestCachePeekHasNoSideEffects: Peek sees both segments and moves neither
// counters nor main's recency.
func TestCachePeekHasNoSideEffects(t *testing.T) {
	c := NewCache(entries(4))
	store(c, "a", true)
	store(c, "b", true)
	store(c, "p", false)
	before := c.Stats()
	if !c.Peek("a") || !c.Peek("p") {
		t.Error("Peek missed a stored entry")
	}
	if c.Peek("zzz") {
		t.Error("Peek found a missing entry")
	}
	after := c.Stats()
	if before != after {
		t.Errorf("Peek changed counters: %+v -> %+v", before, after)
	}
	// Peeking a did not refresh it: it is still main's eviction candidate.
	store(c, "m", true)
	store(c, "n", true)
	if c.Peek("a") || !c.Peek("b") {
		t.Error("Peek refreshed main's recency")
	}
}

func TestCacheConcurrentMixedAccess(t *testing.T) {
	c := NewCache(entries(8))
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				key := fmt.Sprintf("k%d", (i+j)%12)
				switch j % 4 {
				case 0:
					store(c, key, i%2 == 0)
				case 1:
					c.Get(key)
				case 2:
					c.Peek(key)
				default:
					if j%20 == 3 {
						c.Invalidate()
					} else {
						c.Stats()
					}
				}
			}
		}(i)
	}
	wg.Wait()
	if st := c.Stats(); c.Len() > 8 || st.Bytes > st.Capacity {
		t.Errorf("capacity exceeded: %d entries, %+v", c.Len(), st)
	}
}

// TestSourceAndStreamedResultsGoToMain: what the executor admits at once —
// a source's result (here a file parse) and a streamed target — skips
// probation; a derived result computed once lands on probation.
func TestSourceAndStreamedResultsGoToMain(t *testing.T) {
	ctx := newCtx(t)
	ctx.PutFile("load.csv", "id,grp,v\n1,a,10\n2,b,20\n3,a,30\n")
	ex := NewExecutor(reg, ctx)
	g := NewGraph()
	g.Add(skills.Invocation{Skill: "LoadData", Args: skills.Args{"source": "load.csv", "name": "loaded"}, Output: "loaded"})
	keep := g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{"loaded"}, Args: skills.Args{"condition": "v > 10"}})
	if _, err := ex.Run(g, keep); err != nil {
		t.Fatal(err)
	}
	st := ex.CacheStats()
	if st.Entries != 2 || st.ProbationEntries != 1 {
		t.Fatalf("after load + filter: %+v, want the load in main and the filter on probation", st)
	}

	streamed := g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{"loaded"}, Args: skills.Args{"condition": "v > 20"}})
	sink := func(*dataset.Table) error { return nil }
	if _, _, err := ex.RunWith(context.Background(), g, streamed, ExecOptions{Stream: sink}); err != nil {
		t.Fatal(err)
	}
	st = ex.CacheStats()
	if st.Entries != 3 || st.ProbationEntries != 1 || st.Promotions != 0 {
		t.Errorf("after a streamed filter: %+v, want it in main", st)
	}
}
