package dag

import (
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

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(entries(2))
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, hit, err := c.Do(key, func() (*skills.Result, error) {
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
}

func TestCacheLRUOrderRefreshedByUse(t *testing.T) {
	c := NewCache(entries(2))
	store := func(key string) {
		c.Do(key, func() (*skills.Result, error) { return resultNamed(key), nil })
	}
	store("a")
	store("b")
	c.Get("a") // refresh a's recency; b is now the eviction candidate
	store("c")
	if _, ok := c.Get("a"); !ok {
		t.Error("recently used entry evicted")
	}
	if _, ok := c.Get("b"); ok {
		t.Error("least recently used entry survived")
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
	c := NewCache(entries(16))
	_, _, err := c.Do("k", func() (*skills.Result, error) {
		// Invalidation lands while the computation is running: its result
		// must not be stored afterwards.
		c.Invalidate()
		return resultNamed("k"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Error("result computed across an invalidation was stored")
	}
}

func TestCacheInvalidateClearsEntries(t *testing.T) {
	c := NewCache(entries(16))
	c.Do("k", func() (*skills.Result, error) { return resultNamed("k"), nil })
	c.Invalidate()
	if _, ok := c.Get("k"); ok {
		t.Error("entry survived invalidation")
	}
	st := c.Stats()
	if st.Evictions != 0 {
		t.Errorf("invalidation should not count as eviction: %+v", st)
	}
}

func TestCachePeekHasNoSideEffects(t *testing.T) {
	c := NewCache(entries(1))
	c.Do("a", func() (*skills.Result, error) { return resultNamed("a"), nil })
	before := c.Stats()
	if !c.Peek("a") {
		t.Error("Peek missed a stored entry")
	}
	if c.Peek("zzz") {
		t.Error("Peek found a missing entry")
	}
	after := c.Stats()
	if before != after {
		t.Errorf("Peek changed counters: %+v -> %+v", before, after)
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
					c.Do(key, func() (*skills.Result, error) { return resultNamed(key), nil })
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
