package sqlengine

import (
	"math/rand"
	"testing"
)

// TestStreamDistinctSpills pins the DISTINCT overflow path: with a budget
// far below the distinct-key count the streaming engine must go to disk and
// still produce exactly the materialized result — same rows, same
// first-occurrence order — at one worker and at four, with and without a
// filter feeding it.
func TestStreamDistinctSpills(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	catalog := NewMapCatalog(CorpusTables(rng, 900, 10))
	queries := []string{
		"SELECT DISTINCT s FROM t1",
		"SELECT DISTINCT s, b FROM t1",
		"SELECT DISTINCT s FROM t1 WHERE s <> 'alpha'",
		"SELECT DISTINCT s, b FROM t1 ORDER BY s, b",
	}
	for _, workers := range []int{1, 4} {
		for _, q := range queries {
			dir := t.TempDir()
			rs, err := ExecStream(catalog, q, StreamOptions{
				ChunkRows:       64,
				Parallelism:     workers,
				MaxBufferedRows: 3,
				SpillDir:        dir,
			})
			if err != nil {
				t.Fatalf("%q (workers=%d): %v", q, workers, err)
			}
			out, err := rs.Drain(nil)
			if err != nil {
				t.Fatalf("%q (workers=%d): %v", q, workers, err)
			}
			if st := rs.SpillStats(); st.Runs == 0 {
				t.Fatalf("%q (workers=%d): spill stats = %+v, want nonzero runs", q, workers, st)
			}
			ref, err := Exec(catalog, q)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Equal(ref) {
				t.Fatalf("%q (workers=%d): spilled DISTINCT diverges:\nstream:\n%s\nreference:\n%s",
					q, workers, out, ref)
			}
			assertNoSpillFiles(t, dir)
		}
	}
}
