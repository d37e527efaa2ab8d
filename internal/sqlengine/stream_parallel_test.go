package sqlengine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"datachat/internal/dataset"
	"datachat/internal/testutil"
)

// drainChunks pulls every chunk off a stream, preserving chunk boundaries.
func drainChunks(rs *RowStream) ([]*dataset.Table, error) {
	var out []*dataset.Table
	for {
		c, err := rs.Next()
		if err != nil {
			return out, err
		}
		if c == nil {
			return out, nil
		}
		out = append(out, c)
	}
}

// runSameChunksAtWorkers pins a stream at the given worker count against the
// same stream on one inline worker, chunk for chunk: same chunk count, same
// rows per chunk, same values — or both streams fail.
func runSameChunksAtWorkers(t *testing.T, catalog MapCatalog, query string, base StreamOptions, workers int) {
	t.Helper()
	oneOpts := base
	oneOpts.Parallelism = 1
	parOpts := base
	parOpts.Parallelism = workers

	ors, oerr := ExecStream(catalog, query, oneOpts)
	var oneChunks []*dataset.Table
	if oerr == nil {
		oneChunks, oerr = drainChunks(ors)
	}
	prs, perr := ExecStream(catalog, query, parOpts)
	var parChunks []*dataset.Table
	if perr == nil {
		parChunks, perr = drainChunks(prs)
	}
	if (oerr == nil) != (perr == nil) {
		t.Fatalf("error divergence for %q:\n  workers=1: %v\n  workers=%d: %v", query, oerr, workers, perr)
	}
	if oerr != nil {
		return
	}
	if len(oneChunks) != len(parChunks) {
		t.Fatalf("chunk count divergence for %q: %d at workers=1, %d at workers=%d",
			query, len(oneChunks), len(parChunks), workers)
	}
	for i := range oneChunks {
		if oneChunks[i].NumRows() != parChunks[i].NumRows() {
			t.Fatalf("chunk %d row count divergence for %q: %d at workers=1, %d at workers=%d",
				i, query, oneChunks[i].NumRows(), parChunks[i].NumRows(), workers)
		}
		if !oneChunks[i].Equal(parChunks[i]) {
			t.Fatalf("chunk %d divergence for %q:\nworkers=1:\n%s\nworkers=%d:\n%s",
				i, query, oneChunks[i], workers, parChunks[i])
		}
	}
}

// TestDifferentialChunksIndependentOfWorkers runs the randomized corpus at
// several worker counts and pins every output chunk against the one-worker
// stream — including tiny chunks (many fan-out rounds).
// The corpus tail holds the early-stopping LIMIT shapes buildPipeline forces
// to one worker, one of which fails on a row past its limit: no worker count
// may surface that error.
func TestDifferentialChunksIndependentOfWorkers(t *testing.T) {
	seeds := int64(4)
	if testing.Short() {
		seeds = 2
	}
	variants := []StreamOptions{
		{},
		{ChunkRows: 7},
	}
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed + 100))
			catalog := NewMapCatalog(CorpusTables(rng, 150+rng.Intn(200), 40+rng.Intn(40)))
			queries := CorpusQueries(rng, 30)
			for _, q := range queries {
				for _, opts := range variants {
					for _, workers := range []int{2, 4} {
						runSameChunksAtWorkers(t, catalog, q, opts, workers)
					}
				}
			}
		})
	}
}

// TestDifferentialForcedSpill forces the spill layer on (tiny budget, spill
// dir in a temp dir) and pins the spilled stream against the unbudgeted
// reference result, serial and parallel. At least one query must actually
// spill, and the spill dir must be empty after every drain.
func TestDifferentialForcedSpill(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	catalog := NewMapCatalog(CorpusTables(rng, 400, 60))
	dir := t.TempDir()
	queries := []string{
		"SELECT i, s FROM t1 ORDER BY i, s",
		"SELECT f, i FROM t1 WHERE f > 10 ORDER BY f DESC",
		"SELECT s, COUNT(*) AS c, SUM(f) AS sf FROM t1 GROUP BY s ORDER BY s",
		"SELECT i, AVG(f) AS af, MIN(s) AS ms FROM t1 GROUP BY i",
		"SELECT i, COUNT(*) AS c FROM t1 GROUP BY i HAVING COUNT(*) > 1 ORDER BY c DESC, i",
	}
	spilled := false
	for _, q := range queries {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		ref, refErr := ExecStmtOptions(catalog, stmt, Options{DisableVectorized: true})
		if refErr != nil {
			t.Fatalf("reference %q: %v", q, refErr)
		}
		for _, workers := range []int{0, 4} {
			rs, err := ExecStream(catalog, q, StreamOptions{
				ChunkRows:       64,
				MaxBufferedRows: 50,
				SpillDir:        dir,
				Parallelism:     workers,
			})
			if err != nil {
				t.Fatalf("%q (workers=%d): %v", q, workers, err)
			}
			out, err := rs.Drain(nil)
			if err != nil {
				t.Fatalf("%q (workers=%d): drain: %v", q, workers, err)
			}
			if !out.Equal(ref) {
				t.Fatalf("spilled result divergence for %q (workers=%d):\nstream:\n%s\nreference:\n%s",
					q, workers, out, ref)
			}
			st := rs.SpillStats()
			if st.SpilledRows > 0 {
				spilled = true
				if st.Runs == 0 || st.SpilledBytes == 0 {
					t.Fatalf("%q: inconsistent spill stats %+v", q, st)
				}
			}
			assertNoSpillFiles(t, dir)
		}
	}
	if !spilled {
		t.Fatal("no query spilled; the forced-spill suite is not exercising the spill layer")
	}
}

// TestStreamGroupBySpillsUnderBudget is the acceptance shape: under a budget
// a tenth of the group count, the engine completes from disk with nonzero
// SpilledRows and the exact reference result.
func TestStreamGroupBySpillsUnderBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	catalog := NewMapCatalog(CorpusTables(rng, 2000, 10))
	const query = "SELECT i, s, COUNT(*) AS c, SUM(f) AS sf FROM t1 GROUP BY i, s ORDER BY i, s"
	budget := StreamOptions{ChunkRows: 128, MaxBufferedRows: 100}

	dir := t.TempDir()
	spill := budget
	spill.SpillDir = dir
	rs, err := ExecStream(catalog, query, spill)
	if err != nil {
		t.Fatal(err)
	}
	out, err := rs.Drain(nil)
	if err != nil {
		t.Fatalf("engine failed under the budget: %v", err)
	}
	if st := rs.SpillStats(); st.SpilledRows == 0 {
		t.Fatalf("spill stats = %+v, want nonzero SpilledRows", st)
	}
	ref, err := Exec(catalog, query)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(ref) {
		t.Fatalf("spilled result diverges:\nstream:\n%s\nreference:\n%s", out, ref)
	}
	// Spill-pass liveness may overrun the budget by one state per partition.
	if peak := rs.PeakBufferedRows(); peak > 100+rs.Workers() {
		t.Fatalf("peak buffered rows = %d, want <= budget 100 + %d workers", peak, rs.Workers())
	}
	assertNoSpillFiles(t, dir)
}

// TestBudgetSeesEveryShape pins that the value-set aggregates, DISTINCT over
// a computed item and a FROM-subquery run under the memory budget: each
// reports what it buffered, the value-set aggregates spill, and every result
// is the reference's.
func TestBudgetSeesEveryShape(t *testing.T) {
	catalog := NewMapCatalog(CorpusTables(rand.New(rand.NewSource(7)), 5000, 20))
	dir := t.TempDir()
	const grouped = "SELECT i, SUM(f) AS m FROM t1 GROUP BY i ORDER BY m"
	for _, workers := range []int{1, 4} {
		opts := StreamOptions{MaxBufferedRows: 16, ChunkRows: 64, Parallelism: workers, SpillDir: dir}
		for _, q := range []string{
			"SELECT i, MEDIAN(f) AS m FROM t1 GROUP BY i",
			"SELECT i, COUNT(DISTINCT s) AS c FROM t1 GROUP BY i",
			"SELECT i, STDDEV(f) AS sd FROM t1 GROUP BY i",
		} {
			rs := runStreamAndReference(t, catalog, q, opts)
			if rs.PeakBufferedRows() == 0 || rs.SpillStats().Runs == 0 {
				t.Errorf("%q (workers=%d): peak %d rows, %d spill runs; want both above 0", q, workers, rs.PeakBufferedRows(), rs.SpillStats().Runs)
			}
		}
		for _, q := range []string{
			"SELECT DISTINCT i + 1 AS x FROM t1",
			"SELECT q.i, q.m FROM (" + grouped + ") q",
		} {
			if rs := runStreamAndReference(t, catalog, q, opts); rs.PeakBufferedRows() == 0 {
				t.Errorf("%q (workers=%d): peak 0 buffered rows; want the rows it held", q, workers)
			}
		}
		assertNoSpillFiles(t, dir)
	}
}

// TestSubqueryRunsUnderParentBudget pins that a FROM-subquery's operators run
// under its parent's budget and spill dir, and that the parent reports the
// subquery's peak and spill runs: on one worker, wrapping a spilling
// statement as a subquery changes neither gauge.
func TestSubqueryRunsUnderParentBudget(t *testing.T) {
	catalog := NewMapCatalog(CorpusTables(rand.New(rand.NewSource(7)), 5000, 20))
	dir := t.TempDir()
	opts := StreamOptions{MaxBufferedRows: 16, ChunkRows: 64, SpillDir: dir}
	const inner = "SELECT i, SUM(f) AS m FROM t1 GROUP BY i ORDER BY m"
	alone := runStreamAndReference(t, catalog, inner, opts)
	wrapped := runStreamAndReference(t, catalog, "SELECT q.i, q.m FROM ("+inner+") q", opts)
	if alone.SpillStats().Runs == 0 {
		t.Fatalf("%q spilled no run under a 16-row budget", inner)
	}
	if wrapped.PeakBufferedRows() != alone.PeakBufferedRows() || wrapped.SpillStats() != alone.SpillStats() {
		t.Fatalf("wrapped: peak %d, spill %+v; alone: peak %d, spill %+v — want the same",
			wrapped.PeakBufferedRows(), wrapped.SpillStats(), alone.PeakBufferedRows(), alone.SpillStats())
	}
	assertNoSpillFiles(t, dir)
}

// TestValueSetOverrun pins the admitted-group overrun: under a budget smaller
// than any one group's values, every pass admits its first group, which
// keeps its values past the budget, so the statement completes from disk
// with the reference result at every worker count and chunk size.
func TestValueSetOverrun(t *testing.T) {
	catalog := NewMapCatalog(CorpusTables(rand.New(rand.NewSource(17)), 600, 10))
	dir := t.TempDir()
	const q = "SELECT s, MEDIAN(f) AS md, COUNT(DISTINCT i) AS ci FROM t1 GROUP BY s"
	for _, workers := range []int{1, 4} {
		for _, chunk := range []int{1, 7} {
			rs := runStreamAndReference(t, catalog, q, StreamOptions{MaxBufferedRows: 3, ChunkRows: chunk, Parallelism: workers, SpillDir: dir})
			if rs.SpillStats().Runs == 0 || rs.PeakBufferedRows() <= 3 {
				t.Errorf("workers=%d chunk=%d: %d spill runs, peak %d rows; want spilled passes and the overrun charged",
					workers, chunk, rs.SpillStats().Runs, rs.PeakBufferedRows())
			}
			assertNoSpillFiles(t, dir)
		}
	}
}

// TestStreamBudgetRacingSpill drives many concurrent reducers into a tiny
// shared budget so spill activation races across partitions, and pins the
// result against the reference.
func TestStreamBudgetRacingSpill(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	catalog := NewMapCatalog(CorpusTables(rng, 1500, 30))
	dir := t.TempDir()
	for _, q := range []string{
		"SELECT i, COUNT(*) AS c FROM t1 GROUP BY i",
		"SELECT s, i, SUM(f) AS sf FROM t1 GROUP BY s, i ORDER BY s, i",
	} {
		ref, err := Exec(catalog, q)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := ExecStream(catalog, q, StreamOptions{
			ChunkRows:       32,
			MaxBufferedRows: 60,
			SpillDir:        dir,
			Parallelism:     4,
		})
		if err != nil {
			t.Fatal(err)
		}
		out, err := rs.Drain(nil)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if !out.Equal(ref) {
			t.Fatalf("%q diverges under racing spill:\nstream:\n%s\nreference:\n%s", q, out, ref)
		}
		assertNoSpillFiles(t, dir)
	}
}

// TestStreamCancellationMidFanOut cancels the stream's context while workers
// are mid-flight: the consumer must observe an error promptly and every
// spill file must be gone.
func TestStreamCancellationMidFanOut(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	catalog := NewMapCatalog(CorpusTables(rng, 5000, 20))
	dir := t.TempDir()
	assertNoLeaks := leakCheck(t, dir)
	ctx, cancel := context.WithCancel(context.Background())
	rs, err := ExecStream(catalog, "SELECT i, SUM(f) AS sf FROM t1 GROUP BY i ORDER BY i", StreamOptions{
		ChunkRows:       16,
		MaxBufferedRows: 40,
		SpillDir:        dir,
		Parallelism:     4,
		Ctx:             ctx,
	})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	var lastErr error
	for i := 0; i < 10_000; i++ {
		c, err := rs.Next()
		if err != nil {
			lastErr = err
			break
		}
		if c == nil {
			break
		}
	}
	// Cancellation races the drain: either the stream finished first (fine)
	// or it must surface the cancellation cause.
	if lastErr != nil && !errors.Is(lastErr, context.Canceled) {
		t.Fatalf("cancelled stream error = %v, want context.Canceled", lastErr)
	}
	rs.Close()
	assertNoLeaks()
}

// TestStreamSpillCleanupOnError checks a mid-stream evaluation error tears
// down a spilling parallel pipeline without leaking temp files.
func TestStreamSpillCleanupOnError(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	catalog := NewMapCatalog(CorpusTables(rng, 2000, 10))
	dir := t.TempDir()
	assertNoLeaks := leakCheck(t, dir)
	// SUM(s) over strings fails during aggregation, after spilling started.
	rs, err := ExecStream(catalog, "SELECT i, SUM(s) AS bad FROM t1 GROUP BY i", StreamOptions{
		ChunkRows:       32,
		MaxBufferedRows: 50,
		SpillDir:        dir,
		Parallelism:     4,
	})
	if err == nil {
		_, err = rs.Drain(nil)
	}
	if err == nil {
		t.Fatal("SUM over strings succeeded; want an evaluation error")
	}
	var be *BudgetError
	if errors.As(err, &be) {
		t.Fatalf("got BudgetError %v; want the evaluation error", err)
	}
	assertNoLeaks()
}

// TestStreamCloseReleasesSpillFiles checks abandoning a stream early (Close
// without draining) removes on-disk runs.
func TestStreamCloseReleasesSpillFiles(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	catalog := NewMapCatalog(CorpusTables(rng, 3000, 10))
	dir := t.TempDir()
	assertNoLeaks := leakCheck(t, dir)
	rs, err := ExecStream(catalog, "SELECT i, f FROM t1 ORDER BY i, f", StreamOptions{
		ChunkRows:       64,
		MaxBufferedRows: 100,
		SpillDir:        dir,
		Parallelism:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Next(); err != nil {
		t.Fatal(err)
	}
	if rs.SpillStats().Runs == 0 {
		t.Fatal("ORDER BY under a 100-row budget on 3000 rows should have spilled")
	}
	rs.Close()
	assertNoLeaks()
}

// TestStreamBuildErrorStopsContextWatcher pins that a stream whose pipeline
// fails to build does not leave its context watcher waiting on a context
// nobody will cancel.
func TestStreamBuildErrorStopsContextWatcher(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	catalog := NewMapCatalog(CorpusTables(rng, 100, 10))
	assertNoLeaks := leakCheck(t, t.TempDir())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, q := range []string{"SELECT i FROM nosuch", "SELECT t1.i FROM t1 JOIN nosuch ON t1.i = nosuch.k"} {
		if _, err := ExecStream(catalog, q, StreamOptions{Parallelism: 4, Ctx: ctx}); err == nil {
			t.Fatalf("%q built a pipeline; want an unknown-table error", q)
		}
	}
	assertNoLeaks()
}

// TestDrainErrorClosesStream pins that Drain stops the stream on every error
// return — a refusing sink and a mid-stream schema change — so no worker
// stays parked and no spill run stays on disk, even with no context to
// cancel.
func TestDrainErrorClosesStream(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	catalog := NewMapCatalog(CorpusTables(rng, 3000, 10))
	refuse := errors.New("sink refused")
	for _, q := range []string{
		"SELECT i, f FROM t1 WHERE i >= 0",  // workers park on a full reassembly window
		"SELECT i, f FROM t1 ORDER BY i, f", // sorted runs sit on disk
	} {
		dir := t.TempDir()
		assertNoLeaks := leakCheck(t, dir)
		rs, err := ExecStream(catalog, q, StreamOptions{ChunkRows: 16, MaxBufferedRows: 100, SpillDir: dir, Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rs.Drain(func(*dataset.Table) error { return refuse }); !errors.Is(err, refuse) {
			t.Fatalf("%q: Drain error = %v, want the sink's", q, err)
		}
		assertNoLeaks()
	}

	// No statement changes its schema mid-stream, so hand Drain a stream that
	// does and watch for the teardown hook.
	se := &streamExec{buffered: map[string]int{}, spillFiles: map[string]bool{}, doneCh: make(chan struct{})}
	stopped := false
	se.onStop(func(error) { stopped = true })
	chunks := []*dataset.Table{
		dataset.MustNewTable("c", dataset.IntColumn("a", []int64{1}, nil)),
		dataset.MustNewTable("c", dataset.IntColumn("a", []int64{2}, nil), dataset.IntColumn("b", []int64{3}, nil)),
	}
	rs := &RowStream{se: se, pull: func() (*dataset.Table, error) {
		c := chunks[0]
		chunks = chunks[1:]
		return c, nil
	}}
	if _, err := rs.Drain(nil); err == nil || !stopped {
		t.Fatalf("schema change: Drain error = %v, stream stopped = %v; want an error and a stopped stream", err, stopped)
	}
}

// TestStreamCancelAtEveryChunkBoundary sweeps the corpus at workers {1, 2, 4}
// under a spill-forcing budget: for every k it pulls k chunks, cancels the
// context, and requires the stream to end — with a chunk-free exhaustion or
// an error — leaving no goroutine and no spill file behind. Join queries
// whose build side overflows the budget fail in ExecStream and sweep the
// build-error path the same way.
func TestStreamCancelAtEveryChunkBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	catalog := NewMapCatalog(CorpusTables(rng, 300, 60))
	queries := CorpusQueries(rng, 20)
	if testing.Short() {
		queries = queries[12:] // a few random shapes plus the fixed tail
	}
	dir := t.TempDir()
	for _, q := range queries {
		for _, workers := range []int{1, 2, 4} {
			for k, more := 0, true; more; k++ {
				assertNoLeaks := leakCheck(t, dir)
				ctx, cancel := context.WithCancel(context.Background())
				rs, err := ExecStream(catalog, q, StreamOptions{
					ChunkRows: 64, MaxBufferedRows: 50, SpillDir: dir, Parallelism: workers, Ctx: ctx,
				})
				if err != nil {
					more = false
				}
				for i := 0; more && i < k; i++ {
					c, err := rs.Next()
					more = err == nil && c != nil
				}
				cancel()
				for i := 0; more; i++ {
					c, err := rs.Next()
					if err != nil || c == nil {
						break
					}
					if i > 10_000 {
						t.Fatalf("%q (workers=%d): stream still producing %d chunks after cancel at chunk %d", q, workers, i, k)
					}
				}
				if rs != nil {
					rs.Close()
				}
				assertNoLeaks()
			}
		}
	}
}

// TestParallelDistinctSharding pins the sharded DISTINCT against its
// one-shard run on a corpus slice with heavy duplication.
func TestParallelDistinctSharding(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	catalog := NewMapCatalog(CorpusTables(rng, 900, 40))
	for _, q := range []string{
		"SELECT DISTINCT s FROM t1",
		"SELECT DISTINCT s, b FROM t1",
		"SELECT DISTINCT i, s FROM t1 WHERE i >= 0",
	} {
		for _, workers := range []int{2, 4, 8} {
			runSameChunksAtWorkers(t, catalog, q, StreamOptions{ChunkRows: 17}, workers)
		}
	}
}

// leakCheck is testutil.LeakCheck plus this package's own leak: once the
// stream under test is done with, no dcspill-* file is left in dir.
func leakCheck(t *testing.T, dir string) func() {
	t.Helper()
	assertNoGoroutines := testutil.LeakCheck(t)
	return func() {
		t.Helper()
		assertNoGoroutines()
		assertNoSpillFiles(t, dir)
	}
}

func assertNoSpillFiles(t *testing.T, dir string) {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "dcspill-*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range matches {
		if _, err := os.Stat(m); err == nil {
			t.Fatalf("leaked spill file %s", m)
		}
	}
}

// TestIntKeyHashMatchesEncoded pins the invariant the columnar int-key fast
// path rests on: hash32int(v) must equal hash32 of the byte-encoded key, and
// intGroupKey must invert the encoding — otherwise batches that took
// different key representations (a chunk with nulls falls back to bytes)
// would partition the same group to different reducers.
func TestIntKeyHashMatchesEncoded(t *testing.T) {
	vals := []int64{0, 1, -1, 13, -13, 1 << 31, -(1 << 31), 1<<63 - 1, -(1 << 62), 424242}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		vals = append(vals, rng.Int63()-rng.Int63())
	}
	for _, v := range vals {
		enc := appendKeyValue(nil, dataset.Int(v))
		if got, want := hash32int(v), hash32(enc); got != want {
			t.Fatalf("hash32int(%d) = %#x, hash32(encoded) = %#x", v, got, want)
		}
		k, ok := intGroupKey(enc)
		if !ok || k != v {
			t.Fatalf("intGroupKey(encode(%d)) = %d, %v", v, k, ok)
		}
	}
	if _, ok := intGroupKey(appendKeyValue(nil, dataset.Null)); ok {
		t.Fatal("intGroupKey accepted a null key")
	}
	if _, ok := intGroupKey(appendKeyValue(nil, dataset.Float(1))); ok {
		t.Fatal("intGroupKey accepted a float key")
	}
}

// TestParallelGroupByMixedKeyBatches groups on an int column whose nulls are
// confined to a middle slice of rows: with small chunks, some batches take
// the columnar int-key fast path and others fall back to byte-encoded keys
// within the same stream. Every chunk must still match the one-worker run,
// at several worker counts, with and without a spill-forcing budget.
func TestParallelGroupByMixedKeyBatches(t *testing.T) {
	const n = 3000
	ids := make([]int64, n)
	nulls := make([]bool, n)
	vs := make([]float64, n)
	for i := range ids {
		ids[i] = int64(i % 97)
		nulls[i] = i >= 1100 && i < 1250 // only some chunks see a null key
		vs[i] = float64(i) / 8
	}
	catalog := NewMapCatalog(map[string]*dataset.Table{
		"mixed": dataset.MustNewTable("mixed",
			dataset.IntColumn("id", ids, nulls),
			dataset.FloatColumn("v", vs, nil),
		),
	})
	const query = "SELECT id, SUM(v) AS sv, COUNT(*) AS c FROM mixed GROUP BY id ORDER BY id"
	for _, workers := range []int{2, 4} {
		runSameChunksAtWorkers(t, catalog, query, StreamOptions{ChunkRows: 256}, workers)
		runSameChunksAtWorkers(t, catalog, query, StreamOptions{
			ChunkRows: 256, MaxBufferedRows: 40, SpillDir: t.TempDir(),
		}, workers)
	}
}
