package sqlengine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"datachat/internal/dataset"
)

// runStreamAndReference pins the morsel pipeline to the row-at-a-time
// reference: the drained stream must equal the reference result, or both
// paths must fail.
func runStreamAndReference(t *testing.T, catalog MapCatalog, query string, opts StreamOptions) *RowStream {
	t.Helper()
	stmt := mustParse(t, query)
	var streamOut *dataset.Table
	rs, streamErr := ExecStreamStmt(catalog, stmt, opts)
	if streamErr == nil {
		streamOut, streamErr = rs.Drain(nil)
	}
	refOut, refErr := ExecStmtOptions(catalog, stmt, Options{DisableVectorized: true})
	if (streamErr == nil) != (refErr == nil) {
		t.Fatalf("error divergence for %q:\n  stream:    %v\n  reference: %v", query, streamErr, refErr)
	}
	if streamErr == nil && !streamOut.Equal(refOut) {
		t.Fatalf("result divergence for %q:\nstream:\n%s\nreference:\n%s", query, streamOut, refOut)
	}
	return rs
}

// TestDifferentialStreamVsReference runs every corpus query through the
// streaming pipeline under several chunk sizes (including a tiny one that
// forces many chunk boundaries), then the explicit cases of a computed
// column whose inferred type differs between chunks.
func TestDifferentialStreamVsReference(t *testing.T) {
	seeds := int64(6)
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
			rng := rand.New(rand.NewSource(seed))
			catalog := NewMapCatalog(CorpusTables(rng, 150+rng.Intn(200), 40+rng.Intn(40)))
			queries := CorpusQueries(rng, 40)
			for _, q := range queries {
				for _, opts := range variants {
					runStreamAndReference(t, catalog, q, opts)
				}
			}
		})
	}
	t.Run("chunk-unstable-types", testChunkUnstableTypes)
}

// testChunkUnstableTypes drains, at 32-row chunks, select lists whose chunks
// disagree on a column's type: IF is not a kernel, so its column's type is
// inferred per chunk from the values the chunk happens to hold. The drained
// table must hold the reference's values under the reference's column types.
func testChunkUnstableTypes(t *testing.T) {
	const rows = 100
	ns := make([]int64, rows)
	xs := make([]float64, rows)
	z := dataset.NewColumn("z", dataset.TypeNull)
	for i := range ns {
		ns[i], xs[i] = int64(i), float64(i)+0.5
		z.Append(dataset.Null)
	}
	catalog := NewMapCatalog(map[string]*dataset.Table{
		"u": dataset.MustNewTable("u", dataset.IntColumn("n", ns, nil), dataset.FloatColumn("x", xs, nil), z),
	})
	for _, tc := range []struct {
		query string
		want  dataset.Type
	}{
		{"SELECT IF(n < 40, n, x) AS c FROM u", dataset.TypeFloat},                  // an int-only chunk, then float chunks
		{"SELECT IF(n < 32, NULL, n) AS c FROM u", dataset.TypeInt},                 // an all-null chunk first
		{"SELECT IF(n < 32, NULL, n) AS c FROM u WHERE n < 20", dataset.TypeString}, // never a value: as the reference infers
		{"SELECT IF(n >= 64, 'late', n) AS c FROM u", dataset.TypeString},           // int chunks, then a string chunk
		{"SELECT z AS c, n FROM u", dataset.TypeNull},                               // a plain column renamed over TypeNull windows
		{"SELECT z AS c, n FROM u ORDER BY n DESC", dataset.TypeNull},
	} {
		for _, workers := range []int{1, 4} {
			opts := StreamOptions{ChunkRows: 32, Parallelism: workers}
			runStreamAndReference(t, catalog, tc.query, opts)
			rs, err := ExecStream(catalog, tc.query, opts)
			if err != nil {
				t.Fatal(err)
			}
			out, err := rs.Drain(nil)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := ExecStmtOptions(catalog, mustParse(t, tc.query), Options{DisableVectorized: true})
			if err != nil {
				t.Fatal(err)
			}
			got, refType := out.Columns()[0].Type(), ref.Columns()[0].Type()
			if got != tc.want || got != refType {
				t.Errorf("%q (workers=%d): drained column type %v, reference %v, want %v", tc.query, workers, got, refType, tc.want)
			}
		}
	}
}

func mustParse(t *testing.T, query string) *SelectStmt {
	t.Helper()
	stmt, err := Parse(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	return stmt
}

// TestSingleChunkDrainAllocatesNoCells pins that draining a stream of one
// chunk hands that chunk over: the allocation count is the pipeline's fixed
// set-up, not a function of the row count.
func TestSingleChunkDrainAllocatesNoCells(t *testing.T) {
	allocs := func(rows int) float64 {
		catalog := NewMapCatalog(benchTables(rows))
		stmt := mustParse(t, "SELECT id, v, s FROM big")
		return testing.AllocsPerRun(5, func() {
			rs, err := ExecStreamStmt(catalog, stmt, StreamOptions{ChunkRows: rows})
			if err != nil {
				t.Fatal(err)
			}
			out, err := rs.Drain(nil)
			if err != nil || out.NumRows() != rows {
				t.Fatalf("drained %v, %v; want %d rows", out, err, rows)
			}
		})
	}
	small, large := allocs(64), allocs(8192)
	if large > small || large > 64 {
		t.Fatalf("single-chunk drain allocates %.0f times at 8192 rows, %.0f at 64; want the same small constant", large, small)
	}
}

// allocatedBytes is the fewest heap bytes any of three runs of f allocates.
func allocatedBytes(f func()) uint64 {
	best := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestExecStmtCopiesOnce pins that ExecStmt gathers a filter's survivors
// once: it reads the whole input as one morsel and returns that one result
// chunk, so what a 200k-row filter allocates is its result plus the
// predicate and selection vectors — no second copy of every column.
func TestExecStmtCopiesOnce(t *testing.T) {
	catalog := NewMapCatalog(map[string]*dataset.Table{"facts": factsTable(200_000)})
	stmt := mustParse(t, coldChainFilter)
	var out *dataset.Table
	bytes := allocatedBytes(func() {
		var err error
		if out, err = ExecStmt(catalog, stmt); err != nil {
			t.Fatal(err)
		}
	})
	if ratio := float64(bytes) / float64(out.PinnedBytes()); ratio > 1.3 {
		t.Fatalf("a drained filter allocated %d bytes for a %d-byte result (%.2f×); want at most 1.3×", bytes, out.PinnedBytes(), ratio)
	}
}

// TestLimitScanStopsEarly pins the one-morsel rule's exception: a LIMIT that
// can stop the scan early still pulls DefaultChunkRows morsels, so it never
// evaluates the predicate over the whole input.
func TestLimitScanStopsEarly(t *testing.T) {
	catalog := NewMapCatalog(benchTables(1_000_000))
	stmt := mustParse(t, "SELECT id FROM big WHERE v > 0 LIMIT 5")
	bytes := allocatedBytes(func() {
		out, err := ExecStmt(catalog, stmt)
		if err != nil || out.NumRows() != 5 {
			t.Fatalf("got %v, %v; want 5 rows", out, err)
		}
	})
	if bytes >= 256<<10 {
		t.Fatalf("LIMIT 5 over 1M rows allocated %d bytes; want under 256 KB", bytes)
	}
}

// TestStreamEmptyTables pins the zero-row edges: the stream must still emit
// a schema-bearing chunk and match the reference.
func TestStreamEmptyTables(t *testing.T) {
	empty := dataset.MustNewTable("t1",
		dataset.IntColumn("i", nil, nil),
		dataset.FloatColumn("f", nil, nil),
		dataset.StringColumn("s", nil, nil),
		dataset.BoolColumn("b", nil, nil),
		dataset.TimeColumn("ts", nil, nil),
	)
	t2 := dataset.MustNewTable("t2",
		dataset.IntColumn("k", []int64{1, 2}, nil),
		dataset.StringColumn("s2", []string{"a", "b"}, nil),
		dataset.FloatColumn("v", []float64{1, 2}, nil),
	)
	catalog := NewMapCatalog(map[string]*dataset.Table{"t1": empty, "t2": t2})
	for _, q := range []string{
		"SELECT * FROM t1 WHERE i > 0",
		"SELECT i, f FROM t1 ORDER BY i",
		"SELECT s, COUNT(*) AS c FROM t1 GROUP BY s",
		"SELECT t1.i, t2.v FROM t1 JOIN t2 ON t1.i = t2.k",
		"SELECT t1.i, t2.v FROM t1 LEFT JOIN t2 ON t1.i = t2.k",
		"SELECT COUNT(*) AS c FROM t1",
		"SELECT DISTINCT s FROM t1",
	} {
		runStreamAndReference(t, catalog, q, StreamOptions{ChunkRows: 4})
	}
}

// TestStreamFirstChunkIsIncremental checks the defining morsel property: a
// streaming filter/projection emits its first chunk after scanning only a
// prefix of the input, with no pipeline-breaker buffering at all.
func TestStreamFirstChunkIsIncremental(t *testing.T) {
	const rows = 50_000
	vals := make([]int64, rows)
	for i := range vals {
		vals[i] = int64(i)
	}
	catalog := NewMapCatalog(map[string]*dataset.Table{
		"big": dataset.MustNewTable("big", dataset.IntColumn("n", vals, nil)),
	})
	rs, err := ExecStream(catalog, "SELECT n FROM big WHERE n >= 10", StreamOptions{ChunkRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	chunk, err := rs.Next()
	if err != nil {
		t.Fatal(err)
	}
	// The first 100-row morsel loses its 10 filtered rows: the chunk arrives
	// after scanning only a 100-row prefix of the 50k-row input.
	if chunk == nil || chunk.NumRows() != 90 {
		t.Fatalf("first chunk = %v, want 90 rows", chunk)
	}
	if got := chunk.Columns()[0].Value(0); got != dataset.Int(10) {
		t.Fatalf("first row = %v, want 10", got)
	}
	if rs.PeakBufferedRows() != 0 {
		t.Fatalf("streaming filter buffered %d rows; want 0", rs.PeakBufferedRows())
	}
}

// TestStreamBudgetError checks the pipeline breakers that cannot spill — the
// join build side and the LEFT JOIN unmatched-row buffer — fail loudly with
// the typed overflow error instead of buffering past the budget.
func TestStreamBudgetError(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	catalog := NewMapCatalog(CorpusTables(rng, 500, 10))
	for _, tc := range []struct {
		query, op string
		budget    int
	}{
		{"SELECT t1.i, t2.v FROM t1 JOIN t2 ON t1.i = t2.k", "join-build", 5},
		// The 10-row build side fits; no left row matches, so all 500 buffer.
		{"SELECT t1.i, t2.v FROM t1 LEFT JOIN t2 ON t1.i = t2.k AND t2.k > 1000", "join-unmatched", 20},
	} {
		rs, err := ExecStream(catalog, tc.query, StreamOptions{MaxBufferedRows: tc.budget})
		if err == nil {
			_, err = rs.Drain(nil)
		}
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("%q: error = %v, want *BudgetError", tc.query, err)
		}
		if be.Budget != tc.budget || be.Buffered <= be.Budget || be.Op != tc.op {
			t.Fatalf("%q: budget error %+v, want op %q over budget %d", tc.query, be, tc.op, tc.budget)
		}
	}
}

// TestStreamGroupByConstantMemory checks the streaming group-by working set
// scales with group count, not input rows.
func TestStreamGroupByConstantMemory(t *testing.T) {
	const rows = 20_000
	keys := make([]int64, rows)
	vals := make([]float64, rows)
	for i := range keys {
		keys[i] = int64(i % 13)
		vals[i] = float64(i)
	}
	catalog := NewMapCatalog(map[string]*dataset.Table{
		"m": dataset.MustNewTable("m",
			dataset.IntColumn("k", keys, nil),
			dataset.FloatColumn("v", vals, nil)),
	})
	rs, err := ExecStream(catalog, "SELECT k, SUM(v) AS s FROM m GROUP BY k ORDER BY k", StreamOptions{ChunkRows: 512})
	if err != nil {
		t.Fatal(err)
	}
	out, err := rs.Drain(nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 13 {
		t.Fatalf("got %d groups, want 13", out.NumRows())
	}
	if peak := rs.PeakBufferedRows(); peak != 13 {
		t.Fatalf("peak buffered rows = %d, want 13 (one per group)", peak)
	}
}
