package sqlengine

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"datachat/internal/dataset"
)

// runStreamAndReference pins the morsel pipeline to the row-at-a-time
// reference: the drained stream must equal the reference result, or both
// paths must fail.
func runStreamAndReference(t *testing.T, catalog MapCatalog, query string, opts StreamOptions) {
	t.Helper()
	stmt, err := Parse(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	var streamOut *dataset.Table
	rs, streamErr := ExecStreamStmt(catalog, stmt, opts)
	if streamErr == nil {
		streamOut, streamErr = rs.ReadAll()
	}
	refOut, refErr := ExecStmtOptions(catalog, stmt, Options{DisableVectorized: true})
	if (streamErr == nil) != (refErr == nil) {
		t.Fatalf("error divergence for %q:\n  stream:    %v\n  reference: %v", query, streamErr, refErr)
	}
	if streamErr != nil {
		return
	}
	if !streamOut.Equal(refOut) {
		t.Fatalf("result divergence for %q (fellBack=%v):\nstream:\n%s\nreference:\n%s",
			query, rs.FellBack(), streamOut, refOut)
	}
}

// TestDifferentialStreamVsReference runs every corpus query through the
// streaming pipeline under several chunk sizes (including a tiny one that
// forces many chunk boundaries) and both kernel settings.
func TestDifferentialStreamVsReference(t *testing.T) {
	seeds := int64(6)
	if testing.Short() {
		seeds = 2
	}
	variants := []StreamOptions{
		{},
		{ChunkRows: 7},
		{ChunkRows: 32, Options: Options{DisableVectorized: true}},
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
	if rs.FellBack() {
		t.Fatal("filter/projection should not fall back")
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
			_, err = rs.ReadAll()
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
	out, err := rs.ReadAll()
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
