package sqlengine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"datachat/internal/dataset"
)

// The differential harness pins the engine — ExecStmt, the morsel pipeline
// drained — to the row-at-a-time reference: every generated query runs
// through both and must produce an identical table (or fail on both). The corpus spans filters with
// three-valued null logic, arithmetic, LIKE, IN, BETWEEN, equi joins with
// residuals, grouping with HAVING, and multi-key ORDER BY, over randomized
// tables with ~15% nulls per column.

func runBothPaths(t *testing.T, catalog MapCatalog, query string) {
	t.Helper()
	stmt, err := Parse(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	vecOut, vecErr := ExecStmtOptions(catalog, stmt, Options{})
	refOut, refErr := ExecStmtOptions(catalog, stmt, Options{DisableVectorized: true})
	if (vecErr == nil) != (refErr == nil) {
		t.Fatalf("error divergence for %q:\n  vectorized: %v\n  reference:  %v", query, vecErr, refErr)
	}
	if vecErr != nil {
		return
	}
	if !vecOut.Equal(refOut) {
		t.Fatalf("result divergence for %q:\nvectorized:\n%s\nreference:\n%s", query, vecOut, refOut)
	}
}

func TestDifferentialVectorizedVsReference(t *testing.T) {
	seeds := int64(10)
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			catalog := NewMapCatalog(CorpusTables(rng, 150+rng.Intn(200), 40+rng.Intn(40)))
			for _, q := range CorpusQueries(rng, 60) {
				runBothPaths(t, catalog, q)
			}
		})
	}
}

// TestDifferentialEmptyTables pins the zero-row edge cases on both paths.
func TestDifferentialEmptyTables(t *testing.T) {
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
	} {
		runBothPaths(t, catalog, q)
	}
}

// TestVectorizedForcedFallback drives expressions the kernel compiler does
// not support (a scalar function call, an IF whose values mix ints and
// strings) through every statement position — WHERE, select items, ORDER BY
// keys, GROUP BY keys, aggregate arguments, a join residual — and checks the
// row evaluator produces the reference's results.
func TestVectorizedForcedFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	catalog := NewMapCatalog(CorpusTables(rng, 120, 30))
	for _, q := range []string{
		"SELECT s FROM t1 WHERE UPPER(s) = 'ALPHA'",
		"SELECT UPPER(s) AS u, i FROM t1 WHERE i > 0 ORDER BY u, i",
		"SELECT UPPER(s) AS u, COUNT(*) AS c FROM t1 GROUP BY UPPER(s) ORDER BY u",
		"SELECT t1.s, t2.v FROM t1 JOIN t2 ON t1.s = t2.s2 AND UPPER(t1.s) != 'ZZZ' ORDER BY t1.s, t2.v LIMIT 40",
		"SELECT i, s FROM t1 WHERE IF(b, i, s) > 3",
		"SELECT IF(i > 5, s, i) AS m, i FROM t1 ORDER BY m, i",
		"SELECT i, f FROM t1 ORDER BY IF(b, i, s) DESC, i, f",
		"SELECT IF(i > 5, s, i) AS k, COUNT(*) AS c, MIN(IF(b, i, s)) AS mn, MAX(IF(b, f, s)) AS mx FROM t1 GROUP BY IF(i > 5, s, i) ORDER BY k",
		"SELECT t1.i, t2.v FROM t1 JOIN t2 ON t1.i = t2.k AND IF(t1.b, t1.i, t1.s) > t2.v ORDER BY t1.i, t2.v",
	} {
		runBothPaths(t, catalog, q)
		for _, workers := range []int{1, 4} {
			runStreamAndReference(t, catalog, q, StreamOptions{ChunkRows: 7, Parallelism: workers})
		}
	}
}

// TestVectorizedFallbackDistinctAgg pins the statement shapes whose tail the
// pipeline hands to the reference executor — value-set aggregates (DISTINCT,
// MEDIAN, STDDEV) with a WHERE, over a join and inside a FROM-subquery,
// SELECT DISTINCT over a computed item, SELECT without FROM — to the
// reference, through ExecStmtOptions and through a many-chunk stream that
// must report it fell back.
func TestVectorizedFallbackDistinctAgg(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	catalog := NewMapCatalog(CorpusTables(rng, 100, 20))
	for _, q := range []string{
		"SELECT s, COUNT(DISTINCT i) AS c FROM t1 GROUP BY s ORDER BY s",
		"SELECT s, MEDIAN(f) AS m FROM t1 GROUP BY s ORDER BY s",
		"SELECT s, COUNT(DISTINCT i) AS c FROM t1 WHERE f > -3 AND b GROUP BY s ORDER BY s",
		"SELECT b, MEDIAN(f) AS m, COUNT(*) AS n FROM t1 WHERE i % 3 = 1 GROUP BY b ORDER BY b",
		"SELECT s, STDDEV(f) AS sd FROM t1 WHERE UPPER(s) != 'BETA' GROUP BY s ORDER BY s",
		"SELECT t2.s2, COUNT(DISTINCT t1.i) AS c, MEDIAN(t2.v) AS m FROM t1 JOIN t2 ON t1.i = t2.k WHERE t1.f > -5 GROUP BY t2.s2 ORDER BY t2.s2",
		"SELECT t1.b, STDDEV(t2.v) AS sd FROM t1 LEFT JOIN t2 ON t1.i = t2.k AND t1.f > t2.v GROUP BY t1.b ORDER BY t1.b",
		"SELECT q.s, q.c + 1 AS c1 FROM (SELECT s, COUNT(DISTINCT i) AS c FROM t1 GROUP BY s) q WHERE q.c > 1 ORDER BY q.s",
		"SELECT MEDIAN(q.m) AS mm, STDDEV(q.m) AS sm FROM (SELECT s, MEDIAN(f) AS m FROM t1 WHERE i > -5 GROUP BY s) q",
		"SELECT DISTINCT i % 3 AS r, UPPER(s) AS u FROM t1 WHERE f > -8 ORDER BY r, u",
		"SELECT DISTINCT i + 1 AS x FROM t1 LIMIT 5",
		"SELECT 1 + 2 AS three, UPPER('x') AS u",
	} {
		runBothPaths(t, catalog, q)
		rs := runStreamAndReference(t, catalog, q, StreamOptions{ChunkRows: 32})
		if !rs.FellBack() {
			t.Errorf("%q streamed end to end; want the reference tail (FellBack)", q)
		}
	}
}

// TestMapCatalogCaseFold covers the precomputed case-fold index: exact
// names win, folded lookups resolve, and collisions pick the
// lexicographically smallest name deterministically.
func TestMapCatalogCaseFold(t *testing.T) {
	mk := func(name string) *dataset.Table {
		return dataset.MustNewTable(name, dataset.StringColumn("src", []string{name}, nil))
	}
	cat := NewMapCatalog(map[string]*dataset.Table{
		"Orders": mk("Orders"),
		"ORDERS": mk("ORDERS"),
		"people": mk("people"),
	})
	got, err := cat.Table("people")
	if err != nil || got.Name() != "people" {
		t.Fatalf("exact lookup: %v, %v", got, err)
	}
	got, err = cat.Table("PEOPLE")
	if err != nil || got.Name() != "people" {
		t.Fatalf("folded lookup: %v, %v", got, err)
	}
	got, err = cat.Table("ORDERS")
	if err != nil || got.Name() != "ORDERS" {
		t.Fatalf("exact beats folded: %v, %v", got, err)
	}
	got, err = cat.Table("orders")
	if err != nil || got.Name() != "ORDERS" {
		t.Fatalf("fold collision should pick lexicographically smallest, got %v, %v", got, err)
	}
	if _, err := cat.Table("missing"); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("missing table error: %v", err)
	}
}
