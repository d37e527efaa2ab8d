package sqlengine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"datachat/internal/dataset"
)

// groupedCases are the grouped statement shapes whose finishing phase —
// HAVING, the select list, ORDER BY, DISTINCT and OFFSET/LIMIT over finished
// groups — the differential suite pins, over the CorpusTables schema. They
// also seed FuzzEngineVsReference.
var groupedCases = []string{
	// Zero-row input, with and without GROUP BY.
	"SELECT s, COUNT(*) AS c, SUM(i) AS si, MIN(ts) AS mt FROM t1 WHERE i > 99999 GROUP BY s",
	"SELECT COUNT(*) AS c, SUM(i) AS si, MAX(s) AS ms, b, i + 1 AS x FROM t1 WHERE i > 99999",
	"SELECT s, COUNT(*) AS c FROM t1 WHERE i > 99999 GROUP BY s ORDER BY c DESC LIMIT 3",
	// An all-null key: a null int column, and a computed key that is always null.
	"SELECT i, COUNT(*) AS c, SUM(f) AS sf FROM t1 WHERE i IS NULL GROUP BY i",
	"SELECT NULLIF(s, s) AS z, COUNT(*) AS c, MAX(f) AS mf FROM t1 GROUP BY NULLIF(s, s)",
	// HAVING on an aggregate that is not selected, and on a non-key column.
	"SELECT s FROM t1 GROUP BY s HAVING SUM(i) > 10 ORDER BY s",
	"SELECT s, COUNT(*) AS c FROM t1 GROUP BY s HAVING b",
	"SELECT s, i, COUNT(*) AS c FROM t1 GROUP BY s, i HAVING f > 0 AND COUNT(*) >= 1 ORDER BY s, i",
	// ORDER BY an output alias that shadows a source column.
	"SELECT b AS s, COUNT(*) AS c FROM t1 GROUP BY b ORDER BY s DESC",
	"SELECT s AS i, MIN(i) AS m FROM t1 GROUP BY s ORDER BY i",
	// ORDER BY an expression over an aggregate.
	"SELECT s, SUM(i) AS si FROM t1 GROUP BY s ORDER BY SUM(i) * 2 DESC, s",
	"SELECT s, COUNT(*) AS c FROM t1 GROUP BY s ORDER BY AVG(f) DESC, s",
	// Unaliased items keep the names COUNT(*) and SUM(v).
	"SELECT k, COUNT(*), SUM(v) FROM t2 GROUP BY k ORDER BY k",
	"SELECT COUNT(*), SUM(v), MIN(s2) FROM t2",
	// Duplicate output names become a, a_1.
	"SELECT s AS a, COUNT(*) AS a FROM t1 GROUP BY s ORDER BY a",
	"SELECT s, s, COUNT(*) AS s FROM t1 GROUP BY s",
	// int/float SUM mixed within one group (IF picks per row) and across
	// groups (alpha sums ints, every other group floats), bare and under an
	// operator whose result depends on the type.
	"SELECT s, SUM(IF(b, i, f)) AS m FROM t1 GROUP BY s ORDER BY s",
	"SELECT s, SUM(IF(s = 'alpha', i, f)) AS m FROM t1 GROUP BY s ORDER BY m DESC, s",
	"SELECT s, SUM(IF(s = 'alpha', i, f)) % 2 AS r, MIN(IF(s = 'beta', i, f)) AS mn FROM t1 GROUP BY s HAVING SUM(IF(s = 'alpha', i, f)) % 2 IS NOT NULL OR s IS NULL ORDER BY s",
	// MIN/MAX over strings and times.
	"SELECT b, MIN(s) AS mns, MAX(s) AS mxs, MIN(ts) AS mnt, MAX(ts) AS mxt FROM t1 GROUP BY b ORDER BY b",
	"SELECT MIN(s) AS mns, MAX(ts) AS mxt FROM t1 WHERE f > 0",
	// DISTINCT with GROUP BY.
	"SELECT DISTINCT b FROM t1 GROUP BY s, b",
	"SELECT DISTINCT COUNT(*) AS c FROM t1 GROUP BY i ORDER BY c",
	"SELECT DISTINCT s IS NULL AS n, COUNT(*) > 10 AS big FROM t1 GROUP BY s ORDER BY n, big",
	// LIMIT/OFFSET, ordered and not.
	"SELECT s, COUNT(*) AS c FROM t1 GROUP BY s ORDER BY c DESC, s LIMIT 3 OFFSET 1",
	"SELECT i, SUM(f) AS sf FROM t1 GROUP BY i LIMIT 5 OFFSET 2",
	"SELECT ts, COUNT(*) AS c FROM t1 GROUP BY ts ORDER BY ts LIMIT 2",
	// No column read at all, a HAVING that drops the one global group, and
	// aggregates under every expression node.
	"SELECT 1 AS one FROM t1 GROUP BY s",
	"SELECT COUNT(*) AS c FROM t1 HAVING COUNT(*) > 100000",
	"SELECT s, CASE WHEN COUNT(*) > 20 THEN 'many' ELSE UPPER(MIN(s)) END AS size, COUNT(i) IN (1, 2, 3) AS few, -SUM(i) AS neg, NOT MAX(b) AS nb, AVG(f) BETWEEN -1 AND 1 AS mid, MAX(ts) IS NULL AS nt FROM t1 GROUP BY s ORDER BY s",
	// Star, a join, and a qualified key.
	"SELECT *, COUNT(*) AS c FROM t2 GROUP BY k, s2, v ORDER BY k, s2, v",
	"SELECT t2.s2, COUNT(*) AS c, SUM(t1.i) AS si FROM t1 JOIN t2 ON t1.i = t2.k GROUP BY t2.s2 ORDER BY si DESC, t2.s2",
}

// sameTable reports how got differs from want in names, column types or
// cells; "" when they are identical. Cells compare by type and rendering, so
// an int 1 and a float 1 differ.
func sameTable(got, want *dataset.Table) string {
	if got.NumCols() != want.NumCols() || got.NumRows() != want.NumRows() {
		return fmt.Sprintf("shape %d×%d, want %d×%d", got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
	}
	wantCols := want.Columns()
	for ci, gc := range got.Columns() {
		wc := wantCols[ci]
		if gc.Name() != wc.Name() || gc.Type() != wc.Type() {
			return fmt.Sprintf("column %d is %s:%v, want %s:%v", ci, gc.Name(), gc.Type(), wc.Name(), wc.Type())
		}
		for r := 0; r < gc.Len(); r++ {
			g, w := gc.Value(r), wc.Value(r)
			if g.Type != w.Type || g.String() != w.String() {
				return fmt.Sprintf("row %d column %s is %v:%v, want %v:%v", r, gc.Name(), g.Type, g, w.Type, w)
			}
		}
	}
	return ""
}

// TestSumIsExactOverInts pins integer SUM to int64 arithmetic on every path
// — ExecStmt, the reference, streams at one and four workers, spilled: a sum
// past 2^53 is exact, an overflow fails with one error text, and a sum that
// sees a float stays a float sum in row order.
func TestSumIsExactOverInts(t *testing.T) {
	const big = int64(1) << 53
	catalog := NewMapCatalog(map[string]*dataset.Table{
		"exact": dataset.MustNewTable("exact",
			dataset.StringColumn("k", []string{"a", "b", "a", "b", "a", "c"}, nil),
			dataset.IntColumn("v", []int64{big, 5, 1, 6, 1, -3}, nil)),
		"over": dataset.MustNewTable("over",
			dataset.StringColumn("k", []string{"a", "b", "a"}, nil),
			dataset.IntColumn("v", []int64{math.MaxInt64, 1, math.MaxInt64}, nil)),
	})
	paths := map[string]func(*SelectStmt) (*dataset.Table, error){
		"ExecStmt": func(s *SelectStmt) (*dataset.Table, error) { return ExecStmt(catalog, s) },
		"reference": func(s *SelectStmt) (*dataset.Table, error) {
			return ExecStmtOptions(catalog, s, Options{DisableVectorized: true})
		},
	}
	for _, workers := range []int{1, 4} {
		opts := StreamOptions{ChunkRows: 2, Parallelism: workers, MaxBufferedRows: 1, SpillDir: t.TempDir()}
		paths[fmt.Sprintf("spilled stream w=%d", workers)] = func(s *SelectStmt) (*dataset.Table, error) {
			rs, err := ExecStreamStmt(catalog, s, opts)
			if err != nil {
				return nil, err
			}
			return rs.Drain(nil)
		}
	}
	rowOrderSum := float64(big)
	rowOrderSum += 1 // rounds back down to 2^53, and again below
	rowOrderSum += 1
	for _, tc := range []struct {
		query string
		want  []dataset.Value // the s column; nil: the statement fails
	}{
		{"SELECT SUM(v) AS s FROM exact", []dataset.Value{dataset.Int(big + 10)}},
		{"SELECT k, SUM(v) AS s FROM exact GROUP BY k", []dataset.Value{dataset.Int(big + 2), dataset.Int(11), dataset.Int(-3)}},
		// Group a sees a float, so it sums floats in row order; b and c stay
		// ints, read through the column's common type.
		{"SELECT k, SUM(IF(k = 'a' AND v = 1, 1.0, v)) AS s FROM exact GROUP BY k", []dataset.Value{
			dataset.Float(rowOrderSum), dataset.Float(11), dataset.Float(-3)}},
		{"SELECT AVG(v) AS s FROM exact WHERE k = 'a'", []dataset.Value{dataset.Float(rowOrderSum / 3)}},
		{"SELECT SUM(v) AS s FROM over", nil},
		{"SELECT k, SUM(v) AS s FROM over GROUP BY k", nil},
	} {
		stmt := mustParse(t, tc.query)
		var wantErr string
		for name, run := range paths {
			out, err := run(stmt)
			if tc.want == nil {
				if err == nil || !strings.Contains(err.Error(), "overflows int64") {
					t.Fatalf("%q (%s): error %v, want an int64 overflow", tc.query, name, err)
				}
				if wantErr != "" && err.Error() != wantErr {
					t.Fatalf("%q (%s): error %q, another path said %q", tc.query, name, err, wantErr)
				}
				wantErr = err.Error()
				continue
			}
			if err != nil {
				t.Fatalf("%q (%s): %v", tc.query, name, err)
			}
			col, err := out.Column("s")
			if err != nil || col.Len() != len(tc.want) {
				t.Fatalf("%q (%s): got %v", tc.query, name, out)
			}
			for i, w := range tc.want {
				if got := col.Value(i); got.Type != w.Type || got.String() != w.String() {
					t.Fatalf("%q (%s): row %d is %v %v, want %v %v", tc.query, name, i, got.Type, got, w.Type, w)
				}
			}
		}
	}
}

// TestGroupedTailAllocs pins the typed grouped epilogue: finishing 10k
// groups — first-seen key values, aggregates, the ORDER BY — allocates per
// column and per growth step, not per group.
func TestGroupedTailAllocs(t *testing.T) {
	const groups, perGroup = 10_000, 3
	keys := make([]string, groups*perGroup)
	vals := make([]int64, len(keys))
	for i := range keys {
		keys[i] = "k" + strconv.Itoa(i%groups)
		vals[i] = int64(i)
	}
	catalog := NewMapCatalog(map[string]*dataset.Table{
		"g": dataset.MustNewTable("g", dataset.StringColumn("k", keys, nil), dataset.IntColumn("v", vals, nil)),
	})
	stmt := mustParse(t, "SELECT k, COUNT(*) AS c, SUM(v) AS sv FROM g GROUP BY k ORDER BY k")
	allocs := testing.AllocsPerRun(3, func() {
		out, err := ExecStmt(catalog, stmt)
		if err != nil || out.NumRows() != groups {
			t.Fatalf("got %v, %v; want %d groups", out, err, groups)
		}
	})
	if perGroup := allocs / groups; perGroup > 0.1 {
		t.Fatalf("GROUP BY over %d groups allocates %.0f times (%.2f per group); want at most 0.1 per group", groups, allocs, perGroup)
	}
}

// TestGroupedEpilogueDifferential runs every grouped case through ExecStmt,
// the reference, and streams at several chunk sizes and worker counts, with
// and without a spill-forcing budget: names, column types and cells must all
// equal the reference's, or every run must fail.
func TestGroupedEpilogueDifferential(t *testing.T) {
	catalog := NewMapCatalog(CorpusTables(rand.New(rand.NewSource(5)), 300, 60))
	dir := t.TempDir()
	var variants []StreamOptions
	for _, chunk := range []int{1, 7, 1024} {
		for _, workers := range []int{1, 4} {
			variants = append(variants,
				StreamOptions{ChunkRows: chunk, Parallelism: workers},
				StreamOptions{ChunkRows: chunk, Parallelism: workers, MaxBufferedRows: 4, SpillDir: dir})
		}
	}
	for _, q := range groupedCases {
		stmt := mustParse(t, q)
		ref, refErr := ExecStmtOptions(catalog, stmt, Options{DisableVectorized: true})
		check := func(path string, got *dataset.Table, err error) {
			t.Helper()
			if (err == nil) != (refErr == nil) {
				t.Fatalf("%q (%s): error %v, reference error %v", q, path, err, refErr)
			}
			if err == nil {
				if diff := sameTable(got, ref); diff != "" {
					t.Fatalf("%q (%s): %s\ngot:\n%s\nreference:\n%s", q, path, diff, got, ref)
				}
			}
		}
		out, err := ExecStmt(catalog, stmt)
		check("ExecStmt", out, err)
		for _, opts := range variants {
			rs, err := ExecStreamStmt(catalog, stmt, opts)
			if err == nil {
				out, err = rs.Drain(nil)
			}
			var be *BudgetError
			if errors.As(err, &be) && be.Op == "join-build" {
				continue // a join's build side cannot spill
			}
			check(fmt.Sprintf("stream %+v", opts), out, err)
			assertNoSpillFiles(t, dir)
		}
	}
}
