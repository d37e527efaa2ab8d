package sqlengine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"datachat/internal/dataset"
)

// Every operator evaluates an expression one way, expr.Eval over a morsel:
// a typed kernel when the whole tree compiles, the row evaluator otherwise.
// These tests pin what that means for the operators' results.

// TestColumnTypesIgnoreUnrelatedItems: a select item the kernel compiler
// refuses is row-evaluated alone, so it changes neither how another item is
// evaluated nor its type — the passthrough i stays int over rows where it is
// always null, whichever item sits beside it and however the rows are cut.
func TestColumnTypesIgnoreUnrelatedItems(t *testing.T) {
	catalog := NewMapCatalog(CorpusTables(rand.New(rand.NewSource(5)), 300, 10))
	for _, item := range []string{"f + 1", "FLOOR(f)"} {
		query := fmt.Sprintf("SELECT i, f, %s AS g FROM t1 WHERE i IS NULL", item)
		stmt := mustParse(t, query)
		check := func(path string, out *dataset.Table, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s (%s): %v", query, path, err)
			}
			if out.NumRows() == 0 {
				t.Fatalf("%s (%s): no rows", query, path)
			}
			if typ := out.Columns()[0].Type(); typ != dataset.TypeInt {
				t.Errorf("%s (%s): i is %v, want int", query, path, typ)
			}
		}
		out, err := ExecStmt(catalog, stmt)
		check("ExecStmt", out, err)
		for _, chunk := range []int{1, 7, 1024} {
			for _, workers := range []int{1, 4} {
				rs, err := ExecStreamStmt(catalog, stmt, StreamOptions{ChunkRows: chunk, Parallelism: workers})
				if err == nil {
					out, err = rs.Drain(nil)
				}
				check(fmt.Sprintf("stream chunk=%d workers=%d", chunk, workers), out, err)
			}
		}
	}
}

// TestTypedOperatorsAllocateNoRowValues: an expression that compiles runs as
// a kernel in every operator position — WHERE, a projection item, an ORDER BY
// key, a GROUP BY key, an aggregate argument — so a statement over one
// 10k-row morsel allocates per column, never per row. The row evaluator
// allocates at least once per row (each row's Env); a typed operator that
// silently took the row path would fail here.
func TestTypedOperatorsAllocateNoRowValues(t *testing.T) {
	const rows = 10_000
	catalog := NewMapCatalog(benchTables(rows))
	allocs := func(query string) float64 {
		stmt := mustParse(t, query)
		return testing.AllocsPerRun(3, func() {
			if _, err := ExecStmt(catalog, stmt); err != nil {
				t.Fatalf("%s: %v", query, err)
			}
		})
	}
	for _, query := range []string{
		"SELECT id FROM big WHERE k % 7 > 2 AND v >= 10.5",
		"SELECT id * 2 + v AS x, s FROM big",
		"SELECT id, s FROM big ORDER BY v * -1, id",
		"SELECT COUNT(*) AS c FROM big GROUP BY k % 13",
		"SELECT s, SUM(v * 2) AS sv, MAX(id - k) AS m FROM big GROUP BY s",
	} {
		if n := allocs(query); n > rows/20 {
			t.Errorf("%s allocates %.0f times over %d rows; a kernel allocates per column", query, n, rows)
		}
	}
	if n := allocs("SELECT id FROM big WHERE UPPER(s) = 'ETA'"); n < rows {
		t.Errorf("a row-evaluated WHERE allocates %.0f times over %d rows; the bound above cannot tell it from a kernel", n, rows)
	}
}

// TestSkippedRowsContract pins the semantics contract for erroring
// expressions: the pipeline may skip an expression on rows that cannot reach
// the result — rows with a null join key, rows past an early-stopping LIMIT —
// and then answers where the reference fails; it never raises an error the
// reference does not.
func TestSkippedRowsContract(t *testing.T) {
	const rows = 3000
	n := make([]int64, rows)
	s := make([]string, rows)
	k := make([]int64, rows)
	kNulls := make([]bool, rows)
	for i := range n {
		n[i], s[i], k[i] = int64(i), "x", int64(i%10)
		kNulls[i] = i >= 2000 // only rows with a null key reach the error below
	}
	catalog := NewMapCatalog(map[string]*dataset.Table{
		"u": dataset.MustNewTable("u", dataset.IntColumn("n", n, nil), dataset.StringColumn("s", s, nil), dataset.IntColumn("k", k, kNulls)),
		"w": dataset.MustNewTable("w", dataset.IntColumn("k", []int64{1, 2, 0}, []bool{false, false, true})),
	})
	// IF(n >= 2000, s, n) - 1 fails on every row from 2000 on (string minus
	// int); the row evaluator answers it, since IF does not compile.
	const failing = "IF(n >= 2000, s, n) - 1"
	for _, tc := range []struct {
		query        string
		refFails     bool
		pipelineRows int // -1: the pipeline fails too
	}{
		// Rows the result needs are evaluated on both paths.
		{"SELECT n FROM u WHERE " + failing + " > -100", true, -1},
		{"SELECT " + failing + " AS x FROM u", true, -1},
		{"SELECT n FROM u ORDER BY " + failing, true, -1},
		// The LIMIT push-down: a row-evaluated predicate stops at the budget,
		// on both paths, so the rows past it raise nothing.
		{"SELECT n FROM u WHERE " + failing + " > -100 LIMIT 5", false, 5},
		{"SELECT " + failing + " AS x FROM u LIMIT 10 OFFSET 5", false, 10},
		// An early-stopping LIMIT over DISTINCT: the reference filters every
		// row first; the pipeline stops pulling morsels once it has the rows.
		{"SELECT DISTINCT k FROM u WHERE " + failing + " > -100 LIMIT 3", true, 3},
		// A null join key: the reference checks the residual on null-keyed
		// pairs too; the pipeline never pairs them.
		{"SELECT u.n FROM u JOIN w ON u.k = w.k AND IF(u.k IS NULL, u.s, 0) - 1 > 0", true, 0},
	} {
		stmt := mustParse(t, tc.query)
		_, refErr := ExecStmtOptions(catalog, stmt, Options{DisableVectorized: true})
		if (refErr != nil) != tc.refFails {
			t.Fatalf("%s: reference error %v, want failure %v", tc.query, refErr, tc.refFails)
		}
		if refErr != nil && !strings.Contains(refErr.Error(), "cannot apply - to string and int") {
			t.Fatalf("%s: reference error %v", tc.query, refErr)
		}
		for _, opts := range []StreamOptions{{}, {ChunkRows: 64}, {ChunkRows: 64, Parallelism: 4}} {
			rs, err := ExecStreamStmt(catalog, stmt, opts)
			var out *dataset.Table
			if err == nil {
				out, err = rs.Drain(nil)
			}
			switch {
			case tc.pipelineRows < 0 && err == nil:
				t.Errorf("%s (%+v): the pipeline answered %d rows; the reference fails on rows the result needs", tc.query, opts, out.NumRows())
			case tc.pipelineRows < 0:
			case err != nil:
				t.Errorf("%s (%+v): %v; the failing rows cannot reach the result", tc.query, opts, err)
			case out.NumRows() != tc.pipelineRows:
				t.Errorf("%s (%+v): %d rows, want %d", tc.query, opts, out.NumRows(), tc.pipelineRows)
			}
		}
	}
}
