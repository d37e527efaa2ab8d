package sqlengine

import (
	"fmt"
	"math/rand"
	"testing"
)

// The fuzz targets are seeded from the differential corpus, so a plain
// `go test` replays every corpus statement through them; `go test -fuzz`
// mutates from there.

func addCorpusSeeds(f *testing.F) {
	for _, q := range CorpusQueries(rand.New(rand.NewSource(1)), 40) {
		f.Add(q)
	}
}

// FuzzSQLParse: Parse never panics, and a statement that parses renders to
// SQL that parses back to the same rendering.
func FuzzSQLParse(f *testing.F) {
	addCorpusSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			return
		}
		again, err := Parse(stmt.String())
		if err != nil {
			t.Fatalf("%q parsed, but its rendering %q does not: %v", src, stmt.String(), err)
		}
		if again.String() != stmt.String() {
			t.Fatalf("rendering of %q is not a fixed point:\n%s\n%s", src, stmt.String(), again.String())
		}
	})
}

// FuzzEngineVsReference: over a fixed catalog, whatever statement the row
// reference answers, the morsel pipeline (small chunks, two workers) answers
// with the same table, and the stream leaves no goroutine behind. Where the
// reference fails the pipeline may fail too or — having skipped an expression
// on rows that cannot reach the result (null join keys, rows past an
// early-stopping LIMIT) — still answer; the corpus suites pin the strict
// error-or-table agreement on statements without such rows.
func FuzzEngineVsReference(f *testing.F) {
	addCorpusSeeds(f)
	for _, q := range groupedCases {
		f.Add(q)
	}
	catalog := NewMapCatalog(CorpusTables(rand.New(rand.NewSource(1)), 120, 40))
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			return
		}
		ref, err := ExecStmtOptions(catalog, stmt, Options{DisableVectorized: true})
		if err != nil {
			return
		}
		assertNoLeaks := leakCheck(t, t.TempDir())
		rs, err := ExecStreamStmt(catalog, stmt, StreamOptions{ChunkRows: 32, Parallelism: 2})
		if err != nil {
			t.Fatalf("%q: the reference answers, the pipeline fails to build: %v", src, err)
		}
		out, err := rs.Drain(nil)
		if err != nil {
			t.Fatalf("%q: the reference answers, the pipeline fails: %v", src, err)
		}
		if !out.Equal(ref) {
			t.Fatalf("result divergence for %q:\nstream:\n%s\nreference:\n%s", src, out, ref)
		}
		assertNoLeaks()
	})
}

// TestMetamorphicPredicatePartition: under three-valued logic every row
// satisfies exactly one of p, NOT (p) and (p) IS NULL, so the three filtered
// row counts add up to the table's — at one worker and at four.
func TestMetamorphicPredicatePartition(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	tables := CorpusTables(rng, 300, 10)
	catalog := NewMapCatalog(tables)
	count := func(where string, workers int) int {
		t.Helper()
		rs, err := ExecStream(catalog, "SELECT i FROM t1 WHERE "+where, StreamOptions{ChunkRows: 64, Parallelism: workers})
		if err != nil {
			t.Fatalf("WHERE %s: %v", where, err)
		}
		out, err := rs.Drain(nil)
		if err != nil {
			t.Fatalf("WHERE %s: %v", where, err)
		}
		return out.NumRows()
	}
	for i := 0; i < 60; i++ {
		p := CorpusPredicate(rng, "", rng.Intn(3))
		for _, workers := range []int{1, 4} {
			yes, no, unknown := count(p, workers), count(fmt.Sprintf("NOT (%s)", p), workers), count(fmt.Sprintf("(%s) IS NULL", p), workers)
			if total := tables["t1"].NumRows(); yes+no+unknown != total {
				t.Errorf("workers=%d: %s: %d true + %d false + %d null != %d rows", workers, p, yes, no, unknown, total)
			}
		}
	}
}
