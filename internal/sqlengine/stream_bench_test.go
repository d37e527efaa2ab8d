package sqlengine

import (
	"fmt"
	"testing"

	"datachat/internal/dataset"
)

// The streaming benchmarks ride the same catalog as the vectorized ones so
// rows/s figures are comparable across execution models.

const benchStreamQuery = "SELECT id, v FROM big WHERE v > 25.0 AND s != 'zeta'"

// BenchmarkStreamFirstChunk measures time-to-first-rows through the morsel
// pipeline — the latency a remote client sees before any output, which must
// stay flat as the table grows (it scans one morsel, not the table).
func BenchmarkStreamFirstChunk(b *testing.B) {
	catalog := NewMapCatalog(benchTables(100_000))
	stmt, err := Parse(benchStreamQuery)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rs, err := ExecStreamStmt(catalog, stmt, StreamOptions{})
		if err != nil {
			b.Fatal(err)
		}
		chunk, err := rs.Next()
		if err != nil {
			b.Fatal(err)
		}
		if chunk == nil || chunk.NumRows() == 0 {
			b.Fatal("empty first chunk")
		}
	}
}

// benchDrain times full drains of stmt at 1, 2 and 4 pipeline workers — the
// worker scaling grid of one operator set (w=1 runs it inline).
func benchDrain(b *testing.B, catalog MapCatalog, stmt *SelectStmt, rows int) {
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rs, err := ExecStreamStmt(catalog, stmt, StreamOptions{Parallelism: w})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := rs.Drain(func(*dataset.Table) error { return nil }); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkStreamDrain measures full-stream filter throughput across the
// worker grid, against the buffered execution of the identical statement.
func BenchmarkStreamDrain(b *testing.B) {
	const n = 100_000
	catalog := NewMapCatalog(benchTables(n))
	stmt, err := Parse(benchStreamQuery)
	if err != nil {
		b.Fatal(err)
	}
	benchDrain(b, catalog, stmt, n)
	b.Run("buffered", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ExecStmtOptions(catalog, stmt, Options{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	})
}

// BenchmarkStreamGroupBy measures the partitioned hash group-by, whose
// pipeline breaker buffers groups rather than input rows.
func BenchmarkStreamGroupBy(b *testing.B) {
	const n = 100_000
	catalog := NewMapCatalog(benchTables(n))
	stmt, err := Parse("SELECT k, SUM(v), COUNT(*) FROM big GROUP BY k")
	if err != nil {
		b.Fatal(err)
	}
	benchDrain(b, catalog, stmt, n)
}

// BenchmarkStreamOrderBy measures the sorted-run merge path (run building,
// k-way merge, chunk assembly).
func BenchmarkStreamOrderBy(b *testing.B) {
	catalog := NewMapCatalog(benchTables(100_000))
	stmt, err := Parse("SELECT id, v FROM big ORDER BY v, id")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rs, err := ExecStreamStmt(catalog, stmt, StreamOptions{Parallelism: -1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rs.Drain(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestOrderedPullAllocsPerRow guards the hoisted projection environment in
// the ORDER BY run builder: the per-row cost is the boxed row and key slices,
// not a fresh expr.MapEnv per row (the regression this pins used to add a
// map allocation plus its growth to every row).
func TestOrderedPullAllocsPerRow(t *testing.T) {
	const rows = 8192
	catalog := NewMapCatalog(benchTables(rows))
	// A computed projection forces the boxed row loop through the reused env.
	stmt, err := Parse("SELECT id, v * 2.0 AS dv FROM big ORDER BY v, id")
	if err != nil {
		t.Fatal(err)
	}
	perRun := testing.AllocsPerRun(5, func() {
		rs, err := ExecStreamStmt(catalog, stmt, StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rs.Drain(nil); err != nil {
			t.Fatal(err)
		}
	})
	perRow := perRun / rows
	// Row slice + key slice + boxed values + merge/chunk assembly amortized:
	// measures ~11 with the hoisted env; a fresh per-row map env pushes it
	// past 13.
	if perRow > 12 {
		t.Fatalf("ordered path allocates %.1f allocs/row (%.0f total); per-row env hoisting regressed", perRow, perRun)
	}
}
