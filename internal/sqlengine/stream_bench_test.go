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
// worker grid, against ExecStmt of the identical statement (the `buffered`
// cell: the same pipeline drained with no sink on one inline worker).
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

// BenchmarkStreamValueSet measures a group-by whose aggregates keep every
// value of their group (MEDIAN, a DISTINCT count), unbudgeted and under a
// budget smaller than the group count, which spills groups to later passes;
// peak-rows is the stream's PeakBufferedRows.
func BenchmarkStreamValueSet(b *testing.B) {
	const n = 100_000
	catalog := NewMapCatalog(benchTables(n))
	stmt, err := Parse("SELECT s, MEDIAN(v), COUNT(DISTINCT k) FROM big GROUP BY s")
	if err != nil {
		b.Fatal(err)
	}
	for _, cell := range []struct {
		name   string
		budget int
	}{{"unbudgeted", 0}, {"budget=4", 4}} {
		b.Run(cell.name, func(b *testing.B) {
			b.ReportAllocs()
			peak := 0
			for i := 0; i < b.N; i++ {
				rs, err := ExecStreamStmt(catalog, stmt, StreamOptions{MaxBufferedRows: cell.budget, SpillDir: b.TempDir()})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := rs.Drain(nil); err != nil {
					b.Fatal(err)
				}
				peak = rs.PeakBufferedRows()
			}
			b.ReportMetric(float64(peak), "peak-rows")
		})
	}
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

// TestOrderedPullAllocsPerRow guards the typed ORDER BY run builder: a
// computed projection and its keys evaluate as kernels per morsel and the
// runs finish with one typed sort, so allocations are per morsel and per
// column (~0.05 per row here), never per row — the boxed builder this
// replaced cost ~11 per row.
func TestOrderedPullAllocsPerRow(t *testing.T) {
	const rows = 8192
	catalog := NewMapCatalog(benchTables(rows))
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
	if perRow := perRun / rows; perRow > 0.25 {
		t.Fatalf("ordered path allocates %.2f allocs/row (%.0f total); the typed run builder is boxing rows", perRow, perRun)
	}
}
