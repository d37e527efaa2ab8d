package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"datachat/internal/dataset"
	"datachat/internal/sqlengine"
)

// The stream experiment measures what morsel-driven execution buys: time to
// first output chunk should be decoupled from table size (it reflects one
// morsel of work, not the whole scan), the engine's peak buffered rows
// should stay near-constant as input grows for streaming shapes (filters
// and projections buffer nothing; a group-by buffers only its groups), and
// intra-operator parallelism should scale the drain across the worker grid.
// Buffered execution of the same statement is the baseline, and every
// streamed cell is checked cell-for-cell against it — a divergence fails the
// experiment (and dcbench exits nonzero) instead of producing a wrong table
// quickly.

// StreamCase is one (query shape, scale, workers) cell.
type StreamCase struct {
	Query string `json:"query"` // "filter" or "groupby"
	Scale int    `json:"scale"` // multiplier over the base row count
	Rows  int    `json:"rows"`
	// Workers is the morsel pipeline worker setting for the cell; 1 runs the
	// same operators inline, without goroutines.
	Workers int `json:"workers"`
	// FirstChunkMs is the latency until the first chunk of rows exists —
	// what a remote client waits before seeing output.
	FirstChunkMs float64 `json:"first_chunk_ms"`
	// DrainMs is the wall time to pull the whole stream.
	DrainMs float64 `json:"drain_ms"`
	// BufferedMs is the wall time of the buffered (materialize-everything)
	// execution of the identical statement.
	BufferedMs float64 `json:"buffered_ms"`
	// PeakBufferedRows is the engine's maximum rows resident in pipeline
	// breakers during the drain — the memory-budget figure.
	PeakBufferedRows int `json:"peak_buffered_rows"`
	RowsOut          int `json:"rows_out"`
}

// SpillCase is one forced-spill cell: the same statement under a memory
// budget far below its state size, which the spill layer completes from
// disk. SpilledRows > 0 is the evidence the budget did not fit in memory.
type SpillCase struct {
	Query            string  `json:"query"`
	Rows             int     `json:"rows"`
	Budget           int     `json:"budget"`
	Workers          int     `json:"workers"`
	DrainMs          float64 `json:"drain_ms"`
	SpillRuns        int     `json:"spill_runs"`
	SpilledRows      int     `json:"spilled_rows"`
	SpilledBytes     int64   `json:"spilled_bytes"`
	PeakBufferedRows int     `json:"peak_buffered_rows"`
	RowsOut          int     `json:"rows_out"`
}

// StreamResult is the full grid for BENCH_stream.json.
type StreamResult struct {
	BaseRows   int          `json:"base_rows"`
	ChunkRows  int          `json:"chunk_rows"`
	WorkerGrid []int        `json:"worker_grid"`
	Cases      []StreamCase `json:"cases"`
	Spill      []SpillCase  `json:"spill"`
}

// streamTable builds an n-row fact table without going through CSV, so the
// 100× scale stays cheap to construct.
func streamTable(n int) *dataset.Table {
	ids := make([]int64, n)
	ks := make([]int64, n)
	vs := make([]float64, n)
	for i := 0; i < n; i++ {
		ids[i] = int64(i)
		ks[i] = int64(i % 13)
		vs[i] = float64(i%1000) / 10
	}
	return dataset.MustNewTable("facts",
		dataset.IntColumn("id", ids, nil),
		dataset.IntColumn("k", ks, nil),
		dataset.FloatColumn("v", vs, nil),
	)
}

// drainStream pulls a stream to completion, timing the first chunk and the
// full drain and assembling the chunks back into one table for the
// divergence check.
func drainStream(rs *sqlengine.RowStream) (full *dataset.Table, firstMs, drainMs float64, err error) {
	start := time.Now()
	seen := 0
	full, err = rs.Drain(func(*dataset.Table) error {
		if seen == 0 {
			firstMs = float64(time.Since(start).Microseconds()) / 1000
		}
		seen++
		return nil
	})
	if err != nil {
		return nil, 0, 0, err
	}
	drainMs = float64(time.Since(start).Microseconds()) / 1000
	return full, firstMs, drainMs, nil
}

// Stream runs the grid: each query shape at 1×, 10×, and 100× of baseRows,
// across every worker setting in workerGrid (nil means 1, 2, 4, 8), plus the
// forced-spill cells.
func Stream(baseRows int, workerGrid []int) (*StreamResult, error) {
	if baseRows <= 0 {
		baseRows = 20_000
	}
	if len(workerGrid) == 0 {
		workerGrid = []int{1, 2, 4, 8}
	}
	queries := []struct{ name, sql string }{
		{"filter", "SELECT id, v FROM facts WHERE v > 25.0 AND k % 3 = 1"},
		{"groupby", "SELECT k, SUM(v), COUNT(*) FROM facts GROUP BY k"},
	}
	res := &StreamResult{BaseRows: baseRows, ChunkRows: sqlengine.DefaultChunkRows, WorkerGrid: workerGrid}
	for _, scale := range []int{1, 10, 100} {
		n := baseRows * scale
		catalog := sqlengine.NewMapCatalog(map[string]*dataset.Table{"facts": streamTable(n)})
		for _, q := range queries {
			stmt, err := sqlengine.Parse(q.sql)
			if err != nil {
				return nil, fmt.Errorf("stream: parsing %s: %w", q.name, err)
			}
			bufStart := time.Now()
			buf, err := sqlengine.ExecStmtOptions(catalog, stmt, sqlengine.Options{})
			if err != nil {
				return nil, fmt.Errorf("stream: %s at %dx buffered: %w", q.name, scale, err)
			}
			bufMs := float64(time.Since(bufStart).Microseconds()) / 1000
			for _, workers := range workerGrid {
				rs, err := sqlengine.ExecStreamStmt(catalog, stmt, sqlengine.StreamOptions{Parallelism: workers})
				if err != nil {
					return nil, fmt.Errorf("stream: %s at %dx w=%d: %w", q.name, scale, workers, err)
				}
				full, firstMs, drainMs, err := drainStream(rs)
				if err != nil {
					return nil, fmt.Errorf("stream: %s at %dx w=%d drain: %w", q.name, scale, workers, err)
				}
				if !buf.Equal(full.WithName(buf.Name())) {
					return nil, fmt.Errorf("stream: %s at %dx w=%d: streamed table diverges from buffered execution (%d vs %d rows)",
						q.name, scale, workers, full.NumRows(), buf.NumRows())
				}
				res.Cases = append(res.Cases, StreamCase{
					Query: q.name, Scale: scale, Rows: n, Workers: workers,
					FirstChunkMs: firstMs, DrainMs: drainMs, BufferedMs: bufMs,
					PeakBufferedRows: rs.PeakBufferedRows(), RowsOut: full.NumRows(),
				})
			}
		}
	}
	if err := streamSpillCases(res, baseRows, workerGrid); err != nil {
		return nil, err
	}
	return res, nil
}

// streamSpillCases runs the forced-spill cells: a high-cardinality group-by
// whose state is an order of magnitude over the budget must spill, complete
// from disk, and match the unbudgeted buffered result.
func streamSpillCases(res *StreamResult, baseRows int, workerGrid []int) error {
	n := baseRows
	budget := n / 10
	if budget < 64 {
		budget = 64
	}
	catalog := sqlengine.NewMapCatalog(map[string]*dataset.Table{"facts": streamTable(n)})
	const sql = "SELECT id, SUM(v) AS sv, COUNT(*) AS c FROM facts GROUP BY id ORDER BY id"
	stmt, err := sqlengine.Parse(sql)
	if err != nil {
		return fmt.Errorf("stream: parsing spill query: %w", err)
	}
	buf, err := sqlengine.ExecStmtOptions(catalog, stmt, sqlengine.Options{})
	if err != nil {
		return fmt.Errorf("stream: spill buffered reference: %w", err)
	}
	for _, workers := range workerGrid {
		rs, err := sqlengine.ExecStreamStmt(catalog, stmt, sqlengine.StreamOptions{
			Parallelism: workers, MaxBufferedRows: budget,
		})
		if err != nil {
			return fmt.Errorf("stream: spill w=%d: %w", workers, err)
		}
		full, _, drainMs, err := drainStream(rs)
		if err != nil {
			return fmt.Errorf("stream: spill w=%d drain: %w", workers, err)
		}
		if !buf.Equal(full.WithName(buf.Name())) {
			return fmt.Errorf("stream: spill w=%d: spilled table diverges from buffered execution (%d vs %d rows)",
				workers, full.NumRows(), buf.NumRows())
		}
		ss := rs.SpillStats()
		if ss.SpilledRows == 0 {
			return fmt.Errorf("stream: spill w=%d: budget %d over %d groups spilled nothing", workers, budget, n)
		}
		res.Spill = append(res.Spill, SpillCase{
			Query: "groupby-wide", Rows: n, Budget: budget, Workers: workers, DrainMs: drainMs,
			SpillRuns: ss.Runs, SpilledRows: ss.SpilledRows, SpilledBytes: ss.SpilledBytes,
			PeakBufferedRows: rs.PeakBufferedRows(), RowsOut: full.NumRows(),
		})
	}
	return nil
}

// Report renders the grid as the EXPERIMENTS.md table.
func (r *StreamResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Morsel streaming: first-chunk latency, drain scaling, and engine peak memory (chunk=%d)\n", r.ChunkRows)
	b.WriteString("  query    scale  rows      workers  first_chunk(ms)  drain(ms)  buffered(ms)  peak_buffered_rows\n")
	for _, c := range r.Cases {
		fmt.Fprintf(&b, "  %-8s %-6s %-9d %-8d %-16.3f %-10.2f %-13.2f %d\n",
			c.Query, fmt.Sprintf("%dx", c.Scale), c.Rows, c.Workers, c.FirstChunkMs, c.DrainMs, c.BufferedMs, c.PeakBufferedRows)
	}
	if len(r.Spill) > 0 {
		b.WriteString("Disk spill beyond the memory budget (the run completes from disk)\n")
		b.WriteString("  query        rows      budget  workers  drain(ms)  spill_runs  spilled_rows  peak_buffered_rows\n")
		for _, c := range r.Spill {
			fmt.Fprintf(&b, "  %-12s %-9d %-7d %-8d %-10.2f %-11d %-13d %d\n",
				c.Query, c.Rows, c.Budget, c.Workers, c.DrainMs, c.SpillRuns, c.SpilledRows, c.PeakBufferedRows)
		}
	}
	return b.String()
}

// JSON renders the result for BENCH_stream.json.
func (r *StreamResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
