package sqlengine

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"

	"datachat/internal/dataset"
	"datachat/internal/expr"
)

// This file implements morsel-driven streaming execution: statements run as
// operator pipelines over bounded column-chunk batches ("morsels") instead of
// whole materialized tables. Streaming operators (scan, filter, projection,
// OFFSET/LIMIT) hold O(ChunkRows) state; pipeline breakers (ORDER BY sorted
// runs, group states, join build sides, DISTINCT seen-sets) buffer rows under
// an explicit budget. A sort or group-by partition that overflows the budget
// spills runs to disk and merges them streaming (spill.go); operators that
// cannot spill fail loudly with a typed BudgetError. Every operator exists
// once, parameterised by a worker count: the morsel dispatcher
// (stream_parallel.go) runs it inline at one worker and fans chunks out with
// order-preserving reassembly at more, so the chunk sequence is independent
// of the worker count. Statements the pipeline cannot stream exactly fall
// back to whole-statement materialized execution re-chunked on the way out,
// so ExecStream always produces the same rows, in the same order, as the
// row-at-a-time reference path — the differential harness pins both.

// DefaultChunkRows is the morsel size when StreamOptions.ChunkRows is unset.
const DefaultChunkRows = 1024

// StreamOptions tunes streaming execution.
type StreamOptions struct {
	Options

	// ChunkRows bounds the rows per emitted chunk (default DefaultChunkRows).
	ChunkRows int

	// MaxBufferedRows caps the rows pipeline-breaking operators may buffer
	// (sorted runs, group states, join build sides, DISTINCT sets). Zero
	// means unlimited. Overflowing operators spill sorted/partitioned runs
	// to disk when they can (ORDER BY, group-by, DISTINCT) and abort the
	// stream with a *BudgetError when they cannot (join build sides and
	// unmatched-row buffers).
	MaxBufferedRows int

	// Parallelism is the number of pipeline workers morsels are fanned out
	// to. 0 and 1 mean one inline worker (no goroutines), a negative value
	// means GOMAXPROCS; the operators and the chunk sequence they emit are
	// the same at every setting. A LIMIT that may stop the scan early runs
	// on one worker whatever is asked here.
	Parallelism int

	// SpillDir is where spill runs are written (default: the OS temp dir).
	SpillDir string

	// Ctx, when set, cancels parallel workers and releases spill files if
	// it is done before the stream is drained.
	Ctx context.Context
}

func (o StreamOptions) chunkRows() int {
	if o.ChunkRows > 0 {
		return o.ChunkRows
	}
	return DefaultChunkRows
}

// workers resolves Parallelism: 0 → 1 (inline), negative → GOMAXPROCS.
func (o StreamOptions) workers() int {
	switch {
	case o.Parallelism == 0:
		return 1
	case o.Parallelism < 0:
		return runtime.GOMAXPROCS(0)
	default:
		return o.Parallelism
	}
}

// BudgetError reports a pipeline-breaking operator exceeding the configured
// memory budget. It is loud and typed so callers can distinguish "query needs
// more memory than allowed" from semantic errors.
type BudgetError struct {
	Op       string // operator that overflowed: order-by, group-by, join-build, …
	Buffered int    // rows buffered across live operators when the budget broke
	Budget   int    // configured MaxBufferedRows
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("sql: streaming %s exceeded the memory budget: %d buffered rows > %d allowed",
		e.Op, e.Buffered, e.Budget)
}

// streamExec carries per-stream execution state: the shared executor (for the
// helpers both paths use), the buffered-row accounting across operators (one
// budget shared by every operator and partition, charged under a mutex so
// concurrent reducers account correctly), spill-file tracking, and the stop
// functions that tear down parallel workers on close or cancellation.
type streamExec struct {
	ex   *executor
	opts StreamOptions
	nw   int // worker count every operator of this stream runs with

	mu       sync.Mutex
	buffered map[string]int
	curTotal int
	peak     int

	spillMu    sync.Mutex
	spillFiles map[string]bool
	spill      SpillStats

	stopMu  sync.Mutex
	stopFns []func(error)
	closed  bool
	stopErr error
	doneCh  chan struct{}
}

// buffer records that operator op now holds rows buffered rows, enforcing the
// budget over the sum across live operators and tracking the high-water mark.
func (se *streamExec) buffer(op string, rows int) error {
	se.mu.Lock()
	defer se.mu.Unlock()
	prev := se.buffered[op]
	se.curTotal += rows - prev
	se.buffered[op] = rows
	if se.curTotal > se.peak {
		se.peak = se.curTotal
	}
	// Only a growing charge can overflow: an operator releasing memory
	// (rows <= prev) must never be blamed for pressure other live
	// operators are holding, or a spill that just freed its buffers would
	// fail with a budget error attributed to the wrong operator.
	if rows > prev && se.opts.MaxBufferedRows > 0 && se.curTotal > se.opts.MaxBufferedRows {
		return &BudgetError{Op: op, Buffered: se.curTotal, Budget: se.opts.MaxBufferedRows}
	}
	return nil
}

// tryBuffer is buffer's non-committing probe: it records the charge and
// returns true when op holding rows fits the budget, and changes nothing
// (returning false) when it would overflow — the spill trigger.
func (se *streamExec) tryBuffer(op string, rows int) bool {
	se.mu.Lock()
	defer se.mu.Unlock()
	newTotal := se.curTotal + rows - se.buffered[op]
	if se.opts.MaxBufferedRows > 0 && newTotal > se.opts.MaxBufferedRows {
		return false
	}
	se.curTotal = newTotal
	se.buffered[op] = rows
	if se.curTotal > se.peak {
		se.peak = se.curTotal
	}
	return true
}

// forceBuffer commits a charge even past the budget: a deliberate, bounded
// overrun (one group state per partition) that keeps spill passes live when
// sibling operators transiently hold the entire budget.
func (se *streamExec) forceBuffer(op string, rows int) {
	se.mu.Lock()
	se.curTotal += rows - se.buffered[op]
	se.buffered[op] = rows
	if se.curTotal > se.peak {
		se.peak = se.curTotal
	}
	se.mu.Unlock()
}

func (se *streamExec) workers() int { return se.nw }

// onStop registers a teardown hook (pipe stop, sorter disposal) run when the
// stream closes, fails, finishes, or its context is cancelled. If the stream
// is already closed the hook runs immediately.
func (se *streamExec) onStop(fn func(error)) {
	se.stopMu.Lock()
	if se.closed {
		cause := se.stopErr
		se.stopMu.Unlock()
		fn(cause)
		return
	}
	se.stopFns = append(se.stopFns, fn)
	se.stopMu.Unlock()
}

// stopAll tears the stream's workers down and deletes any remaining spill
// files. Idempotent and safe to call from the context watcher concurrently
// with the consumer.
func (se *streamExec) stopAll(cause error) {
	se.stopMu.Lock()
	if se.closed {
		se.stopMu.Unlock()
		return
	}
	se.closed = true
	se.stopErr = cause
	fns := se.stopFns
	se.stopFns = nil
	close(se.doneCh)
	se.stopMu.Unlock()
	for _, fn := range fns {
		fn(cause)
	}
	se.spillMu.Lock()
	for path := range se.spillFiles {
		os.Remove(path)
	}
	se.spillFiles = nil // a writer racing the stop gets its file refused
	se.spillMu.Unlock()
}

// trackSpillFile registers a new spill file for removal at stop. On a stream
// that already stopped it refuses with the stop cause: the file would
// outlive the cleanup pass.
func (se *streamExec) trackSpillFile(path string) error {
	se.spillMu.Lock()
	defer se.spillMu.Unlock()
	if se.spillFiles == nil {
		se.stopMu.Lock()
		defer se.stopMu.Unlock()
		if se.stopErr != nil {
			return se.stopErr
		}
		return errStreamClosed
	}
	se.spillFiles[path] = true
	return nil
}

func (se *streamExec) removeSpillFile(path string) {
	se.spillMu.Lock()
	if se.spillFiles[path] {
		delete(se.spillFiles, path)
		os.Remove(path)
	}
	se.spillMu.Unlock()
}

func (se *streamExec) noteSpillRun(rows int, bytes int64) {
	se.spillMu.Lock()
	se.spill.Runs++
	se.spill.SpilledRows += rows
	se.spill.SpilledBytes += bytes
	se.spillMu.Unlock()
}

func (se *streamExec) spillStats() SpillStats {
	se.spillMu.Lock()
	defer se.spillMu.Unlock()
	return se.spill
}

// RowStream yields a statement's result as a sequence of bounded chunks.
type RowStream struct {
	se       *streamExec
	pull     func() (*dataset.Table, error)
	fellBack bool
	done     bool
	err      error
}

// Next returns the next chunk, or (nil, nil) when the stream is exhausted.
// After an error the stream is dead and Next keeps returning the same error.
func (rs *RowStream) Next() (*dataset.Table, error) {
	if rs.done || rs.err != nil {
		return nil, rs.err
	}
	t, err := rs.pull()
	if err != nil {
		rs.err = err
		rs.se.stopAll(nil)
		return nil, err
	}
	if t == nil {
		rs.Close()
	}
	return t, nil
}

// Close releases the stream's resources — parallel workers and spill files —
// without draining it. Required when abandoning a partially-consumed stream;
// harmless (and optional) after a full drain or an error.
func (rs *RowStream) Close() {
	rs.done = true
	rs.se.stopAll(nil)
}

// FellBack reports whether the statement ran through materialized execution.
func (rs *RowStream) FellBack() bool { return rs.fellBack }

// PeakBufferedRows returns the high-water mark of rows buffered by
// pipeline-breaking operators — the stream's working-set gauge.
func (rs *RowStream) PeakBufferedRows() int {
	rs.se.mu.Lock()
	defer rs.se.mu.Unlock()
	return rs.se.peak
}

// SpillStats returns the stream's disk-spill counters so far.
func (rs *RowStream) SpillStats() SpillStats { return rs.se.spillStats() }

// Workers reports the worker count the stream's operators ran with.
func (rs *RowStream) Workers() int { return rs.se.workers() }

// ReadAll drains the stream into one table. Column types are re-inferred
// across all chunks the way the reference projection does.
func (rs *RowStream) ReadAll() (*dataset.Table, error) {
	return rs.Drain(nil)
}

// Drain consumes the stream into one table, handing each chunk to sink (may
// be nil) before accumulating it — the hook the DAG executor uses to forward
// chunks to a network client while still materializing the full result for
// the session context and the sub-DAG cache. The stream is closed on return,
// whether it was exhausted, failed, or the sink refused a chunk.
func (rs *RowStream) Drain(sink func(*dataset.Table) error) (*dataset.Table, error) {
	defer rs.Close()
	var first *dataset.Table
	var builders []*valueColumnBuilder
	nchunks := 0
	for {
		t, err := rs.Next()
		if err != nil {
			return nil, err
		}
		if t == nil {
			break
		}
		if sink != nil {
			if err := sink(t); err != nil {
				return nil, err
			}
		}
		nchunks++
		if first == nil {
			first = t
			builders = make([]*valueColumnBuilder, t.NumCols())
			for i, name := range t.ColumnNames() {
				builders[i] = newValueColumnBuilder(name)
			}
		}
		if t.NumCols() != len(builders) {
			return nil, fmt.Errorf("sql: stream chunk schema changed mid-stream (%d columns, want %d)", t.NumCols(), len(builders))
		}
		for ci, c := range t.Columns() {
			for r := 0; r < c.Len(); r++ {
				builders[ci].append(c.Value(r))
			}
		}
	}
	if first == nil {
		return nil, fmt.Errorf("sql: stream produced no chunks")
	}
	if nchunks == 1 {
		return first, nil // single chunk: keep its exact column types
	}
	return buildTable("result", builders)
}

// ExecStream parses and streams a SQL query against the catalog.
func ExecStream(catalog Catalog, query string, opts StreamOptions) (*RowStream, error) {
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return ExecStreamStmt(catalog, stmt, opts)
}

// ExecStreamStmt streams a parsed statement. Statement shapes the morsel
// pipeline cannot reproduce exactly (SELECT without FROM, DISTINCT over
// computed projections, DISTINCT/MEDIAN/STDDEV aggregates) fall back to
// materialized execution re-chunked on the way out; FellBack reports that.
func ExecStreamStmt(catalog Catalog, stmt *SelectStmt, opts StreamOptions) (*RowStream, error) {
	se := &streamExec{
		ex:         &executor{catalog: catalog, vec: !opts.DisableVectorized},
		opts:       opts,
		buffered:   map[string]int{},
		spillFiles: map[string]bool{},
		doneCh:     make(chan struct{}),
	}
	if opts.Ctx != nil {
		go func() {
			select {
			case <-opts.Ctx.Done():
				se.stopAll(opts.Ctx.Err())
			case <-se.doneCh:
			}
		}()
	}
	pull, ok, err := se.buildPipeline(stmt)
	if err != nil {
		se.stopAll(nil) // releases the context watcher and any half-built pipe
		return nil, err
	}
	if !ok {
		// Materialized lazily, on the first Next, like every pipeline.
		pull = deferredPull(func() (func() (*dataset.Table, error), error) {
			out, err := se.ex.execSelect(stmt)
			if err != nil {
				return nil, err
			}
			return rechunkTable(out, opts.chunkRows()), nil
		})
	}
	return &RowStream{se: se, pull: pull, fellBack: !ok}, nil
}

// deferredPull postpones a pipeline breaker's whole run to the first chunk
// request, so a stream that is built but never pulled does no work.
func deferredPull(run func() (func() (*dataset.Table, error), error)) func() (*dataset.Table, error) {
	var emit func() (*dataset.Table, error)
	return func() (*dataset.Table, error) {
		if emit == nil {
			e, err := run()
			if err != nil {
				return nil, err
			}
			emit = e
		}
		return emit()
	}
}

// relChunks produces a FROM-clause relation as a sequence of bounded chunks.
// Implementations never emit zero-row chunks; schema is available up front.
type relChunks interface {
	schema() *rel        // zero-row relation carrying columns and qualifiers
	next() (*rel, error) // next chunk; (nil, nil) marks exhaustion
}

// pullRel adapts a chunk source to the morsel dispatcher's pull signature.
func pullRel(in relChunks) func() (*rel, bool, error) {
	return func() (*rel, bool, error) {
		c, err := in.next()
		return c, c != nil, err
	}
}

func windowRel(r *rel, from, to int) *rel {
	out := &rel{cols: make([]*dataset.Column, len(r.cols)), quals: r.quals}
	for i, c := range r.cols {
		out.cols[i] = c.Window(from, to)
	}
	return out
}

// scanChunks yields zero-copy windows over a materialized relation.
type scanChunks struct {
	src   *rel
	off   int
	chunk int
}

func (s *scanChunks) schema() *rel { return windowRel(s.src, 0, 0) }

func (s *scanChunks) next() (*rel, error) {
	n := s.src.numRows()
	if s.off >= n {
		return nil, nil
	}
	end := min(s.off+s.chunk, n)
	out := windowRel(s.src, s.off, end)
	s.off = end
	return out, nil
}

// rechunkRel splits oversized chunks (join fan-out) into bounded windows.
type rechunkRel struct {
	in    relChunks
	chunk int
	cur   *rel
	off   int
}

func (r *rechunkRel) schema() *rel { return r.in.schema() }

func (r *rechunkRel) next() (*rel, error) {
	for {
		if r.cur != nil {
			n := r.cur.numRows()
			if r.off < n {
				end := min(r.off+r.chunk, n)
				out := windowRel(r.cur, r.off, end)
				r.off = end
				return out, nil
			}
			r.cur = nil
		}
		c, err := r.in.next()
		if err != nil || c == nil {
			return nil, err
		}
		if c.numRows() <= r.chunk {
			return c, nil
		}
		r.cur, r.off = c, 0
	}
}

// sourceChunks builds the chunk source for a FROM-clause relation. Base
// tables scan as zero-copy windows; subqueries materialize through the
// standard executor and re-chunk (their results equal the reference by the
// existing differential harness); joins stream their left side.
func (se *streamExec) sourceChunks(ref TableRef) (relChunks, error) {
	switch r := ref.(type) {
	case *BaseTable:
		t, err := se.ex.catalog.Table(r.Name)
		if err != nil {
			return nil, err
		}
		return &scanChunks{src: tableToRel(t, r.Alias), chunk: se.opts.chunkRows()}, nil
	case *Subquery:
		t, err := se.ex.execSelect(r.Stmt)
		if err != nil {
			return nil, err
		}
		alias := r.Alias
		if alias == "" {
			alias = "subquery"
		}
		return &scanChunks{src: tableToRel(t, alias), chunk: se.opts.chunkRows()}, nil
	case *Join:
		jc, err := se.newJoinChunks(r)
		if err != nil {
			return nil, err
		}
		return &rechunkRel{in: jc, chunk: se.opts.chunkRows()}, nil
	default:
		return nil, fmt.Errorf("sql: unsupported table reference %T", ref)
	}
}

// joinChunks streams a join: the right side is fully built (hash table for
// equi-conditions, plain materialization otherwise) and charged against the
// memory budget; left chunks probe it through the morsel dispatcher, which
// preserves chunk order, so probing emits the same sequence at any worker
// count. The build side cannot spill — overflowing it is a BudgetError.
// LEFT JOIN unmatched-row tracking is side-effecting, so the workers only
// report per-row match flags and the consumer folds them into the unmatched
// buffer itself, in chunk order.
type joinChunks struct {
	se                  *streamExec
	j                   *Join
	left                relChunks
	right               *rel
	combined            *rel // schema-level; used for qualified-name resolution only
	leftKeys, rightKeys []int
	build               map[string][]int
	pipe                *parallelPipe[*rel, *joinProbe]
	unmatched           *rel // buffered unmatched left rows (LEFT JOIN)
	extended            bool
	done                bool
}

// joinProbe is one probed left chunk: the matched output rows plus the
// per-left-row match flags the consumer needs for LEFT JOIN bookkeeping.
type joinProbe struct {
	c       *rel // the left chunk that was probed
	out     *rel // combined matched rows (nil when none)
	matched []bool
}

func (se *streamExec) newJoinChunks(j *Join) (*joinChunks, error) {
	left, err := se.sourceChunks(j.Left)
	if err != nil {
		return nil, err
	}
	right, err := se.ex.execRef(j.Right)
	if err != nil {
		return nil, err
	}
	if err := se.buffer("join-build", right.numRows()); err != nil {
		return nil, err
	}
	ls := left.schema()
	jc := &joinChunks{se: se, j: j, left: left, right: right}
	jc.combined = &rel{
		cols:  append(append([]*dataset.Column{}, ls.cols...), right.cols...),
		quals: append(append([]string{}, ls.quals...), right.quals...),
	}
	jc.leftKeys, jc.rightKeys = equiJoinKeys(j.On, ls, right)
	if len(jc.leftKeys) > 0 {
		jc.buildHashTable()
	}
	if j.Kind == LeftJoin {
		cols := make([]*dataset.Column, len(ls.cols))
		for i, c := range ls.cols {
			cols[i] = dataset.NewColumn(c.Name(), c.Type())
		}
		jc.unmatched = &rel{cols: cols, quals: ls.quals}
	}
	jc.pipe = newParallelPipe(se.workers(), 2*se.workers(),
		pullRel(jc.left),
		func(c *rel, _ int) (*joinProbe, error) { return jc.probe(c) },
	)
	se.onStop(jc.pipe.stop)
	return jc, nil
}

// buildHashTable builds the equi-join hash map, range-partitioned across the
// pipeline workers: each worker maps a contiguous slice of right rows, and
// the partials merge in range order, so every key's row list stays in
// ascending right-row order at any worker count.
func (jc *joinChunks) buildHashTable() {
	n := jc.right.numRows()
	w := jc.se.workers()
	if w > n {
		w = 1
	}
	parts := make([]map[string][]int, w)
	fanOut(w, func(p int) {
		lo, hi := p*n/w, (p+1)*n/w
		m := make(map[string][]int, hi-lo)
		for ri := lo; ri < hi; ri++ {
			k := joinKey(jc.right, jc.rightKeys, ri)
			m[k] = append(m[k], ri)
		}
		parts[p] = m
	})
	jc.build = parts[0]
	for _, part := range parts[1:] {
		for k, ris := range part {
			jc.build[k] = append(jc.build[k], ris...)
		}
	}
}

func (jc *joinChunks) schema() *rel { return windowRel(jc.combined, 0, 0) }

func (jc *joinChunks) next() (*rel, error) {
	for {
		if jc.done {
			return nil, nil
		}
		if jc.extended {
			jc.done = true
			if jc.unmatched == nil || jc.unmatched.numRows() == 0 {
				return nil, nil
			}
			return jc.nullExtension(), nil
		}
		p, ok, err := jc.pipe.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			jc.extended = true
			continue
		}
		if jc.unmatched != nil {
			appended := false
			for li, m := range p.matched {
				if m {
					continue
				}
				for ci, col := range jc.unmatched.cols {
					col.Append(p.c.cols[ci].Value(li))
				}
				appended = true
			}
			if appended {
				if err := jc.se.buffer("join-unmatched", jc.unmatched.numRows()); err != nil {
					return nil, err
				}
			}
		}
		if p.out == nil || p.out.numRows() == 0 {
			continue
		}
		return p.out, nil
	}
}

// probe matches one left chunk against the build side. It is pure — shared
// state is read-only — so the dispatcher can run it on any worker.
func (jc *joinChunks) probe(c *rel) (*joinProbe, error) {
	var leftIdx, rightIdx []int
	matched := make([]bool, c.numRows())
	residual := func(li, ri int) (bool, error) {
		if jc.j.On == nil {
			return true, nil
		}
		return expr.EvalBool(jc.j.On, joinEnv{left: c, leftRow: li, right: jc.right, rightRow: ri, combined: jc.combined})
	}
	if jc.build != nil {
		for li := 0; li < c.numRows(); li++ {
			for _, ri := range jc.build[joinKey(c, jc.leftKeys, li)] {
				ok, err := residual(li, ri)
				if err != nil {
					return nil, err
				}
				if ok {
					leftIdx = append(leftIdx, li)
					rightIdx = append(rightIdx, ri)
					matched[li] = true
				}
			}
		}
	} else {
		for li := 0; li < c.numRows(); li++ {
			for ri := 0; ri < jc.right.numRows(); ri++ {
				ok, err := residual(li, ri)
				if err != nil {
					return nil, err
				}
				if ok {
					leftIdx = append(leftIdx, li)
					rightIdx = append(rightIdx, ri)
					matched[li] = true
				}
			}
		}
	}
	p := &joinProbe{c: c, matched: matched}
	if len(leftIdx) == 0 {
		return p, nil
	}
	out := &rel{cols: make([]*dataset.Column, len(jc.combined.cols)), quals: jc.combined.quals}
	nLeft := len(c.cols)
	for ci := range jc.combined.cols {
		if ci < nLeft {
			out.cols[ci] = c.cols[ci].Take(leftIdx)
		} else {
			out.cols[ci] = jc.right.cols[ci-nLeft].Take(rightIdx)
		}
	}
	p.out = out
	return p, nil
}

// nullExtension emits the buffered unmatched left rows with null right sides.
func (jc *joinChunks) nullExtension() *rel {
	n := jc.unmatched.numRows()
	nulls := make([]int, n)
	for i := range nulls {
		nulls[i] = -1
	}
	out := &rel{cols: make([]*dataset.Column, len(jc.combined.cols)), quals: jc.combined.quals}
	nLeft := len(jc.unmatched.cols)
	for ci := range jc.combined.cols {
		if ci < nLeft {
			out.cols[ci] = jc.unmatched.cols[ci]
		} else {
			out.cols[ci] = jc.right.cols[ci-nLeft].Take(nulls)
		}
	}
	return out
}

// buildPipeline assembles the streaming operator pipeline for a statement.
// ok=false means the statement must fall back to materialized execution.
func (se *streamExec) buildPipeline(stmt *SelectStmt) (func() (*dataset.Table, error), bool, error) {
	if stmt.From == nil {
		return nil, false, nil // SELECT without FROM evaluates items once, materialized
	}
	aggs := se.ex.collectAllAggs(stmt)
	grouped := len(stmt.GroupBy) > 0 || len(aggs) > 0
	if grouped {
		for _, a := range aggs {
			if a.Distinct {
				return nil, false, nil
			}
			switch a.Name {
			case "COUNT", "SUM", "AVG", "MIN", "MAX":
			default: // MEDIAN, STDDEV need the full value set per group
				return nil, false, nil
			}
		}
	}

	// A LIMIT that can stop the scan early — un-ordered, and either over a
	// plain scan (rowBudget) or over DISTINCT — runs on one inline worker,
	// which pulls a morsel only when the consumer asks for it. Prefetching
	// workers would evaluate chunks the reference never reaches and could
	// surface their errors. Every other shape consumes its whole input.
	rowBudget := -1
	if !grouped && len(stmt.OrderBy) == 0 && !stmt.Distinct && stmt.Limit >= 0 {
		rowBudget = stmt.Offset + stmt.Limit
	}
	se.nw = se.opts.workers()
	if rowBudget >= 0 || (stmt.Distinct && stmt.Limit >= 0 && len(stmt.OrderBy) == 0) {
		se.nw = 1
	}

	chunks, err := se.sourceChunks(stmt.From)
	if err != nil {
		return nil, false, err
	}
	schema := chunks.schema()

	names, exprs := se.ex.expandItems(stmt.Items, schema)
	plain := true
	plainIdx := make([]int, len(exprs))
	for i, ex := range exprs {
		c, ok := ex.(*expr.Col)
		if !ok {
			plain = false
			break
		}
		idx, err := schema.lookup(c.Name)
		if err != nil {
			plain = false
			break
		}
		plainIdx[i] = idx
	}
	// Streaming DISTINCT dedups on rendered row keys, which include column
	// types; only plain-column projections have chunk-stable output types
	// matching what the materialized path dedups on.
	if stmt.Distinct && !grouped && !plain {
		return nil, false, nil
	}

	var pull func() (*dataset.Table, error)
	switch {
	case grouped:
		pull = se.partitionedGroupedPull(stmt, chunks, aggs, schema)
	case len(stmt.OrderBy) > 0:
		pull = se.orderedPull(stmt, chunks, names, exprs, plain, plainIdx, schema)
	default:
		pull = se.parallelProjectPull(chunks, stmt.Where, rowBudget, names, exprs, plain, plainIdx)
	}
	if !grouped {
		if stmt.Distinct {
			pull = se.parallelDistinctPull(pull)
		}
		if stmt.Offset > 0 || stmt.Limit >= 0 {
			pull = offsetLimitPull(pull, stmt.Offset, stmt.Limit)
		}
	}
	empty := func() (*dataset.Table, error) {
		return se.projectChunk(windowRel(schema, 0, 0), names, exprs, plain, plainIdx)
	}
	return ensureOneChunk(pull, empty), true, nil
}

// projectChunk evaluates the select list over one chunk: zero-copy column
// aliasing for plain references, compiled kernels where they apply, and the
// boxed row loop otherwise. Values are identical across all three; only the
// inferred column types can differ, which result comparison tolerates.
func (se *streamExec) projectChunk(c *rel, names []string, exprs []expr.Expr, plain bool, plainIdx []int) (*dataset.Table, error) {
	if plain {
		cols := make([]*dataset.Column, len(plainIdx))
		for i, idx := range plainIdx {
			cols[i] = c.cols[idx].Rename(names[i])
		}
		return assembleTable("result", cols)
	}
	if se.ex.vec {
		binder := relBinder{c}
		cols := make([]*dataset.Column, len(exprs))
		compiled := true
		for i, ex := range exprs {
			k, ok := expr.Compile(ex, binder, c.numRows())
			if !ok {
				compiled = false
				break
			}
			v, err := k()
			if err != nil {
				return nil, err
			}
			cols[i] = v.Column(names[i])
		}
		if compiled {
			return assembleTable("result", cols)
		}
	}
	builders := make([]*valueColumnBuilder, len(exprs))
	for i, name := range names {
		builders[i] = newValueColumnBuilder(name)
	}
	for i := 0; i < c.numRows(); i++ {
		env := rowEnv{c, i}
		for ci, ex := range exprs {
			v, err := ex.Eval(env)
			if err != nil {
				return nil, err
			}
			builders[ci].append(v)
		}
	}
	return buildTable("result", builders)
}

// filterRel keeps the rows of one morsel that pass where (nil keeps all), at
// most remaining of them (< 0 means unlimited) — the LIMIT push-down budget.
// It returns nil when no row survives.
func (e *executor) filterRel(where expr.Expr, c *rel, remaining int) (*rel, error) {
	if where == nil {
		if remaining >= 0 && c.numRows() > remaining {
			c = windowRel(c, 0, remaining)
		}
		return c, nil
	}
	keep, err := e.filterRows(where, c, remaining)
	switch {
	case err != nil || len(keep) == 0:
		return nil, err
	case len(keep) == c.numRows():
		return c, nil
	}
	return takeRel(c, keep), nil
}

// parallelProjectPull fans source chunks out to the pipeline workers, each
// filtering and projecting its own morsels; reassembly preserves chunk
// order, so the output sequence does not depend on the worker count.
func (se *streamExec) parallelProjectPull(chunks relChunks, where expr.Expr, rowBudget int, names []string, exprs []expr.Expr, plain bool, plainIdx []int) func() (*dataset.Table, error) {
	// LIMIT push-down: only the first rowBudget surviving rows matter. A
	// budget (>= 0) implies one inline worker, so the countdown needs no
	// lock; without one (-1) the workers only read it.
	remaining := rowBudget
	source := pullRel(chunks)
	pipe := newParallelPipe(se.workers(), 2*se.workers(),
		func() (*rel, bool, error) {
			if remaining == 0 {
				return nil, false, nil
			}
			return source()
		},
		func(c *rel, _ int) (*dataset.Table, error) {
			fc, err := se.ex.filterRel(where, c, remaining)
			if err != nil || fc == nil {
				return nil, err
			}
			if remaining > 0 {
				remaining -= fc.numRows()
			}
			return se.projectChunk(fc, names, exprs, plain, plainIdx)
		},
	)
	se.onStop(pipe.stop)
	return func() (*dataset.Table, error) {
		for {
			t, ok, err := pipe.next()
			if err != nil || !ok {
				return nil, err
			}
			if t == nil || t.NumRows() == 0 {
				continue // fully filtered morsel
			}
			return t, nil
		}
	}
}

// orderedRun is one chunk's projected rows and sort keys, built by a
// pipeline worker.
type orderedRun struct {
	vals  [][]dataset.Value // projected rows in input order
	keys  [][]dataset.Value
	order []int // stable sort of row indexes by keys, computed in the worker
}

// orderedPull implements chunked ORDER BY as a sorted-run merge: each input
// chunk becomes a run sorted stably by its keys, built by a pipeline worker
// after it applied WHERE; exhausted input is merged k-way with ties broken
// by run sequence, which reproduces a global stable sort. Buffered rows are
// charged against the budget; overflow merges the buffered runs into an
// on-disk run (a contiguous sequence range, so the final disk+memory merge
// is still the exact stable sort).
func (se *streamExec) orderedPull(stmt *SelectStmt, chunks relChunks, names []string, exprs []expr.Expr, plain bool, plainIdx []int, schema *rel) func() (*dataset.Table, error) {
	var types []dataset.Type
	if plain {
		types = make([]dataset.Type, len(plainIdx))
		for i, idx := range plainIdx {
			types[i] = schema.cols[idx].Type()
		}
	}
	buildRun := func(c *rel, _ int) (*orderedRun, error) {
		fc, err := se.ex.filterRel(stmt.Where, c, -1)
		if err != nil {
			return nil, err
		}
		if fc == nil {
			return &orderedRun{}, nil
		}
		n := fc.numRows()
		r := &orderedRun{vals: make([][]dataset.Value, 0, n), keys: make([][]dataset.Value, 0, n)}
		// One output env reused across the chunk's rows: every row writes
		// the same name set, so per-row maps would only add allocations.
		outRow := make(expr.MapEnv, len(exprs))
		for i := 0; i < n; i++ {
			env := rowEnv{fc, i}
			vals := make([]dataset.Value, len(exprs))
			for ci, ex := range exprs {
				v, err := ex.Eval(env)
				if err != nil {
					return nil, err
				}
				vals[ci] = v
				outRow[names[ci]] = v
			}
			keys := make([]dataset.Value, len(stmt.OrderBy))
			orderEnv := chainEnv{outRow, env}
			for ki, o := range stmt.OrderBy {
				v, err := o.Expr.Eval(orderEnv)
				if err != nil {
					return nil, err
				}
				keys[ki] = v
			}
			r.vals = append(r.vals, vals)
			r.keys = append(r.keys, keys)
		}
		r.order = sortIndexes(len(r.vals), stmt.OrderBy, func(row, k int) dataset.Value { return r.keys[row][k] })
		return r, nil
	}
	pipe := newParallelPipe(se.workers(), 2*se.workers(),
		pullRel(chunks),
		buildRun,
	)
	se.onStop(pipe.stop)
	sorter := newExtSorter(se, "order-by", stmt.OrderBy)
	consumed := false
	var sorted []sortedSource
	consume := func() error {
		seq := 0
		for {
			r, ok, err := pipe.next()
			if err != nil {
				return err
			}
			if !ok {
				sorted = sorter.sources()
				return nil
			}
			if err := sorter.addRun(seq, r.vals, r.keys, r.order); err != nil {
				return err
			}
			seq++
		}
	}
	return func() (*dataset.Table, error) {
		if !consumed {
			consumed = true
			if err := consume(); err != nil {
				return nil, err
			}
		}
		chunkRows := se.opts.chunkRows()
		var rows [][]dataset.Value
		for len(rows) < chunkRows {
			vals, _, ok, err := sorter.mergeStep(sorted)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			rows = append(rows, vals)
		}
		if len(rows) == 0 {
			return nil, nil
		}
		return buildValueChunk(names, types, rows)
	}
}

// buildValueChunk materializes boxed rows into a chunk table, pinning column
// types when the projection is plain (chunk-stable types keep DISTINCT and
// the wire encoding consistent with the materialized path).
func buildValueChunk(names []string, types []dataset.Type, rows [][]dataset.Value) (*dataset.Table, error) {
	if types != nil {
		cols := make([]*dataset.Column, len(names))
		for i, name := range names {
			c := dataset.NewColumn(name, types[i])
			for _, row := range rows {
				c.Append(row[i])
			}
			cols[i] = c
		}
		return assembleTable("result", cols)
	}
	builders := make([]*valueColumnBuilder, len(names))
	for i, name := range names {
		builders[i] = newValueColumnBuilder(name)
	}
	for _, row := range rows {
		for ci := range builders {
			builders[ci].append(row[ci])
		}
	}
	return buildTable("result", builders)
}

// distinctBatch is one chunk with its row keys rendered (and sharded) by a
// pipeline worker.
type distinctBatch struct {
	t     *dataset.Table
	keys  []string
	shard []uint32
}

// parallelDistinctPull drops rows whose rendered row key has been seen,
// keeping first occurrences across chunks. The seen-set is sharded by key
// hash, one shard per worker: pipeline workers render row keys per morsel,
// and per chunk the shards dedup their own key subspace into disjoint slots
// of a keep bitmap. A key always lands in the same shard and chunks are
// processed in input order, so the kept row set is the same at any worker
// count. The budget is charged per shard; overflow hands the remaining input
// to a distinctSpiller (external dedupe on disk).
func (se *streamExec) parallelDistinctPull(in func() (*dataset.Table, error)) func() (*dataset.Table, error) {
	shards := se.workers()
	seen := make([]map[string]bool, shards)
	ops := make([]string, shards)
	for i := range seen {
		seen[i] = map[string]bool{}
		ops[i] = fmt.Sprintf("distinct#%d", i)
	}
	pipe := newParallelPipe(se.workers(), 2*se.workers(),
		func() (*dataset.Table, bool, error) {
			t, err := in()
			return t, t != nil, err
		},
		func(t *dataset.Table, _ int) (*distinctBatch, error) {
			n := t.NumRows()
			b := &distinctBatch{t: t, keys: make([]string, n), shard: make([]uint32, n)}
			for r := 0; r < n; r++ {
				b.keys[r] = streamRowKey(t.Row(r))
				b.shard[r] = hash32str(b.keys[r]) % uint32(shards)
			}
			return b, nil
		},
	)
	se.onStop(pipe.stop)
	var sp *distinctSpiller
	var tail func() (*dataset.Table, error)
	return func() (*dataset.Table, error) {
		for {
			if tail != nil {
				return tail()
			}
			b, ok, err := pipe.next()
			if err != nil {
				return nil, err
			}
			if !ok {
				if sp == nil {
					return nil, nil
				}
				if tail, err = sp.resolve(); err != nil {
					return nil, err
				}
				continue
			}
			if sp != nil {
				if err := sp.add(b.t, b.keys); err != nil {
					return nil, err
				}
				continue
			}
			n := b.t.NumRows()
			keepBits := make([]bool, n)
			fanOut(shards, func(s int) {
				m := seen[s]
				for r := 0; r < n; r++ {
					if int(b.shard[r]) == s && !m[b.keys[r]] {
						m[b.keys[r]] = true
						keepBits[r] = true
					}
				}
			})
			overflow := false
			for s, op := range ops {
				if se.buffer(op, len(seen[s])) != nil {
					overflow = true
				}
			}
			if overflow {
				// This chunk's kept rows are still first occurrences —
				// emitted below, keys flushed into the emitted run.
				var keys []string
				for s, m := range seen {
					for k := range m {
						keys = append(keys, k)
					}
					se.forceBuffer(ops[s], 0)
				}
				if sp, err = newDistinctSpiller(se, "distinct", keys); err != nil {
					return nil, err
				}
				seen = nil
			}
			keep := make([]int, 0, n)
			for r, k := range keepBits {
				if k {
					keep = append(keep, r)
				}
			}
			if len(keep) == n {
				return b.t, nil
			}
			if len(keep) == 0 {
				continue
			}
			return b.t.Take(keep), nil
		}
	}
}

// streamRowKey renders a row the way Table.Distinct does, so streaming
// DISTINCT keeps exactly the rows the materialized path keeps.
func streamRowKey(row []dataset.Value) string {
	var b strings.Builder
	for _, v := range row {
		b.WriteString(v.Type.String())
		b.WriteByte(':')
		b.WriteString(v.String())
		b.WriteByte('\x00')
	}
	return b.String()
}

// offsetLimitPull skips Offset rows and truncates at Limit, streaming.
func offsetLimitPull(in func() (*dataset.Table, error), offset, limit int) func() (*dataset.Table, error) {
	skipped, emitted := 0, 0
	done := false
	return func() (*dataset.Table, error) {
		for {
			if done {
				return nil, nil
			}
			if limit >= 0 && emitted >= limit {
				done = true
				return nil, nil
			}
			t, err := in()
			if err != nil {
				return nil, err
			}
			if t == nil {
				done = true
				return nil, nil
			}
			if t.NumRows() == 0 {
				continue
			}
			if skipped < offset {
				skip := min(offset-skipped, t.NumRows())
				skipped += skip
				if skip == t.NumRows() {
					continue
				}
				t = t.Window(skip, t.NumRows())
			}
			if limit >= 0 {
				if rem := limit - emitted; t.NumRows() > rem {
					t = t.Window(0, rem)
				}
			}
			emitted += t.NumRows()
			return t, nil
		}
	}
}

// ensureOneChunk guarantees the stream emits at least one (possibly empty)
// chunk so consumers always observe the result schema.
func ensureOneChunk(in func() (*dataset.Table, error), empty func() (*dataset.Table, error)) func() (*dataset.Table, error) {
	emitted, done := false, false
	return func() (*dataset.Table, error) {
		if done {
			return nil, nil
		}
		t, err := in()
		if err != nil {
			return nil, err
		}
		if t == nil {
			done = true
			if !emitted {
				return empty()
			}
			return nil, nil
		}
		emitted = true
		return t, nil
	}
}

// rechunkTable re-emits a materialized table as bounded zero-copy windows;
// an empty table still yields one empty chunk carrying the schema.
func rechunkTable(t *dataset.Table, chunk int) func() (*dataset.Table, error) {
	off, done := 0, false
	return func() (*dataset.Table, error) {
		if done {
			return nil, nil
		}
		n := t.NumRows()
		if n == 0 {
			done = true
			return t, nil
		}
		if off >= n {
			done = true
			return nil, nil
		}
		end := min(off+chunk, n)
		out := t.Window(off, end)
		off = end
		return out, nil
	}
}
