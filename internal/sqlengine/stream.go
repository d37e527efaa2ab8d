package sqlengine

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

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
// of the worker count. Expressions evaluate as typed kernels over a morsel's
// columns, falling back to the row evaluator per expression, and chunks stay
// typed from the scan to Drain. For the statement shapes whose tail the
// pipeline does not stream, it produces the FROM/WHERE relation and the
// reference executor's tail finishes it, re-chunked on the way out — so
// ExecStream always produces the same rows, in the same order, as the
// row-at-a-time reference path; the differential harness pins both. ExecStmt
// is this pipeline drained on one inline worker; nothing consumes its
// morsels, so it reads each input as one (execStream).
//
// The file also holds what lets a fragment run as typed kernels over a
// morsel's columns: the column binders the kernel compiler resolves names
// through, the join-key encoding, and the counters that record which side
// ran. Everything there replicates the row path's semantics exactly:
// three-valued null logic, Compare's NaN-equals-everything floats, and the
// hash-prefilter-plus-full-residual join contract.

// DefaultChunkRows is the morsel size when StreamOptions.ChunkRows is unset.
const DefaultChunkRows = 1024

// StreamOptions tunes streaming execution.
type StreamOptions struct {
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

// vecStats counts, per pipeline operator of a statement, whether it ran on
// kernels or fell back to the row evaluator — once per operator (on its first
// morsel), not once per morsel. The differential harness asserts both sides
// are exercised; /statsz reports them.
var vecStats struct {
	Filters, FilterFallbacks         atomic.Int64
	Projections, ProjectionFallbacks atomic.Int64
	Groups, GroupFallbacks           atomic.Int64
	Joins, ResidualFallbacks         atomic.Int64
}

// VecCounters snapshots the kernel-execution counters. Keys: filters /
// filter_fallbacks (a WHERE compiled / was evaluated per row), projections /
// projection_fallbacks (a computed select list or ORDER BY key set),
// groups / group_fallbacks (group keys and aggregate arguments), joins (an
// equi join built its byte-keyed hash table), residual_fallbacks (a join's ON
// residual was re-checked per candidate pair).
func VecCounters() map[string]int64 {
	return map[string]int64{
		"filters":              vecStats.Filters.Load(),
		"filter_fallbacks":     vecStats.FilterFallbacks.Load(),
		"projections":          vecStats.Projections.Load(),
		"projection_fallbacks": vecStats.ProjectionFallbacks.Load(),
		"groups":               vecStats.Groups.Load(),
		"group_fallbacks":      vecStats.GroupFallbacks.Load(),
		"joins":                vecStats.Joins.Load(),
		"residual_fallbacks":   vecStats.ResidualFallbacks.Load(),
	}
}

// countFirst bumps kernel, or fallback when the operator could not compile,
// if this is the operator's first morsel.
func countFirst(first, compiled bool, kernel, fallback *atomic.Int64) {
	switch {
	case !first:
	case compiled:
		kernel.Add(1)
	default:
		fallback.Add(1)
	}
}

// streamExec carries per-stream execution state: the reference executor (for
// the catalog, the statement analysis, the per-row fallbacks and the tail of
// the shapes that are not streamed), the buffered-row accounting across operators (one
// budget shared by every operator and partition, charged under a mutex so
// concurrent reducers account correctly), spill-file tracking, and the stop
// functions that tear down parallel workers on close or cancellation.
type streamExec struct {
	ex    *executor
	opts  StreamOptions
	nw    int  // worker count every operator of this stream runs with
	whole bool // each input is one morsel and each output one chunk (morselRows)

	fellBack bool // the reference's tail finishes the statement or one of its FROM-subqueries

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

// onStop registers a teardown hook (a pipe's stop) run when the
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

// morselRows is the morsel size for an input of n rows, and the chunk size
// for an output of n: all n when the stream is whole, ChunkRows otherwise.
func (se *streamExec) morselRows(n int) int {
	if se.whole {
		return max(n, 1)
	}
	return se.opts.chunkRows()
}

// RowStream yields a statement's result as a sequence of bounded chunks.
type RowStream struct {
	se   *streamExec
	pull func() (*dataset.Table, error)
	done bool
	err  error
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

// FellBack reports whether the reference executor's materialized tail
// finished the statement or one of its FROM-subqueries (see ExecStreamStmt).
func (rs *RowStream) FellBack() bool { return rs.se.fellBack }

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
func (rs *RowStream) Workers() int { return rs.se.nw }

// Drain consumes the stream into one table, handing each chunk to sink (may
// be nil) before accumulating it — the hook the DAG executor uses to forward
// chunks to a network client while still materializing the full result for
// the session context and the sub-DAG cache. Chunks are concatenated column
// by column on their typed storage (dataset.ConcatColumns); a single chunk is
// returned as is. The stream is closed on return, whether it was exhausted,
// failed, or the sink refused a chunk.
func (rs *RowStream) Drain(sink func(*dataset.Table) error) (*dataset.Table, error) {
	defer rs.Close()
	var chunks []*dataset.Table
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
		if len(chunks) > 0 && t.NumCols() != chunks[0].NumCols() {
			return nil, fmt.Errorf("sql: stream chunk schema changed mid-stream (%d columns, want %d)", t.NumCols(), chunks[0].NumCols())
		}
		chunks = append(chunks, t)
	}
	if len(chunks) == 0 {
		return nil, fmt.Errorf("sql: stream produced no chunks")
	}
	if len(chunks) == 1 {
		return chunks[0], nil
	}
	cols := make([][]*dataset.Column, len(chunks))
	for i, c := range chunks {
		cols[i] = c.Columns()
	}
	return dataset.NewTable("result", concatCols(cols)...)
}

// concatCols appends chunks of one column set end to end, column by column,
// on their typed storage (dataset.ConcatColumns).
func concatCols(chunks [][]*dataset.Column) []*dataset.Column {
	out := make([]*dataset.Column, len(chunks[0]))
	parts := make([]*dataset.Column, len(chunks))
	for ci := range out {
		for i, cols := range chunks {
			parts[i] = cols[ci]
		}
		out[ci] = dataset.ConcatColumns(parts)
	}
	return out
}

// ExecStream parses and streams a SQL query against the catalog.
func ExecStream(catalog Catalog, query string, opts StreamOptions) (*RowStream, error) {
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return ExecStreamStmt(catalog, stmt, opts)
}

// ExecStreamStmt streams a parsed statement. For the shapes whose tail the
// morsel pipeline cannot reproduce exactly (SELECT without FROM, DISTINCT over
// computed projections, DISTINCT/MEDIAN/STDDEV aggregates) the pipeline scans,
// joins and filters, and the reference executor groups/projects the resulting
// relation, re-chunked on the way out; FellBack reports that.
func ExecStreamStmt(catalog Catalog, stmt *SelectStmt, opts StreamOptions) (*RowStream, error) {
	return execStream(catalog, stmt, opts, false)
}

// execStream builds a statement's stream. A whole stream — ExecStmt's: one
// inline worker, no context, no budget, no sink — reads each input as one
// morsel of its row count and emits its result as one chunk, so a filter
// makes one kernel pass and one gather per column and Drain has nothing to
// concatenate. A LIMIT that can stop the scan early is the exception: it
// still pulls ChunkRows morsels (buildPipeline).
func execStream(catalog Catalog, stmt *SelectStmt, opts StreamOptions, whole bool) (*RowStream, error) {
	se := &streamExec{
		ex:         &executor{catalog: catalog},
		opts:       opts,
		whole:      whole,
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
	pull, err := se.buildPipeline(stmt)
	if err != nil {
		se.stopAll(nil) // releases the context watcher and any half-built pipe
		return nil, err
	}
	return &RowStream{se: se, pull: pull}, nil
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
	if r.boxed != nil {
		out.boxed = make([][]dataset.Value, len(r.boxed))
		for i, vals := range r.boxed {
			if vals != nil {
				out.boxed[i] = vals[from:to]
			}
		}
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

// concatRels appends chunks of one relation end to end on their typed column
// storage; no chunks yield the zero-row schema.
func concatRels(schema *rel, chunks []*rel) *rel {
	if len(chunks) == 0 {
		return schema
	}
	cols := make([][]*dataset.Column, len(chunks))
	for i, c := range chunks {
		cols[i] = c.cols
	}
	return &rel{cols: concatCols(cols), quals: schema.quals}
}

// sourceChunks builds the chunk source for a FROM-clause relation. Base
// tables scan as zero-copy windows; a subquery runs to completion as a stream
// of its own — same chunk size, workers, context and wholeness, no budget:
// its result is held whole either way — and is scanned the same way; joins
// stream their left side.
func (se *streamExec) sourceChunks(ref TableRef) (relChunks, error) {
	switch r := ref.(type) {
	case *BaseTable:
		t, err := se.ex.catalog.Table(r.Name)
		if err != nil {
			return nil, err
		}
		return &scanChunks{src: tableToRel(t, r.Alias), chunk: se.morselRows(t.NumRows())}, nil
	case *Subquery:
		rs, err := execStream(se.ex.catalog, r.Stmt, StreamOptions{
			ChunkRows: se.opts.ChunkRows, Parallelism: se.opts.Parallelism, Ctx: se.opts.Ctx,
		}, se.whole)
		if err != nil {
			return nil, err
		}
		t, err := rs.Drain(nil)
		if err != nil {
			return nil, err
		}
		se.fellBack = se.fellBack || rs.FellBack()
		alias := r.Alias
		if alias == "" {
			alias = "subquery"
		}
		return &scanChunks{src: tableToRel(t, alias), chunk: se.morselRows(t.NumRows())}, nil
	case *Join:
		jc, err := se.newJoinChunks(r)
		switch {
		case err != nil:
			return nil, err
		case se.whole:
			return jc, nil // a probe's output is its one morsel
		}
		return &rechunkRel{in: jc, chunk: se.opts.chunkRows()}, nil
	default:
		return nil, fmt.Errorf("sql: unsupported table reference %T", ref)
	}
}

// sourceRel materializes a FROM-clause relation whole: the build side of a
// join. A base table or subquery is already held; a nested join is drained.
func (se *streamExec) sourceRel(ref TableRef) (*rel, error) {
	chunks, err := se.sourceChunks(ref)
	if err != nil {
		return nil, err
	}
	if scan, ok := chunks.(*scanChunks); ok {
		return scan.src, nil
	}
	var parts []*rel
	for {
		c, err := chunks.next()
		if err != nil {
			return nil, err
		}
		if c == nil {
			return concatRels(chunks.schema(), parts), nil
		}
		parts = append(parts, c)
	}
}

// joinChunks streams a join: the right side is fully built (a hash table on
// byte-encoded keys for equi-conditions, plain materialization otherwise) and
// charged against the memory budget; left chunks probe it through the morsel
// dispatcher, which preserves chunk order, so probing emits the same sequence
// at any worker count. The build side cannot spill — overflowing it is a
// BudgetError. LEFT JOIN unmatched-row tracking is side-effecting, so the
// workers only report per-row match flags and the consumer folds them into
// the unmatched buffer itself, in chunk order.
type joinChunks struct {
	se                  *streamExec
	j                   *Join
	left                relChunks
	right               *rel
	combined            *rel // schema-level; used for qualified-name resolution only
	leftKeys, rightKeys []int
	build               map[string][]int32 // encoded equi-key → right rows, ascending; nil without equi-keys
	pipe                *parallelPipe[*rel, *joinProbe]
	unmatched           []*rel // buffered unmatched left rows (LEFT JOIN), in chunk order
	nUnmatched          int
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
	right, err := se.sourceRel(j.Right)
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
	jc.pipe = newParallelPipe(se, pullRel(jc.left), jc.probe)
	return jc, nil
}

// buildHashTable builds the equi-join hash map, range-partitioned across the
// pipeline workers: each worker maps a contiguous slice of right rows, and
// the partials merge in range order, so every key's row list stays in
// ascending right-row order at any worker count.
func (jc *joinChunks) buildHashTable() {
	n := jc.right.numRows()
	w := jc.se.nw
	if w > n {
		w = 1
	}
	vecs := keyVecs(jc.right, jc.rightKeys)
	parts := make([]map[string][]int32, w)
	fanOut(w, func(p int) {
		lo, hi := p*n/w, (p+1)*n/w
		m := make(map[string][]int32, hi-lo)
		var buf []byte
		for ri := lo; ri < hi; ri++ {
			key, ok := appendJoinKey(buf[:0], vecs, ri)
			buf = key
			if ok {
				m[string(key)] = append(m[string(key)], int32(ri))
			}
		}
		parts[p] = m
	})
	jc.build = parts[0]
	for _, part := range parts[1:] {
		for k, ris := range part {
			jc.build[k] = append(jc.build[k], ris...)
		}
	}
	vecStats.Joins.Add(1)
}

func (jc *joinChunks) schema() *rel { return windowRel(jc.combined, 0, 0) }

func (jc *joinChunks) next() (*rel, error) {
	for {
		if jc.done {
			return nil, nil
		}
		if jc.extended {
			jc.done = true
			if jc.nUnmatched == 0 {
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
		if jc.j.Kind == LeftJoin {
			var miss []int
			for li, m := range p.matched {
				if !m {
					miss = append(miss, li)
				}
			}
			if len(miss) > 0 {
				jc.unmatched = append(jc.unmatched, takeRel(p.c, miss))
				jc.nUnmatched += len(miss)
				if err := jc.se.buffer("join-unmatched", jc.nUnmatched); err != nil {
					return nil, err
				}
			}
		}
		if p.out == nil {
			continue
		}
		return p.out, nil
	}
}

// probe matches one left chunk against the build side. It is pure — shared
// state is read-only — so the dispatcher can run it on any worker. With
// equi-keys the hash table yields candidate pairs and the full ON expression
// is re-checked over all of them as one kernel (per pair when it does not
// compile); without, every pair is checked row by row.
func (jc *joinChunks) probe(c *rel, seq int) (*joinProbe, error) {
	var leftIdx, rightIdx []int
	p := &joinProbe{c: c, matched: make([]bool, c.numRows())}
	if jc.build != nil {
		vecs := keyVecs(c, jc.leftKeys)
		var buf []byte
		for li := 0; li < c.numRows(); li++ {
			key, ok := appendJoinKey(buf[:0], vecs, li)
			buf = key
			if !ok {
				continue
			}
			for _, ri := range jc.build[string(key)] {
				leftIdx = append(leftIdx, li)
				rightIdx = append(rightIdx, int(ri))
			}
		}
		pb := &pairBinder{combined: jc.combined, left: c, right: jc.right, leftIdx: leftIdx, rightIdx: rightIdx, cache: map[int]*dataset.Column{}}
		k, compiled := expr.Compile(jc.j.On, pb, len(leftIdx))
		if seq == 0 && !compiled {
			vecStats.ResidualFallbacks.Add(1)
		}
		keep := 0
		if compiled {
			v, err := k()
			if err != nil {
				return nil, err
			}
			for _, pair := range v.SelectTrue(-1) {
				leftIdx[keep], rightIdx[keep] = leftIdx[pair], rightIdx[pair]
				keep++
			}
		} else {
			for pair, li := range leftIdx {
				ok, err := jc.se.ex.joinResidual(jc.j.On, jc.combined, c, li, jc.right, rightIdx[pair])
				if err != nil {
					return nil, err
				}
				if ok {
					leftIdx[keep], rightIdx[keep] = li, rightIdx[pair]
					keep++
				}
			}
		}
		leftIdx, rightIdx = leftIdx[:keep], rightIdx[:keep]
	} else {
		for li := 0; li < c.numRows(); li++ {
			for ri := 0; ri < jc.right.numRows(); ri++ {
				ok, err := jc.se.ex.joinResidual(jc.j.On, jc.combined, c, li, jc.right, ri)
				if err != nil {
					return nil, err
				}
				if ok {
					leftIdx = append(leftIdx, li)
					rightIdx = append(rightIdx, ri)
				}
			}
		}
	}
	if len(leftIdx) == 0 {
		return p, nil
	}
	for _, li := range leftIdx {
		p.matched[li] = true
	}
	p.out = &rel{cols: make([]*dataset.Column, len(jc.combined.cols)), quals: jc.combined.quals}
	nLeft := len(c.cols)
	for ci := range jc.combined.cols {
		if ci < nLeft {
			p.out.cols[ci] = c.cols[ci].Take(leftIdx)
		} else {
			p.out.cols[ci] = jc.right.cols[ci-nLeft].Take(rightIdx)
		}
	}
	return p, nil
}

// nullExtension emits the buffered unmatched left rows with null right sides.
func (jc *joinChunks) nullExtension() *rel {
	left := concatRels(jc.left.schema(), jc.unmatched)
	nulls := make([]int, jc.nUnmatched)
	for i := range nulls {
		nulls[i] = -1
	}
	out := &rel{cols: append([]*dataset.Column{}, left.cols...), quals: jc.combined.quals}
	for _, col := range jc.right.cols {
		out.cols = append(out.cols, col.Take(nulls))
	}
	return out
}

func keyVecs(r *rel, keys []int) []*expr.Vec {
	vecs := make([]*expr.Vec, len(keys))
	for i, k := range keys {
		v, _ := expr.ColumnVec(r.cols[k])
		vecs[i] = v
	}
	return vecs
}

// appendJoinKey encodes one side's composite join key for row i, or reports
// false when any key cell is null. The hash key is a prefilter — the full ON
// expression is always re-checked per candidate pair — so the encoding only
// needs to preserve the reference's candidate equivalence: numerics (ints,
// floats, bools) normalize to float64 bits the way joinKey's %g render
// normalizes them, NaNs canonicalize, -0 stays distinct from +0, and rows
// with a null key are skipped outright because the residual rejects null
// comparisons anyway.
func appendJoinKey(buf []byte, vecs []*expr.Vec, i int) ([]byte, bool) {
	for _, v := range vecs {
		if v.NullAt(i) {
			return buf, false
		}
		switch v.Type {
		case dataset.TypeInt:
			buf = append(buf, 'n')
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(float64(v.I[i])))
		case dataset.TypeFloat:
			bits := math.Float64bits(v.F[i])
			if v.F[i] != v.F[i] {
				bits = canonicalNaNBits
			}
			buf = append(buf, 'n')
			buf = binary.LittleEndian.AppendUint64(buf, bits)
		case dataset.TypeBool:
			var f float64
			if v.B[i] {
				f = 1
			}
			buf = append(buf, 'n')
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		case dataset.TypeString:
			s := v.S[i]
			buf = append(buf, 's')
			buf = binary.LittleEndian.AppendUint64(buf, uint64(len(s)))
			buf = append(buf, s...)
		case dataset.TypeTime:
			buf = append(buf, 't')
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v.T[i]))
		}
	}
	return buf, true
}

// pairBinder exposes a probed morsel's candidate pairs as columns: a
// reference to a left or right column materializes as a gather over the
// candidate index vector, lazily and at most once per column. This lets the
// full ON residual run as one kernel over all candidate pairs.
type pairBinder struct {
	combined, left, right *rel
	leftIdx, rightIdx     []int
	cache                 map[int]*dataset.Column
}

// BindColumn implements expr.ColumnBinder.
func (b *pairBinder) BindColumn(name string) (*dataset.Column, error) {
	ci, err := b.combined.lookup(name)
	if err != nil {
		return nil, err
	}
	if c, ok := b.cache[ci]; ok {
		return c, nil
	}
	var col *dataset.Column
	if ci < len(b.left.cols) {
		col = b.left.cols[ci].Take(b.leftIdx)
	} else {
		col = b.right.cols[ci-len(b.left.cols)].Take(b.rightIdx)
	}
	b.cache[ci] = col
	return col, nil
}

// selectList is a statement's expanded select list, resolved against the
// FROM relation's schema once per stream.
type selectList struct {
	names []string
	exprs []expr.Expr
	plain []int // source column per item when every item is a plain column reference, else nil
}

func (se *streamExec) newSelectList(stmt *SelectStmt, schema *rel) *selectList {
	sl := &selectList{}
	sl.names, sl.exprs = se.ex.expandItems(stmt.Items, schema)
	sl.plain = plainColumns(sl.exprs, schema)
	return sl
}

// relBinder exposes a rel's columns to the kernel compiler using the same
// qualified-name resolution (and the same ambiguity errors) as rowEnv. A
// boxed column does not bind: only the row evaluator reads its cells.
type relBinder struct{ r *rel }

// BindColumn implements expr.ColumnBinder.
func (b relBinder) BindColumn(name string) (*dataset.Column, error) {
	i, err := b.r.lookup(name)
	if err != nil {
		return nil, err
	}
	if b.r.boxed != nil && b.r.boxed[i] != nil {
		return nil, fmt.Errorf("sql: column %q holds values of several types", name)
	}
	return b.r.cols[i], nil
}

// outputBinder resolves ORDER BY column references the way the row path's
// chainEnv{outRow, rowEnv} does: select-list output names first (exact
// match wins, last duplicate wins, then a unique case-insensitive match),
// then the source relation. An ambiguous fold match errors so the caller
// falls back.
type outputBinder struct {
	names []string
	cols  []*dataset.Column
	src   relBinder
}

// BindColumn implements expr.ColumnBinder.
func (b outputBinder) BindColumn(name string) (*dataset.Column, error) {
	for i := len(b.names) - 1; i >= 0; i-- {
		if b.names[i] == name {
			return b.cols[i], nil
		}
	}
	matchIdx := -1
	matchName := ""
	for i := len(b.names) - 1; i >= 0; i-- {
		if strings.EqualFold(b.names[i], name) {
			if matchIdx >= 0 && b.names[i] != matchName {
				return nil, fmt.Errorf("sql: ambiguous order key %q", name)
			}
			if matchIdx < 0 {
				matchIdx, matchName = i, b.names[i]
			}
		}
	}
	if matchIdx >= 0 {
		return b.cols[matchIdx], nil
	}
	return b.src.BindColumn(name)
}

// buildPipeline assembles the streaming operator pipeline for a statement.
func (se *streamExec) buildPipeline(stmt *SelectStmt) (pull func() (*dataset.Table, error), err error) {
	aggs := se.ex.collectAllAggs(stmt)
	grouped := len(stmt.GroupBy) > 0 || len(aggs) > 0

	// A LIMIT that can stop the scan early — un-ordered, and either over a
	// plain scan (rowBudget) or over DISTINCT — runs on one inline worker,
	// which pulls a ChunkRows morsel only when the consumer asks for it,
	// even in a whole stream. Prefetching workers would evaluate chunks the
	// reference never reaches and could surface their errors. Every other
	// shape consumes its whole input.
	budget := rowBudget(stmt, grouped)
	se.nw = se.opts.workers()
	if budget >= 0 || (stmt.Distinct && stmt.Limit >= 0 && len(stmt.OrderBy) == 0) {
		se.nw, se.whole = 1, false
	}
	if stmt.From == nil {
		return se.referenceTail(stmt, nil), nil // evaluates the items once
	}
	chunks, err := se.sourceChunks(stmt.From)
	if err != nil {
		return nil, err
	}
	schema := chunks.schema()
	sl := se.newSelectList(stmt, schema)
	for _, a := range aggs {
		if a.Distinct || a.Name == "MEDIAN" || a.Name == "STDDEV" {
			return se.referenceTail(stmt, chunks), nil // need the full value set per group
		}
	}
	// Streaming DISTINCT dedups on rendered row keys, which include column
	// types; only plain-column projections have chunk-stable output types
	// matching what the materialized path dedups on.
	if stmt.Distinct && !grouped && sl.plain == nil {
		return se.referenceTail(stmt, chunks), nil
	}

	if grouped {
		pull = se.partitionedGroupedPull(stmt, chunks, aggs, schema)
	} else {
		pull = se.projectPipeline(stmt, chunks, sl, schema, budget)
	}
	empty := func() (*dataset.Table, error) {
		return se.projectChunk(windowRel(schema, 0, 0), sl, false)
	}
	return ensureOneChunk(pull, empty), nil
}

// projectPipeline runs everything after FROM of a statement without
// grouping over chunks: WHERE, the select list, ORDER BY, DISTINCT and
// OFFSET/LIMIT, with at most rowBudget rows scanned for (see rowBudget).
// A grouped statement's finished groups run through it batch by batch, with
// no schema (see orderedPull).
func (se *streamExec) projectPipeline(stmt *SelectStmt, chunks relChunks, sl *selectList, schema *rel, rowBudget int) func() (*dataset.Table, error) {
	var pull func() (*dataset.Table, error)
	if len(stmt.OrderBy) > 0 {
		pull = se.orderedPull(stmt, chunks, sl, schema)
	} else {
		pull = se.parallelProjectPull(chunks, stmt.Where, rowBudget, sl)
	}
	if stmt.Distinct {
		pull = se.parallelDistinctPull(pull)
	}
	if stmt.Offset > 0 || stmt.Limit >= 0 {
		pull = offsetLimitPull(pull, stmt.Offset, stmt.Limit)
	}
	return pull
}

// referenceTail finishes a statement the pipeline does not stream end to end:
// on the first chunk request the pipeline's workers scan, join and filter
// chunks (nil: SELECT without FROM) into the FROM/WHERE relation, and the
// reference executor groups or projects it, re-chunked on the way out.
func (se *streamExec) referenceTail(stmt *SelectStmt, chunks relChunks) func() (*dataset.Table, error) {
	se.fellBack = true
	return deferredPull(func() (func() (*dataset.Table, error), error) {
		source := &rel{}
		if chunks != nil {
			pipe := newParallelPipe(se, pullRel(chunks),
				func(c *rel, seq int) (*rel, error) { return se.filterRel(stmt.Where, c, -1, seq == 0) })
			var kept []*rel
			for {
				c, ok, err := pipe.next()
				if err != nil {
					return nil, err
				}
				if !ok {
					break
				}
				if c != nil {
					kept = append(kept, c)
				}
			}
			source = concatRels(chunks.schema(), kept)
		}
		out, err := se.ex.finishSelect(stmt, source)
		if err != nil {
			return nil, err
		}
		return rechunkTable(out, se.morselRows(out.NumRows())), nil
	})
}

// projectCols evaluates the select list over one chunk as typed columns:
// zero-copy aliasing for plain references, compiled kernels otherwise.
// ok=false means some item needs the row evaluator. A chunk with boxed
// columns is not aliased: what survives of a boxed column takes the type of
// its surviving cells, as the row evaluator's output does.
func (se *streamExec) projectCols(c *rel, sl *selectList) (cols []*dataset.Column, ok bool, err error) {
	cols = make([]*dataset.Column, len(sl.exprs))
	if sl.plain != nil && c.boxed == nil {
		for i, idx := range sl.plain {
			cols[i] = c.cols[idx].Rename(sl.names[i])
		}
		return cols, true, nil
	}
	binder := relBinder{c}
	for i, ex := range sl.exprs {
		k, compiled := expr.Compile(ex, binder, c.numRows())
		if !compiled {
			return nil, false, nil
		}
		v, err := k()
		if err != nil {
			return nil, false, err
		}
		cols[i] = v.Column(sl.names[i])
	}
	return cols, true, nil
}

// projectChunk evaluates the select list over one chunk: typed columns where
// projectCols applies, the boxed row loop otherwise. Values are identical
// either way; only the inferred column types can differ, which result
// comparison tolerates and Drain reconciles.
func (se *streamExec) projectChunk(c *rel, sl *selectList, first bool) (*dataset.Table, error) {
	cols, ok, err := se.projectCols(c, sl)
	if err != nil {
		return nil, err
	}
	countFirst(first && sl.plain == nil, ok, &vecStats.Projections, &vecStats.ProjectionFallbacks)
	if ok {
		return assembleTable("result", cols)
	}
	vals, _, err := projectRows(sl.names, sl.exprs, nil, nil, c.numRows(), func(i int) expr.Env { return rowEnv{c, i} })
	if err != nil {
		return nil, err
	}
	return rowsTable(sl.names, nil, vals)
}

// selectRows returns the indexes of the rows of one morsel that pass where,
// at most limit of them (< 0 means unlimited) — one kernel pass when the
// predicate compiles, the reference's boxed row loop otherwise.
func (se *streamExec) selectRows(where expr.Expr, c *rel, limit int, first bool) ([]int, error) {
	k, compiled := expr.Compile(where, relBinder{c}, c.numRows())
	countFirst(first, compiled, &vecStats.Filters, &vecStats.FilterFallbacks)
	if !compiled {
		return se.ex.filterRows(where, c, limit)
	}
	v, err := k()
	if err != nil {
		return nil, err
	}
	return v.SelectTrue(limit), nil
}

// filterRel keeps the rows of one morsel that pass where (nil keeps all), at
// most remaining of them (< 0 means unlimited) — the LIMIT push-down budget.
// It returns nil when no row survives.
func (se *streamExec) filterRel(where expr.Expr, c *rel, remaining int, first bool) (*rel, error) {
	return se.filterCols(where, c, c, remaining, first)
}

// filterCols is filterRel gathering the surviving rows from out, a subset
// of c's columns, so that columns only the predicate reads are not copied.
func (se *streamExec) filterCols(where expr.Expr, c, out *rel, remaining int, first bool) (*rel, error) {
	if where == nil {
		if remaining >= 0 && out.numRows() > remaining {
			out = windowRel(out, 0, remaining)
		}
		return out, nil
	}
	keep, err := se.selectRows(where, c, remaining, first)
	switch {
	case err != nil || len(keep) == 0:
		return nil, err
	case len(keep) == c.numRows():
		return out, nil
	}
	return takeRel(out, keep), nil
}

// projectMorsel filters one morsel — at most remaining survivors, < 0 for
// all — and projects the survivors; nil when none survive.
func (se *streamExec) projectMorsel(where expr.Expr, c *rel, remaining int, sl *selectList, first bool) (*dataset.Table, error) {
	plain := sl.plain != nil && c.boxed == nil
	out := c
	if plain {
		cols, _, _ := se.projectCols(c, sl) // zero-copy, so project before gathering
		out = &rel{cols: cols}
	}
	fc, err := se.filterCols(where, c, out, remaining, first)
	switch {
	case err != nil || fc == nil:
		return nil, err
	case plain:
		return assembleTable("result", fc.cols)
	}
	return se.projectChunk(fc, sl, first)
}

// parallelProjectPull fans source chunks out to the pipeline workers, each
// filtering and projecting its own morsels; reassembly preserves chunk
// order, so the output sequence does not depend on the worker count.
func (se *streamExec) parallelProjectPull(chunks relChunks, where expr.Expr, rowBudget int, sl *selectList) func() (*dataset.Table, error) {
	// LIMIT push-down: only the first rowBudget surviving rows matter. A
	// budget (>= 0) implies one inline worker, so the countdown needs no
	// lock; without one (-1) the workers only read it.
	remaining := rowBudget
	source := pullRel(chunks)
	pipe := newParallelPipe(se,
		func() (*rel, bool, error) {
			if remaining == 0 {
				return nil, false, nil
			}
			return source()
		},
		func(c *rel, seq int) (*dataset.Table, error) {
			t, err := se.projectMorsel(where, c, remaining, sl, seq == 0)
			if t != nil && remaining > 0 {
				remaining -= t.NumRows()
			}
			return t, err
		},
	)
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

// orderedRun is one morsel's projected rows and sort keys, built by a
// pipeline worker: typed columns when the select list and every key evaluate
// through column references and kernels, boxed rows when an expression needs
// the row evaluator.
type orderedRun struct {
	out  *dataset.Table
	keys []*dataset.Column

	vals  [][]dataset.Value // boxed: projected rows in input order
	bkeys [][]dataset.Value
	order []int // stable sort of the boxed rows by bkeys, computed in the worker
}

func (r *orderedRun) numRows() int {
	if r.out != nil {
		return r.out.NumRows()
	}
	return len(r.vals)
}

// boxed converts a typed run to the external sorter's boxed rows, with the
// run's stable sort computed on the typed keys.
func (r *orderedRun) boxed(desc []bool) (vals, keys [][]dataset.Value, order []int) {
	if r.out == nil {
		return r.vals, r.bkeys, r.order
	}
	n := r.out.NumRows()
	vals, keys = make([][]dataset.Value, n), make([][]dataset.Value, n)
	for i := range vals {
		vals[i] = r.out.Row(i)
		keys[i] = make([]dataset.Value, len(r.keys))
		for k, col := range r.keys {
			keys[i][k] = col.Value(i)
		}
	}
	return vals, keys, dataset.SortIndex(r.keys, desc)
}

// sorted is the run as one table in its ORDER BY order; names are the
// select list's, which a boxed run's column builder needs.
func (r *orderedRun) sorted(names []string, desc []bool) (*dataset.Table, error) {
	if r.out != nil {
		return r.out.Take(dataset.SortIndex(r.keys, desc)), nil
	}
	t, err := rowsTable(names, nil, r.vals)
	if err != nil {
		return nil, err
	}
	return t.Take(r.order), nil
}

func orderDesc(orderBy []OrderItem) []bool {
	desc := make([]bool, len(orderBy))
	for i, o := range orderBy {
		desc[i] = o.Desc
	}
	return desc
}

// buildRun filters, projects and keys one morsel into an ordered run.
func (se *streamExec) buildRun(stmt *SelectStmt, sl *selectList, c *rel, first bool) (*orderedRun, error) {
	fc, err := se.filterRel(stmt.Where, c, -1, first)
	if err != nil {
		return nil, err
	}
	if fc == nil {
		fc = windowRel(c, 0, 0) // fully filtered: an empty typed run
	}
	n := fc.numRows()
	cols, typed, err := se.projectCols(fc, sl)
	if err != nil {
		return nil, err
	}
	var keys []*dataset.Column
	if typed {
		ob := outputBinder{names: sl.names, cols: cols, src: relBinder{fc}}
		for _, o := range stmt.OrderBy {
			k, compiled := expr.Compile(o.Expr, ob, n)
			if !compiled {
				typed = false
				break
			}
			v, err := k()
			if err != nil {
				return nil, err
			}
			keys = append(keys, v.Column(""))
		}
	}
	countFirst(first, typed, &vecStats.Projections, &vecStats.ProjectionFallbacks)
	if typed {
		out, err := assembleTable("result", cols)
		return &orderedRun{out: out, keys: keys}, err
	}
	r := &orderedRun{}
	r.vals, r.bkeys, err = projectRows(sl.names, sl.exprs, nil, stmt.OrderBy, n, func(i int) expr.Env { return rowEnv{fc, i} })
	if err != nil {
		return nil, err
	}
	r.order = sortIndexes(n, stmt.OrderBy, func(row, k int) dataset.Value { return r.bkeys[row][k] })
	return r, nil
}

// orderedPull implements ORDER BY: pipeline workers filter, project and key
// each morsel into a run charged against the budget. While the runs fit and
// are typed, exhausted input is finished by one stable typed sort over their
// concatenation. A run that does not fit (or is boxed) moves everything to
// the external sorter: each run sorted stably by its keys, buffered runs
// merged into an on-disk run on overflow (a contiguous sequence range), and a
// final k-way merge with ties broken by run sequence — the same global stable
// sort. The sorter's rows are built with a plain projection's column types
// from schema; with no schema (a group relation, whose aggregate columns have
// no type before they are finished) the types are inferred per chunk.
func (se *streamExec) orderedPull(stmt *SelectStmt, chunks relChunks, sl *selectList, schema *rel) func() (*dataset.Table, error) {
	desc := orderDesc(stmt.OrderBy)
	var types []dataset.Type
	if sl.plain != nil && schema != nil {
		types = make([]dataset.Type, len(sl.plain))
		for i, idx := range sl.plain {
			types[i] = schema.cols[idx].Type()
		}
	}
	pipe := newParallelPipe(se, pullRel(chunks), func(c *rel, seq int) (*orderedRun, error) {
		return se.buildRun(stmt, sl, c, seq == 0)
	})
	const op = "order-by"
	// consume drains the input into typed runs, or — from the first run that
	// is boxed or overflows the budget — into the external sorter.
	consume := func() (func() (*dataset.Table, error), error) {
		var typed []*orderedRun // every run so far, while they are typed and fit
		var sorter *extSorter
		held := 0
		for seq := 0; ; seq++ {
			r, ok, err := pipe.next()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			n := r.numRows()
			if sorter == nil && r.out != nil && se.tryBuffer(op, held+n) {
				typed = append(typed, r)
				held += n
				continue
			}
			if sorter == nil {
				sorter = newExtSorter(se, op, stmt.OrderBy)
				for i, tr := range typed {
					vals, keys, order := tr.boxed(desc)
					if err := sorter.addRun(i, vals, keys, order); err != nil {
						return nil, err
					}
				}
				typed = nil
			}
			vals, keys, order := r.boxed(desc)
			if err := sorter.addRun(seq, vals, keys, order); err != nil {
				return nil, err
			}
		}
		if sorter != nil {
			return se.chunked(sl.names, types, sorter.rows()), nil
		}
		if len(typed) == 0 {
			return func() (*dataset.Table, error) { return nil, nil }, nil
		}
		outs := make([][]*dataset.Column, len(typed))
		keys := make([][]*dataset.Column, len(typed))
		for i, r := range typed {
			outs[i], keys[i] = r.out.Columns(), r.keys
		}
		all, err := dataset.NewTable("result", concatCols(outs)...)
		if err != nil {
			return nil, err
		}
		return rechunkTable(all.Take(dataset.SortIndex(concatCols(keys), desc)), se.morselRows(all.NumRows())), nil
	}
	return deferredPull(consume)
}

// chunked groups a row source of unknown length into output chunks.
func (se *streamExec) chunked(names []string, types []dataset.Type, next func() ([]dataset.Value, bool, error)) func() (*dataset.Table, error) {
	return func() (*dataset.Table, error) {
		var rows [][]dataset.Value
		for len(rows) < se.morselRows(math.MaxInt) {
			row, ok, err := next()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			rows = append(rows, row)
		}
		if len(rows) == 0 {
			return nil, nil
		}
		return rowsTable(names, types, rows)
	}
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
	shards := se.nw
	seen := make([]map[string]bool, shards)
	ops := make([]string, shards)
	for i := range seen {
		seen[i] = map[string]bool{}
		ops[i] = fmt.Sprintf("distinct#%d", i)
	}
	pipe := newParallelPipe(se,
		func() (*dataset.Table, bool, error) {
			t, err := in()
			return t, t != nil, err
		},
		func(t *dataset.Table, _ int) (*distinctBatch, error) {
			n := t.NumRows()
			b := &distinctBatch{t: t, keys: make([]string, n), shard: make([]uint32, n)}
			for r := 0; r < n; r++ {
				b.keys[r] = streamRowKey(t.Row(r))
				b.shard[r] = hash32(b.keys[r]) % uint32(shards)
			}
			return b, nil
		},
	)
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

// offsetLimitPull skips Offset rows and truncates at Limit, streaming. LIMIT 0
// still pulls once: a pipeline breaker below it evaluates its whole input —
// and surfaces its errors — on the first pull, as the reference does.
func offsetLimitPull(in func() (*dataset.Table, error), offset, limit int) func() (*dataset.Table, error) {
	skipped, emitted := 0, 0
	done := false
	return func() (*dataset.Table, error) {
		for {
			if done {
				return nil, nil
			}
			if limit > 0 && emitted >= limit {
				done = true
				return nil, nil
			}
			t, err := in()
			if err != nil {
				return nil, err
			}
			if t == nil || limit == 0 {
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
