package dag

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"datachat/internal/dataset"
	"datachat/internal/faults"
	"datachat/internal/plan"
	"datachat/internal/skills"
	"datachat/internal/sqlengine"
)

// ExecOptions are one run's options: how RunWith schedules, retries, streams
// and budgets that run. The zero value of every field is the engine default.
// Callers pass it by value, so nothing a run reads can change under it.
type ExecOptions struct {
	// Parallelism bounds the worker pool that executes independent DAG
	// branches. Values <= 0 mean runtime.GOMAXPROCS(0); 1 reproduces strict
	// serial execution (identical results and stats, by the §2.2 equivalence
	// property).
	Parallelism int
	// Retry re-attempts tasks that fail with transient errors, with capped
	// exponential backoff + jitter. The zero policy disables retrying: any
	// task error aborts the run, as before.
	Retry faults.RetryPolicy
	// Deadline bounds one Run's total (virtual) duration: a retry backoff
	// that would cross Now+Deadline is not taken and the task fails with
	// its last error. 0 means no deadline.
	Deadline time.Duration
	// Clock drives backoff sleeps and the deadline; nil means the wall
	// clock. Tests install a faults.VirtualClock so retry schedules
	// spanning minutes execute instantly.
	Clock faults.Clock
	// StreamParallelism sets the morsel pipeline workers inside one streamed
	// SQL task (intra-operator parallelism, distinct from the inter-task
	// worker pool above). 0 inherits Parallelism (so a parallel DAG run also
	// parallelizes within its target fragment, defaulting to GOMAXPROCS);
	// 1 runs the same operators on one inline worker; values > 1 set the
	// worker count directly.
	StreamParallelism int
	// StreamMaxBufferedRows caps the rows streaming pipeline breakers may
	// buffer (sqlengine.StreamOptions.MaxBufferedRows). 0 means unlimited.
	StreamMaxBufferedRows int
	// StreamSpillDir is where budget overflow spills sorted/partitioned runs
	// ("" = the OS temp dir). Spilling engages only with a budget set.
	StreamSpillDir string
	// Stream, when non-nil, receives the target's result chunk-by-chunk. A
	// consolidated target fragment executes through the morsel pipeline and
	// forwards chunks as the engine produces them; any other target shape
	// (direct skill, cache hit, pinned result) re-chunks its materialized
	// table through the sink, so callers always observe the same protocol. A
	// sink error aborts the run. Chunks already forwarded are never re-sent,
	// even if the task retries after a transient failure.
	Stream func(chunk *dataset.Table) error
	// StreamChunkRows bounds the rows per forwarded chunk
	// (<= 0 means sqlengine.DefaultChunkRows).
	StreamChunkRows int
	// CostBudgetBytes caps one request's estimated cloud scan bytes: when
	// the cost model estimates more, the sample-substitution pass degrades
	// the most expensive scans to block samples (results annotated
	// Degraded, never cached). 0 means unlimited.
	CostBudgetBytes int64
}

// clock returns the configured time source.
func (o ExecOptions) clock() faults.Clock {
	if o.Clock != nil {
		return o.Clock
	}
	return faults.Real()
}

// task is one schedulable unit of a Run: a consolidated relational fragment
// executed as a single SQL statement (Figure 4), one direct skill
// application, or the republication of a plan-time cache hit.
type task struct {
	idx  int
	node *plan.Node     // the node whose output the task materializes
	frag *plan.Fragment // non-nil for consolidated SQL tasks

	key         string // sub-DAG cache key; "" when not cacheable
	cacheable   bool
	invalidates bool
	pinned      *skills.Result // plan-time cache hit: republish only

	deps       []int
	dependents []int

	// stream marks the run's target task: when ExecOptions.Stream is set its
	// result flows through the sink chunk-by-chunk. sunk/sunkAny track what
	// was already forwarded so a retried attempt never duplicates rows.
	stream  bool
	sunk    int
	sunkAny bool

	waiting int
	result  *skills.Result
	// stats counts what executing this task did. Only the worker running the
	// task writes it; RunWith sums it into the report once the pool is idle.
	stats Stats
}

// execPlan is the compiled form of one Run: the optimized logical plan plus
// tasks wired by dependency edges. Planning runs serially — lowering, every
// pass, and all cache probes happen before any worker starts, so key
// computation needs no locking.
type execPlan struct {
	opts    ExecOptions
	logical *plan.Plan
	tasks   []*task
	byNode  map[NodeID]*task
	// planStats counts the cache hits the plan-time probe pinned.
	planStats Stats
}

// plan lowers the sub-DAG ending at target, runs the pass pipeline (see
// logicalPlan), and emits tasks: one per SQL fragment, one per remaining
// node. Nodes the cache probe pinned become republish-only tasks with their
// ancestors pruned from the plan entirely.
func (e *Executor) plan(g *Graph, target NodeID, opts ExecOptions) (*execPlan, error) {
	p := &execPlan{opts: opts, byNode: map[NodeID]*task{}}
	lp, err := e.logicalPlan(g, target, opts.CostBudgetBytes, &p.planStats)
	if err != nil {
		return nil, err
	}
	p.logical = lp
	owner := map[int]*task{}
	newTask := func(tail *plan.Node) *task {
		t := &task{idx: len(p.tasks), node: tail}
		p.tasks = append(p.tasks, t)
		return t
	}
	for i := range lp.Fragments {
		frag := &lp.Fragments[i]
		t := newTask(lp.Node(frag.Nodes[len(frag.Nodes)-1]))
		t.frag = frag
		for _, id := range frag.Nodes {
			owner[id] = t
		}
	}
	for _, n := range lp.Nodes {
		if owner[n.ID] != nil {
			continue
		}
		t := newTask(n)
		t.pinned = n.Pinned
		owner[n.ID] = t
	}
	for _, t := range p.tasks {
		t.key = t.node.Key
		t.cacheable = e.UseCache && t.key != ""
		members := []*plan.Node{t.node}
		if t.frag != nil {
			members = members[:0]
			for _, id := range t.frag.Nodes {
				members = append(members, lp.Node(id))
			}
		}
		depSeen := map[int]bool{}
		for _, m := range members {
			if m.Invalidates {
				t.invalidates = true
			}
			p.byNode[NodeID(m.ID)] = t
			for _, aid := range m.Absorbed {
				p.byNode[NodeID(aid)] = t
			}
			for _, in := range m.Inputs {
				if in.Node == plan.External {
					continue
				}
				dep := owner[in.Node]
				if dep == nil || dep == t {
					continue
				}
				if !depSeen[dep.idx] {
					depSeen[dep.idx] = true
					t.deps = append(t.deps, dep.idx)
					dep.dependents = append(dep.dependents, t.idx)
				}
			}
		}
	}
	if t := p.byNode[target]; t != nil {
		t.stream = true
	}
	return p, nil
}

// isCancellation reports whether err is (or wraps) context cancellation —
// the collateral error of a sibling task cancelled mid-retry, less
// informative than whatever caused the cancel.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// runPlan executes a compiled plan on a bounded worker pool. Workers pull
// ready tasks (all dependencies satisfied), execute them, publish their
// outputs, and release dependents. The first error stops scheduling and
// cancels the run context, which aborts the retry backoffs of in-flight
// siblings; attempts already executing finish before runPlan returns. The
// recorded first error prefers a task's real failure over the cancellation
// errors it causes downstream.
func (e *Executor) runPlan(ctx context.Context, p *execPlan) error {
	workers := p.opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(p.tasks) {
		workers = len(p.tasks)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var deadline time.Time
	if p.opts.Deadline > 0 {
		deadline = p.opts.clock().Now().Add(p.opts.Deadline)
	}

	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		ready    []*task
		done     int
		active   int
		firstErr error
	)
	for _, t := range p.tasks {
		t.waiting = len(t.deps)
		if t.waiting == 0 {
			ready = append(ready, t)
		}
	}

	worker := func() {
		mu.Lock()
		for {
			if firstErr != nil || done == len(p.tasks) {
				mu.Unlock()
				return
			}
			if len(ready) == 0 {
				if active == 0 {
					// Cannot happen for a well-formed plan (it is a DAG);
					// guard so a planner bug stalls loudly, not silently.
					firstErr = fmt.Errorf("dag: internal: scheduler stalled with %d/%d tasks done", done, len(p.tasks))
					cond.Broadcast()
					mu.Unlock()
					return
				}
				cond.Wait()
				continue
			}
			t := ready[len(ready)-1]
			ready = ready[:len(ready)-1]
			active++
			mu.Unlock()

			res, err := e.executeTask(ctx, p, t, deadline)

			mu.Lock()
			active--
			done++
			if err != nil {
				if firstErr == nil || (isCancellation(firstErr) && !isCancellation(err)) {
					firstErr = err
				}
				cancel()
			} else {
				t.result = res
				for _, di := range t.dependents {
					dep := p.tasks[di]
					dep.waiting--
					if dep.waiting == 0 {
						ready = append(ready, dep)
					}
				}
			}
			cond.Broadcast()
		}
	}

	if workers <= 1 {
		worker()
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for i := 0; i < workers; i++ {
			go func() {
				defer wg.Done()
				worker()
			}()
		}
		wg.Wait()
	}
	return firstErr
}

// executeTask runs one task: republish a pinned plan-time cache hit, or
// execute — through the cache for cacheable tasks, sharing identical
// in-flight computations across sessions — and publish the output into
// the session context. The retry loop runs inside the cache's singleflight,
// so concurrent callers of the same key wait out the leader's retries
// instead of racing their own.
func (e *Executor) executeTask(ctx context.Context, p *execPlan, t *task, deadline time.Time) (*skills.Result, error) {
	var res *skills.Result
	switch {
	case t.pinned != nil:
		res = t.pinned
	case t.cacheable:
		// A source result (a file parse, a warehouse scan) starts every
		// analysis of its source, and a streamed target is kept whole
		// (DESIGN §15): both go to the cache's main segment at once.
		do := e.cache.Do
		if t.node.Source || (t.stream && p.opts.Stream != nil) {
			do = e.cache.DoMain
		}
		r, hit, err := do(t.key, func() (*skills.Result, error) {
			return e.execTaskRetry(ctx, p, t, deadline)
		})
		if err != nil {
			return nil, err
		}
		if hit {
			t.stats.CacheHits++
		} else {
			t.stats.CacheMisses++
		}
		res = r
	default:
		r, err := e.execTaskRetry(ctx, p, t, deadline)
		if err != nil {
			return nil, err
		}
		res = r
	}
	if res != nil && res.Table != nil && !res.Degraded && t.node.Substituted {
		// A budget-substituted scan ran as a block sample: label the answer.
		// The substituted node is volatile and keyless, so the degraded
		// result was never stored by the cache arm above.
		wrapped := *res
		wrapped.Degraded = true
		wrapped.DegradedNote = t.node.SubstituteNote
		res = &wrapped
		t.stats.Degraded++
	}
	if res != nil && !res.Degraded {
		// Honesty propagates: anything computed from a degraded input is
		// itself degraded. Dependency results were published before this
		// task became ready, so the reads are ordered by the scheduler lock.
		for _, di := range t.deps {
			if dep := p.tasks[di].result; dep != nil && dep.Degraded {
				wrapped := *res
				wrapped.Degraded = true
				wrapped.DegradedNote = dep.DegradedNote
				res = &wrapped
				break
			}
		}
	}
	if e.CostModel && e.statsReg != nil && t.pinned == nil &&
		res != nil && res.Table != nil && !res.Degraded && t.node.Fingerprint != "" {
		// Feed measured output size back to the cost model; degraded
		// (sampled) outputs would poison full-scan estimates, so skip them.
		e.statsReg.Observe(t.node.Fingerprint, plan.ObservedStats{
			Rows:  int64(res.Table.NumRows()),
			Bytes: plan.ApproxTableBytes(res.Table),
		})
	}
	// A streamed target whose chunks did not flow live — a plan-time pin, a
	// cache hit or a direct skill — still owes
	// the sink its rows: re-chunk the materialized table so remote clients
	// observe one protocol regardless of where the result came from.
	if t.stream && p.opts.Stream != nil && !t.sunkAny && res != nil && res.Table != nil {
		if err := streamTable(p.opts, t, res.Table); err != nil {
			return nil, err
		}
	}
	e.materialize(t, res)
	if t.invalidates {
		// Snapshot creation/refresh changes source data out from under every
		// cached key; bump the generation so nothing stale survives.
		e.cache.Invalidate()
	}
	return res, nil
}

// execTaskRetry executes a task body under the run's retry policy: transient
// errors re-attempt with capped backoff + jitter (per-task jitter streams are
// decorrelated by task index), permanent errors and plain execution errors
// fail immediately, and a backoff that would cross the run deadline is not
// taken.
func (e *Executor) execTaskRetry(ctx context.Context, p *execPlan, t *task, deadline time.Time) (*skills.Result, error) {
	pol := p.opts.Retry
	pol.Seed += int64(t.idx)
	res, stats, err := faults.Do(ctx, p.opts.clock(), pol, deadline, nil,
		func() (*skills.Result, error) { return e.execTaskBody(ctx, p.opts, t) })
	if stats.Attempts > 1 {
		t.stats.Retries += stats.Attempts - 1
	}
	if err != nil {
		if faults.IsPermanent(err) {
			t.stats.PermanentFailures++
		}
		return nil, err
	}
	if res != nil && res.Degraded {
		t.stats.Degraded++
	}
	return res, nil
}

func (e *Executor) execTaskBody(ctx context.Context, opts ExecOptions, t *task) (*skills.Result, error) {
	if t.frag != nil {
		return e.execChainStream(ctx, opts, t)
	}
	return e.execDirect(t)
}

// chunkRows returns the configured sink chunk size.
func (o ExecOptions) chunkRows() int {
	if o.StreamChunkRows > 0 {
		return o.StreamChunkRows
	}
	return sqlengine.DefaultChunkRows
}

// streamParallelism resolves the morsel worker count for a streamed fragment:
// an explicit StreamParallelism wins; otherwise the fragment inherits the DAG
// pool setting, so Parallelism 1 keeps the whole run on one goroutine and the default
// parallel run also parallelizes inside its target (-1 = GOMAXPROCS to the
// engine).
func (o ExecOptions) streamParallelism() int {
	if o.StreamParallelism != 0 {
		return o.StreamParallelism
	}
	if o.Parallelism <= 0 {
		return -1
	}
	return o.Parallelism
}

// emitChunk forwards one chunk to the sink, skipping any prefix a previous
// attempt of the same task already delivered. seen is the running row count
// of the current attempt before this chunk.
func emitChunk(sink func(*dataset.Table) error, t *task, chunk *dataset.Table, seen int) error {
	n := chunk.NumRows()
	if n == 0 {
		// Empty chunks only exist to carry the schema; one is enough.
		if t.sunkAny {
			return nil
		}
		if err := sink(chunk); err != nil {
			return err
		}
		t.sunkAny = true
		t.stats.StreamedChunks++
		return nil
	}
	if seen+n <= t.sunk {
		return nil
	}
	if seen < t.sunk {
		chunk = chunk.Window(t.sunk-seen, n)
	}
	if err := sink(chunk); err != nil {
		return err
	}
	t.sunk = seen + n
	t.sunkAny = true
	t.stats.StreamedChunks++
	t.stats.StreamedRows += chunk.NumRows()
	return nil
}

// streamTable re-chunks a materialized table through the sink (the cache-hit
// and direct-skill arm of target streaming).
func streamTable(opts ExecOptions, t *task, tab *dataset.Table) error {
	n := tab.NumRows()
	if n == 0 {
		return emitChunk(opts.Stream, t, tab, 0)
	}
	chunk := opts.chunkRows()
	for off := 0; off < n; off += chunk {
		end := off + chunk
		if end > n {
			end = n
		}
		if err := emitChunk(opts.Stream, t, tab.Window(off, end), off); err != nil {
			return err
		}
	}
	return nil
}

// execChainStream runs a consolidated relational fragment — one flattened SQL
// statement the consolidation pass compiled — through the morsel pipeline.
// The target of a streamed run forwards each chunk to the sink as the engine
// produces it, under the run's stream options, while still assembling the
// full table for materialization and the sub-DAG cache; every other fragment
// is ExecStmt: the same pipeline drained with no sink on one inline worker.
func (e *Executor) execChainStream(ctx context.Context, opts ExecOptions, t *task) (*skills.Result, error) {
	frag := t.frag
	if frag.Base.Node == plan.External {
		if _, err := e.Ctx.Dataset(frag.Base.Name); err != nil {
			return nil, fmt.Errorf("dag: node %d: %w", frag.Nodes[0], err)
		}
	}
	if !t.stream || opts.Stream == nil {
		table, err := sqlengine.ExecStmt(e.Ctx, frag.Builder.Stmt())
		if err != nil {
			return nil, fmt.Errorf("dag: consolidated task %q: %w", frag.SQL, err)
		}
		return t.sqlResult(table), nil
	}
	par := opts.streamParallelism()
	if par < 0 && e.CostModel && frag.EstBaseRows > 0 {
		// Adaptive fan-out: with no explicit worker ask, size the morsel
		// pool from the estimated base cardinality instead of bare
		// GOMAXPROCS, so small inputs skip the fan-out overhead.
		par = plan.AdaptiveWorkers(frag.EstBaseRows, runtime.GOMAXPROCS(0))
	}
	rs, err := sqlengine.ExecStreamStmt(e.Ctx, frag.Builder.Stmt(), sqlengine.StreamOptions{
		ChunkRows:       opts.chunkRows(),
		Parallelism:     par,
		MaxBufferedRows: opts.StreamMaxBufferedRows,
		SpillDir:        opts.StreamSpillDir,
		Ctx:             ctx,
	})
	if err != nil {
		return nil, fmt.Errorf("dag: consolidated task %q: %w", frag.SQL, err)
	}
	seen := 0
	table, err := rs.Drain(func(chunk *dataset.Table) error {
		at := seen
		seen += chunk.NumRows()
		return emitChunk(opts.Stream, t, chunk, at)
	})
	ss := rs.SpillStats()
	t.stats.Add(Stats{
		PeakBufferedRows: rs.PeakBufferedRows(),
		StreamWorkers:    rs.Workers(),
		SpillRuns:        ss.Runs,
		SpilledRows:      ss.SpilledRows,
		SpilledBytes:     ss.SpilledBytes,
	})
	if ss.Runs > 0 && e.CostModel && e.statsReg != nil {
		e.statsReg.ObserveSpill(t.node.Fingerprint)
	}
	if err != nil {
		return nil, fmt.Errorf("dag: consolidated task %q: %w", frag.SQL, err)
	}
	return t.sqlResult(table), nil
}

// sqlResult counts t's consolidated fragment as executed and wraps its table.
func (t *task) sqlResult(table *dataset.Table) *skills.Result {
	t.stats.TasksRun++
	t.stats.SQLTasks++
	t.stats.NodesConsolidated += t.frag.DagNodes
	t.stats.QueryBlocks += t.frag.Blocks
	return &skills.Result{Table: table, Message: "via " + t.frag.SQL}
}

// materialize publishes a node result into the session datasets under its
// output name, so sibling branches and later requests can reference it.
func (e *Executor) materialize(t *task, res *skills.Result) {
	if res == nil || res.Table == nil {
		return
	}
	n := t.node
	name := n.OutputName()
	e.Ctx.PutDataset(name, res.Table.WithName(name))
	t.stats.RowsMaterialized += res.Table.NumRows()
	// Session-wide CSE folded duplicate producers into this node; publish
	// the one result under every name the duplicates answered to.
	for _, alias := range n.Aliases {
		e.Ctx.PutDataset(alias, res.Table.WithName(alias))
	}
}

// execDirect applies one skill node directly.
func (e *Executor) execDirect(t *task) (*skills.Result, error) {
	n := t.node
	for _, in := range n.Inputs {
		if in.Node == plan.External {
			if _, err := e.Ctx.Dataset(in.Name); err != nil {
				return nil, fmt.Errorf("dag: node %d: %w", n.ID, err)
			}
		}
	}
	res, err := e.Registry.Execute(e.Ctx, n.Invocation())
	if err != nil {
		return nil, fmt.Errorf("dag: node %d (%s): %w", n.ID, n.Skill, err)
	}
	t.stats.TasksRun++
	t.stats.DirectTasks++
	return res, nil
}
