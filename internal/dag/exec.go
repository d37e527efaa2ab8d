package dag

import (
	"context"
	"fmt"
	"sync"

	"datachat/internal/plan"
	"datachat/internal/skills"
)

// Stats counts what execution did, for transparency and benchmarks: one run's
// work in a Report, or every run's since the executor was built in
// Executor.Stats.
type Stats struct {
	// TasksRun is the number of execution tasks dispatched.
	TasksRun int
	// SQLTasks counts consolidated SQL tasks; DirectTasks counts direct
	// skill applications.
	SQLTasks, DirectTasks int
	// NodesConsolidated counts skill nodes folded into SQL tasks.
	NodesConsolidated int
	// QueryBlocks sums the SELECT-block counts of executed SQL tasks — the
	// §2.2 flatness measure.
	QueryBlocks int
	// RowsMaterialized sums the row counts of every result published into
	// the session context — the volume pushdown is meant to shrink.
	RowsMaterialized int
	// CacheHits counts tasks served from the sub-DAG cache (including
	// computations shared with a concurrent identical request).
	CacheHits int
	// CacheMisses counts cacheable tasks that had to execute.
	CacheMisses int
	// Retries counts task re-attempts after transient failures.
	Retries int
	// PermanentFailures counts tasks that failed with a permanent fault.
	PermanentFailures int
	// Degraded counts tasks whose result came from a fallback source.
	Degraded int
	// StreamedChunks and StreamedRows count what target streaming forwarded
	// to ExecOptions.Stream sinks (live morsel chunks plus re-chunked
	// cache-hit/direct results).
	StreamedChunks, StreamedRows int
	// SpillRuns, SpilledRows, and SpilledBytes sum the disk spill activity of
	// streamed fragments whose pipeline breakers overflowed
	// StreamMaxBufferedRows.
	SpillRuns, SpilledRows int
	SpilledBytes           int64
	// PeakBufferedRows is the highest per-stream buffered-row peak among the
	// streamed fragments counted (a high-water mark, not a sum).
	PeakBufferedRows int
	// StreamWorkers is the largest resolved morsel worker count among the
	// streamed fragments counted (0 when nothing streamed live).
	StreamWorkers int
}

// Add folds o into s: counts sum, PeakBufferedRows and StreamWorkers keep the
// larger value. TestStatsAddCoversEveryField fails when a field is added to
// Stats and not here.
func (s *Stats) Add(o Stats) {
	s.TasksRun += o.TasksRun
	s.SQLTasks += o.SQLTasks
	s.DirectTasks += o.DirectTasks
	s.NodesConsolidated += o.NodesConsolidated
	s.QueryBlocks += o.QueryBlocks
	s.RowsMaterialized += o.RowsMaterialized
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.Retries += o.Retries
	s.PermanentFailures += o.PermanentFailures
	s.Degraded += o.Degraded
	s.StreamedChunks += o.StreamedChunks
	s.StreamedRows += o.StreamedRows
	s.SpillRuns += o.SpillRuns
	s.SpilledRows += o.SpilledRows
	s.SpilledBytes += o.SpilledBytes
	s.PeakBufferedRows = max(s.PeakBufferedRows, o.PeakBufferedRows)
	s.StreamWorkers = max(s.StreamWorkers, o.StreamWorkers)
}

// Report is what one run did: its own execution counters, the cost estimate
// of the plan it compiled (nil when the cost model is off), the cache key of
// every exact result it published into the context, by output name — the key
// under which the shared cache holds that result, for as long as it does —
// and the fingerprints of every node it planned, cache-served ones included
// (plan.Plan.Fingerprints).
type Report struct {
	Stats        Stats
	Cost         *plan.PlanCost
	Keys         map[string]string
	Fingerprints []string
}

// Executor compiles and runs DAGs against a skill context. Compilation
// lowers the sub-DAG into the internal/plan IR and runs the optimizing pass
// pipeline (slice, fuse, fingerprint, cache probe, consolidate, pushdown);
// the executor then schedules one task per surviving node or fragment. It
// owns (or shares) the sub-DAG result cache, which persists across Run calls
// so shared prefixes of successive requests are reused (§2.2) — keyed by
// canonical plan fingerprints, so identical pipelines built via different
// front ends share entries.
//
// Concurrency: one Run schedules independent DAG branches onto a bounded
// worker pool (see ExecOptions). The cache may additionally be shared across
// the executors of many sessions (SetCache), in which case identical
// concurrent computations are deduplicated. The configuration fields
// (Registry, Ctx, Consolidate, Fuse, Pushdown, UseCache) must not
// be mutated while a Run or Explain is in progress; what varies per request
// goes in as RunWith's options argument instead.
type Executor struct {
	// Registry resolves skill definitions.
	Registry *skills.Registry
	// Ctx is the session execution environment.
	Ctx *skills.Context
	// Consolidate enables merging relational chains into single SQL tasks
	// (on by default via NewExecutor; turn off for the naive baseline).
	Consolidate bool
	// Fuse enables adjacent-operator fusion on every execution (consecutive
	// KeepRows/LimitRows/KeepColumns collapse into one step).
	Fuse bool
	// Pushdown enables copying a scan's sole consumer's projection or filter
	// into the scan itself.
	Pushdown bool
	// UseCache enables the sub-DAG result cache.
	UseCache bool
	// CSE enables session-wide common-subexpression elimination over the
	// whole lowered graph before slicing.
	CSE bool
	// CostModel enables per-pass cost estimation (and, with a positive
	// CostBudgetBytes in the run's options, budgeted sample substitution).
	CostModel bool

	cache    *Cache
	statsReg *plan.StatsRegistry
	runs     *runTotals
}

// runTotals sums the reports of an executor's finished runs.
type runTotals struct {
	mu    sync.Mutex
	total Stats
}

// NewExecutor returns an executor with every optimizing pass and caching
// enabled, backed by a private bounded cache, executing with GOMAXPROCS
// workers.
func NewExecutor(reg *skills.Registry, ctx *skills.Context) *Executor {
	return &Executor{
		Registry:    reg,
		Ctx:         ctx,
		Consolidate: true,
		Fuse:        true,
		Pushdown:    true,
		UseCache:    true,
		CSE:         true,
		CostModel:   true,
		cache:       NewCache(DefaultCacheCapacity),
		statsReg:    plan.NewStatsRegistry(plan.DefaultStatsCapacity),
		runs:        &runTotals{},
	}
}

// WithContext returns an executor configured like e — registry, passes,
// cache and stats registry — that runs in ctx and keeps its own counters.
func (e *Executor) WithContext(ctx *skills.Context) *Executor {
	cp := *e
	cp.Ctx, cp.runs = ctx, &runTotals{}
	return &cp
}

// SetCache replaces the executor's sub-DAG cache, typically with one shared
// across every session of a platform so sessions reuse (and deduplicate)
// each other's work. Call before the first Run.
func (e *Executor) SetCache(c *Cache) {
	if c != nil {
		e.cache = c
	}
}

// Cache returns the executor's sub-DAG cache.
func (e *Executor) Cache() *Cache { return e.cache }

// SetStatsRegistry replaces the executor's observed-stats registry,
// typically with one shared across every session of a platform so cost
// estimates learn from all traffic. Call before the first Run.
func (e *Executor) SetStatsRegistry(r *plan.StatsRegistry) {
	if r != nil {
		e.statsReg = r
	}
}

// StatsRegistry returns the executor's observed-stats registry (may be nil
// for zero-value executors).
func (e *Executor) StatsRegistry() *plan.StatsRegistry { return e.statsReg }

// Stats returns cumulative execution statistics: the sum of the reports of
// every finished run.
func (e *Executor) Stats() Stats {
	e.runs.mu.Lock()
	defer e.runs.mu.Unlock()
	return e.runs.total
}

// CacheStats returns the cache's own counters (shared figures when the cache
// is shared across sessions).
func (e *Executor) CacheStats() CacheStats { return e.cache.Stats() }

// InvalidateCache drops every cached sub-DAG result (used after data
// refreshes). In-flight computations from before the call cannot repopulate
// the cache with stale results.
func (e *Executor) InvalidateCache() { e.cache.Invalidate() }

// Run executes the DAG up to target under the zero ExecOptions (the engine
// defaults) and returns its result. Intermediate results are materialized
// into the context under their output names so later requests (and sibling
// branches) can reference them.
//
// Execution is a two-phase parallel topological schedule: a serial planning
// pass compiles the needed ancestors into tasks — consolidation chains stay
// atomic units — computes cache keys, and prunes sub-DAGs whose results are
// already cached; then a bounded worker pool executes independent tasks
// concurrently and joins at the target.
//
// Cache policy for consolidated chains: a chain task caches only its tail
// signature (interior results never exist — the chain runs as one flattened
// query), but chains stop extending at an already-cached prefix, so a prefix
// computed by an earlier, shorter request is reused as the base instead of
// being refolded and recomputed. TestChainPrefixCachePolicy pins this down.
func (e *Executor) Run(g *Graph, target NodeID) (*skills.Result, error) {
	res, _, err := e.RunWith(context.Background(), g, target, ExecOptions{})
	return res, err
}

// RunWith is Run as a function of its arguments: opts are this run's
// options, and the returned report says what this run did —
// also when it failed. Cancelling ctx aborts pending retry backoffs and stops
// new tasks from being scheduled (attempts already executing finish — skill
// bodies are not interruptible).
func (e *Executor) RunWith(ctx context.Context, g *Graph, target NodeID, opts ExecOptions) (*skills.Result, Report, error) {
	p, err := e.plan(g, target, opts)
	if err != nil {
		return nil, Report{}, err
	}
	err = e.runPlan(ctx, p)
	rep := Report{Stats: p.planStats, Cost: p.logical.Cost, Fingerprints: p.logical.Fingerprints}
	for _, t := range p.tasks {
		rep.Stats.Add(t.stats)
		if res := t.result; t.cacheable && res != nil && res.Table != nil && !res.Degraded {
			if rep.Keys == nil {
				rep.Keys = map[string]string{}
			}
			rep.Keys[t.node.OutputName()] = t.key
			for _, alias := range t.node.Aliases {
				rep.Keys[alias] = t.key
			}
		}
	}
	e.runs.mu.Lock()
	e.runs.total.Add(rep.Stats)
	e.runs.mu.Unlock()
	if err != nil {
		return nil, rep, err
	}
	t := p.byNode[target]
	if t == nil || t.result == nil {
		return nil, rep, fmt.Errorf("dag: internal: no result for target node %d", target)
	}
	return t.result, rep, nil
}

// CompileSQL returns the consolidated SQL for the relational chain ending
// at target without executing it — the SQL view of a recipe step (§2.3).
func (e *Executor) CompileSQL(g *Graph, target NodeID) (string, error) {
	var chain []NodeID
	cur := target
	for cur >= 0 {
		node, err := g.Node(cur)
		if err != nil {
			return "", err
		}
		def, err := e.Registry.Lookup(node.Inv.Skill)
		if err != nil {
			return "", err
		}
		if def.MergeSQL == nil || len(node.Parents) != 1 {
			break
		}
		chain = append(chain, cur)
		cur = node.Parents[0]
	}
	if len(chain) == 0 {
		return "", fmt.Errorf("dag: node %d is not a relational skill", target)
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	head, err := g.Node(chain[0])
	if err != nil {
		return "", err
	}
	baseName := head.Inv.Inputs[0]
	if head.Parents[0] >= 0 {
		parent, err := g.Node(head.Parents[0])
		if err != nil {
			return "", err
		}
		baseName = parent.OutputName()
	}
	builder := skills.NewQueryBuilder(baseName)
	for _, nid := range chain {
		node, err := g.Node(nid)
		if err != nil {
			return "", err
		}
		def, err := e.Registry.Lookup(node.Inv.Skill)
		if err != nil {
			return "", err
		}
		if err := def.MergeSQL(builder, *node.Inv); err != nil {
			return "", err
		}
	}
	return builder.SQL(), nil
}
