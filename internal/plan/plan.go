// Package plan defines the logical-plan IR that sits between the skill DAG
// and the executor, together with an ordered pipeline of optimizing passes
// (§2.2, §2.3). A dag.Graph is lowered into a Plan, the passes rewrite it —
// dead-step elimination, adjacent-operator fusion, relational-chain
// consolidation, scan pushdown, normalization-aware fingerprinting and cache
// probing — and the executor then emits one task per surviving node or
// fragment. Every front end (GEL, pyapi, phrase, recipe replay) goes through
// the same lowering, so semantically identical pipelines share canonical
// fingerprints and therefore sub-DAG cache entries.
package plan

import (
	"fmt"

	"datachat/internal/skills"
)

// External marks an Input that names a session dataset rather than another
// plan node.
const External = -1

// Input is one input edge of a plan node: either another plan node (by ID,
// with the producer's output name) or an external session dataset.
type Input struct {
	// Node is the producing plan node's ID, or External.
	Node int `json:"node"`
	// Name is the dataset name the input resolves to at execution time.
	Name string `json:"name"`
}

// Node is one logical operator: a skill invocation with resolved inputs.
// Passes annotate it in place; the executor reads the annotations when
// emitting tasks.
type Node struct {
	// ID is the originating dag node ID (stable across passes).
	ID int `json:"id"`
	// Skill is the canonical skill name.
	Skill string `json:"skill"`
	// Args are the skill parameters. Passes that rewrite arguments replace
	// the map (copy-on-write) — the lowered graph's maps are shared.
	Args skills.Args `json:"args,omitempty"`
	// Inputs are the resolved input edges, aligned with the invocation's
	// input order.
	Inputs []Input `json:"inputs,omitempty"`
	// Output is the explicit output name ("" means the node%d default).
	Output string `json:"output,omitempty"`

	// Absorbed lists the dag node IDs the fusion pass folded into this node,
	// so consolidation stats still count every original step.
	Absorbed []int `json:"absorbed,omitempty"`
	// Mergeable, Volatile and Invalidates mirror the skill definition flags
	// (Volatile additionally propagates to descendants).
	Mergeable   bool `json:"mergeable,omitempty"`
	Volatile    bool `json:"volatile,omitempty"`
	Invalidates bool `json:"invalidates,omitempty"`
	// Source marks a node whose skill content-hashes its out-of-DAG source
	// (SourceFingerprint resolved): a file parse or warehouse scan that every
	// analysis of that source starts from. The sub-DAG cache admits its
	// result to its main segment at once.
	Source bool `json:"source,omitempty"`
	// Fingerprint is the canonical structural fingerprint; Key is the cache
	// key derived from it plus external-input content fingerprints ("" when
	// the node cannot be cached).
	Fingerprint string `json:"fingerprint,omitempty"`
	Key         string `json:"-"`
	// Cached marks a plan-time cache hit; Pinned holds the cached result.
	Cached bool           `json:"cached,omitempty"`
	Pinned *skills.Result `json:"-"`
	// Pushdown notes which scan arguments the pushdown pass injected.
	Pushdown []string `json:"pushdown,omitempty"`
	// Aliases are extra dataset names this node's result materializes under.
	// Session-wide CSE publishes a deduplicated node's output names through
	// the surviving node so downstream references keep resolving.
	Aliases []string `json:"aliases,omitempty"`
	// Cost is the estimated cost annotation, recomputed after every pass
	// when the Env carries stats hooks (nil when costing is off).
	Cost *NodeCost `json:"cost,omitempty"`
	// Substituted marks a scan the budget pass rewrote into a block sample;
	// SubstituteNote is the human-readable degradation note the executor
	// attaches to the result (never cached, never silent).
	Substituted    bool   `json:"substituted,omitempty"`
	SubstituteNote string `json:"substitute_note,omitempty"`
}

// OutputName returns the dataset name this node materializes under. It must
// match dag's formula so plan-produced names line up with graph-produced
// names.
func (n *Node) OutputName() string {
	if n.Output != "" {
		return n.Output
	}
	return fmt.Sprintf("node%d", n.ID)
}

// Invocation reconstructs the skill invocation this node represents, with
// inputs resolved to producer output names.
func (n *Node) Invocation() skills.Invocation {
	inv := skills.Invocation{Skill: n.Skill, Output: n.Output, Args: n.Args}
	for _, in := range n.Inputs {
		inv.Inputs = append(inv.Inputs, in.Name)
	}
	return inv
}

// Fragment is one consolidated relational chain: a maximal run of mergeable
// single-input nodes folded into a single SQL task (Figure 4).
type Fragment struct {
	// Nodes are the member plan node IDs in execution order; the last one is
	// the tail whose output the fragment materializes.
	Nodes []int `json:"nodes"`
	// Base is the chain's input: an external dataset or a materialized plan
	// node outside the fragment.
	Base Input `json:"base"`
	// SQL is the flattened statement; Blocks its SELECT-block count.
	SQL    string `json:"sql"`
	Blocks int    `json:"blocks"`
	// DagNodes counts the original dag nodes the fragment covers, including
	// ones the fusion pass absorbed — the §2.2 consolidation measure.
	DagNodes int `json:"dag_nodes"`
	// EstBaseRows is the estimated row count flowing into the chain from its
	// base, annotated by the cost model; the executor sizes adaptive morsel
	// worker counts from it (0 = unknown).
	EstBaseRows int64 `json:"est_base_rows,omitempty"`

	// Builder is the compiled query, ready to execute.
	Builder *skills.QueryBuilder `json:"-"`
}

// Plan is a lowered sub-DAG plus pass annotations. Nodes stay in topological
// order through every pass.
type Plan struct {
	Nodes     []*Node     `json:"nodes"`
	Target    int         `json:"target"`
	Fragments []Fragment  `json:"fragments,omitempty"`
	Trace     []PassTrace `json:"trace,omitempty"`
	// Cost is the whole-plan estimate after the final pass (nil when the
	// Env carries no stats hooks).
	Cost *PlanCost `json:"plan_cost,omitempty"`
	// Fingerprints lists every node's fingerprint as the strict fingerprint
	// pass last left them — before the cache probe pruned any — so a refresh
	// diff also counts the sub-DAGs the cache served.
	Fingerprints []string `json:"-"`

	byID map[int]*Node
}

// New returns an empty plan targeting the given node ID.
func New(target int) *Plan {
	return &Plan{Target: target, byID: map[int]*Node{}}
}

// Add appends a node (callers append in topological order).
func (p *Plan) Add(n *Node) {
	p.Nodes = append(p.Nodes, n)
	p.byID[n.ID] = n
}

// Node returns the node with the given ID, or nil.
func (p *Plan) Node(id int) *Node {
	if p.byID == nil {
		p.reindex()
	}
	return p.byID[id]
}

// Consumers maps each node ID to the IDs of nodes consuming its output,
// within the plan's current extent.
func (p *Plan) Consumers() map[int][]int {
	cons := map[int][]int{}
	for _, n := range p.Nodes {
		for _, in := range n.Inputs {
			if in.Node != External {
				cons[in.Node] = append(cons[in.Node], n.ID)
			}
		}
	}
	return cons
}

// keep retains only the nodes whose IDs are in the set, preserving order.
func (p *Plan) keep(ids map[int]bool) {
	out := p.Nodes[:0]
	for _, n := range p.Nodes {
		if ids[n.ID] {
			out = append(out, n)
		}
	}
	p.Nodes = out
	p.reindex()
}

// remove drops one node by ID.
func (p *Plan) remove(id int) {
	out := p.Nodes[:0]
	for _, n := range p.Nodes {
		if n.ID != id {
			out = append(out, n)
		}
	}
	p.Nodes = out
	p.reindex()
}

func (p *Plan) reindex() {
	p.byID = make(map[int]*Node, len(p.Nodes))
	for _, n := range p.Nodes {
		p.byID[n.ID] = n
	}
}

// Env supplies the pass pipeline's view of the outside world. Any field may
// be nil, in which case the passes needing it become no-ops (fusion and
// slicing run fine with an empty Env — dag.Slice relies on that).
type Env struct {
	// Lookup resolves skill definitions (fingerprint, consolidation and
	// pushdown passes).
	Lookup func(name string) (*skills.Definition, error)
	// ExtFingerprint returns the content fingerprint of an external dataset;
	// ok=false means the dataset is missing or unhashable and nodes
	// depending on it get no cache key.
	ExtFingerprint func(name string) (uint64, bool)
	// SourceFingerprint returns a content hash of the out-of-DAG source a
	// volatile node would read (a skill's Definition.SourceFingerprint).
	// Success de-volatilizes the node: the hash joins its fingerprint, so
	// the node — and its descendants — become cacheable without ever
	// serving stale results for changed source content.
	SourceFingerprint func(skill string, args skills.Args) (uint64, bool)
	// CacheGet probes the sub-DAG cache during planning. A hit pins the
	// node's result and prunes its ancestors.
	CacheGet func(key string) (*skills.Result, bool)

	// TableStats returns size/pricing estimates for a connected cloud table
	// (cost model + budget substitution). nil disables table costing.
	TableStats func(database, table string) (TableEstimate, bool)
	// DatasetStats returns (rows, approxBytes) for an external session
	// dataset. nil disables dataset costing.
	DatasetStats func(name string) (rows, bytes int64, ok bool)
	// DatasetColumns returns the column names of an external session dataset
	// (join reordering needs schemas to keep qualified predicates valid).
	DatasetColumns func(name string) ([]string, bool)
	// Observed returns measured output stats for a node fingerprint, fed
	// back from prior executions through the stats registry. Observations
	// override heuristic cardinality estimates.
	Observed func(fingerprint string) (ObservedStats, bool)
	// CostBudgetBytes caps a request's estimated cloud scan bytes; past it
	// the substitution pass degrades scans to block samples. 0 = unlimited.
	CostBudgetBytes int64
}

// Costed reports whether the env carries any stats hooks — the switch that
// turns on per-pass cost estimation.
func (e *Env) Costed() bool {
	return e != nil && (e.TableStats != nil || e.DatasetStats != nil)
}

// Pass is one rewriting step of the pipeline.
type Pass interface {
	Name() string
	Run(p *Plan, env *Env, t *PassTrace) error
}

// PassTrace records what one pass did, for EXPLAIN output and for callers
// that preserve pre-pipeline reporting (dag.SliceReport).
type PassTrace struct {
	Pass  string `json:"pass"`
	Fired bool   `json:"fired"`
	// Detail lists human-readable notes about individual rewrites.
	Detail []string `json:"detail,omitempty"`

	Pruned            int `json:"pruned,omitempty"`
	Merged            int `json:"merged,omitempty"`
	Chains            int `json:"chains,omitempty"`
	NodesConsolidated int `json:"nodes_consolidated,omitempty"`
	Pushdowns         int `json:"pushdowns,omitempty"`
	CacheHits         int `json:"cache_hits,omitempty"`
	Dedup             int `json:"dedup,omitempty"`
	Reordered         int `json:"reordered,omitempty"`
	Substituted       int `json:"substituted,omitempty"`

	// Cost snapshots the whole-plan estimate after this pass ran, so the
	// trace history doubles as a per-pass cost-delta log (nil when costing
	// is off).
	Cost *PlanCost `json:"cost,omitempty"`
}

// RunPasses applies the passes in order, appending one trace entry each.
// When the env carries stats hooks, plan costs are re-estimated after every
// pass so each trace entry snapshots the cost the pipeline had at that
// point.
func RunPasses(p *Plan, env *Env, passes ...Pass) error {
	if env == nil {
		env = &Env{}
	}
	for _, pass := range passes {
		t := PassTrace{Pass: pass.Name()}
		if err := pass.Run(p, env, &t); err != nil {
			return err
		}
		if env.Costed() {
			t.Cost = EstimateCosts(p, env)
		}
		p.Trace = append(p.Trace, t)
	}
	return nil
}
