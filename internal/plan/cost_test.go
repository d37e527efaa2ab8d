package plan

import (
	"strings"
	"testing"

	"datachat/internal/cloud"
	"datachat/internal/skills"
)

// TestAdaptiveWorkersDecisionTable pins the worker-count policy: one worker
// per 50k estimated input rows, at least one, capped at the processor count,
// full fan-out when the cardinality is unknown.
func TestAdaptiveWorkersDecisionTable(t *testing.T) {
	cases := []struct {
		estRows int64
		procs   int
		want    int
	}{
		{0, 8, 8},          // unknown cardinality: keep full fan-out
		{-1, 8, 8},         // negative counts as unknown
		{1, 8, 1},          // tiny input: one worker
		{49_999, 8, 1},     // below the first step
		{50_000, 8, 2},     // first step boundary
		{149_999, 8, 3},    // mid-ladder
		{200_000, 4, 4},    // capped by procs (1+4 = 5 > 4)
		{10_000_000, 8, 8}, // far past the cap
		{100, 0, 1},        // degenerate procs: at least one worker
		{0, -3, 1},         // degenerate procs with unknown rows
	}
	for _, c := range cases {
		if got := AdaptiveWorkers(c.estRows, c.procs); got != c.want {
			t.Errorf("AdaptiveWorkers(%d, %d) = %d, want %d", c.estRows, c.procs, got, c.want)
		}
	}
}

// costEnv builds an env with a one-table catalog and a real skill registry.
func costEnv(t *testing.T, rows, bytes int64) *Env {
	t.Helper()
	env := lookupEnv(t)
	env.TableStats = func(db, table string) (TableEstimate, bool) {
		if db == "wh" && table == "orders" {
			return TableEstimate{Rows: rows, Bytes: bytes, Pricing: cloud.DefaultPricing}, true
		}
		return TableEstimate{}, false
	}
	return env
}

// TestEstimateCostsHeuristics pins the scan-seeded estimates: catalog stats
// size the scan, filter selectivity shrinks descendants, observed stats
// override the heuristic, and a plan-time cache hit zeroes the scan.
func TestEstimateCostsHeuristics(t *testing.T) {
	env := costEnv(t, 9000, 90_000)
	p := New(1)
	p.Add(&Node{ID: 0, Skill: "LoadTable",
		Args: skills.Args{"database": "wh", "table": "orders"}, Output: "orders"})
	p.Add(&Node{ID: 1, Skill: "KeepRows", Args: skills.Args{"condition": "v > 5"},
		Inputs: []Input{{Node: 0, Name: "orders"}}, Output: "f"})
	mustRun(t, p, env, FingerprintPass())

	scan := p.Node(0).Cost
	if scan == nil || scan.Rows != 9000 || scan.ScanBytes != 90_000 || scan.Source != "table-stats" {
		t.Fatalf("scan cost = %+v, want 9000 rows / 90000 scan bytes from table-stats", scan)
	}
	if scan.Latency <= 0 || scan.Dollars <= 0 {
		t.Fatalf("scan cost = %+v, want positive latency and dollars", scan)
	}
	filter := p.Node(1).Cost
	if filter == nil || filter.Rows != 9000/3+1 {
		t.Fatalf("filter cost = %+v, want 1/3 selectivity of the scan", filter)
	}
	if p.Cost == nil || p.Cost.ScanBytes != 90_000 || p.Cost.Rows != filter.Rows {
		t.Fatalf("plan cost = %+v, want target rows and scan total", p.Cost)
	}

	// A pushdown condition on the scan shrinks the output estimate but not
	// the scanned bytes (blocks are still read).
	p2 := New(0)
	p2.Add(&Node{ID: 0, Skill: "LoadTable",
		Args:   skills.Args{"database": "wh", "table": "orders", "condition": "v > 5"},
		Output: "orders"})
	mustRun(t, p2, env, FingerprintPass())
	cond := p2.Node(0).Cost
	if cond.Rows != 9000/3+1 || cond.ScanBytes != 90_000 {
		t.Fatalf("conditioned scan = %+v, want reduced rows, full scan bytes", cond)
	}

	// Observed stats from a previous execution override the heuristic.
	env.Observed = func(fp string) (ObservedStats, bool) {
		if fp == p.Node(1).Fingerprint {
			return ObservedStats{Rows: 42, Bytes: 420}, true
		}
		return ObservedStats{}, false
	}
	EstimateCosts(p, env)
	if c := p.Node(1).Cost; c.Rows != 42 || c.Bytes != 420 || c.Source != "observed" {
		t.Fatalf("observed override = %+v, want rows 42 from feedback", c)
	}

	// A plan-time cache hit zeroes the node's scan contribution.
	p.Node(0).Cached = true
	EstimateCosts(p, env)
	if c := p.Node(0).Cost; c.ScanBytes != 0 || c.Latency != 0 || c.Dollars != 0 || c.Source != "cached" {
		t.Fatalf("cached scan cost = %+v, want zeroed", c)
	}
	if p.Cost.ScanBytes != 0 {
		t.Fatalf("plan scan total = %d, want 0 with the only scan cached", p.Cost.ScanBytes)
	}
}

// TestCSEPassMergesDuplicateBranches pins the merge mechanics: the first
// occurrence survives, the duplicate's output name becomes an alias, its ID
// joins Absorbed, and consumers are rewired by node while keeping the
// name-based input references intact.
func TestCSEPassMergesDuplicateBranches(t *testing.T) {
	p := New(3)
	p.Add(&Node{ID: 0, Skill: "LoadData", Args: skills.Args{"file": "sales.csv"}, Output: "sales"})
	p.Add(&Node{ID: 1, Skill: "KeepRows", Args: skills.Args{"condition": "v > 5"},
		Inputs: []Input{{Node: 0, Name: "sales"}}, Output: "f1"})
	p.Add(&Node{ID: 2, Skill: "KeepRows", Args: skills.Args{"condition": "v > 5"},
		Inputs: []Input{{Node: 0, Name: "sales"}}, Output: "f2"})
	p.Add(&Node{ID: 3, Skill: "Concatenate",
		Inputs: []Input{{Node: 1, Name: "f1"}, {Node: 2, Name: "f2"}}, Output: "both"})
	env := lookupEnv(t)
	mustRun(t, p, env, StructuralFingerprintPass(), CSEPass())

	if got := trace(t, p, "cse").Dedup; got != 1 {
		t.Fatalf("Dedup = %d, want 1", got)
	}
	if p.Node(2) != nil {
		t.Fatal("duplicate node 2 survived CSE")
	}
	surv := p.Node(1)
	if len(surv.Aliases) != 1 || surv.Aliases[0] != "f2" {
		t.Fatalf("survivor aliases = %v, want [f2]", surv.Aliases)
	}
	if len(surv.Absorbed) != 1 || surv.Absorbed[0] != 2 {
		t.Fatalf("survivor absorbed = %v, want [2]", surv.Absorbed)
	}
	concat := p.Node(3)
	if concat.Inputs[0].Node != 1 || concat.Inputs[1].Node != 1 {
		t.Fatalf("concat inputs = %+v, want both rewired to node 1", concat.Inputs)
	}
	if concat.Inputs[0].Name != "f1" || concat.Inputs[1].Name != "f2" {
		t.Fatalf("concat input names = %+v, want f1/f2 preserved", concat.Inputs)
	}
}

// joinChainPlan builds ((small ⋈ big) ⋈ mid) with bare-equality predicates
// and pairwise-disjoint leaf schemas — the shape the reorder pass accepts.
func joinChainPlan(onBottom, onTop string) *Plan {
	p := New(1)
	p.Add(&Node{ID: 0, Skill: "JoinDatasets",
		Args:   skills.Args{"kind": "inner", "on": onBottom},
		Inputs: []Input{{Node: External, Name: "small"}, {Node: External, Name: "big"}}})
	p.Add(&Node{ID: 1, Skill: "JoinDatasets",
		Args:   skills.Args{"kind": "inner", "on": onTop},
		Inputs: []Input{{Node: 0, Name: "node0"}, {Node: External, Name: "mid"}},
		Output: "joined"})
	return p
}

func joinEnv(t *testing.T) *Env {
	t.Helper()
	env := lookupEnv(t)
	rows := map[string]int64{"small": 10, "big": 1_000_000, "mid": 10_000}
	cols := map[string][]string{
		"small": {"s_id", "s_k"},
		"big":   {"b_id", "b_val"},
		"mid":   {"m_id", "m_val"},
	}
	env.DatasetStats = func(name string) (int64, int64, bool) {
		r, ok := rows[name]
		return r, r * 16, ok
	}
	env.DatasetColumns = func(name string) ([]string, bool) {
		c, ok := cols[name]
		return c, ok
	}
	return env
}

// TestJoinReorderPassReordersBySize pins the rewrite: with both probes
// connected to the small base, the pass probes the 10k-row side before the
// 1M-row side, keeps the predicates attached to their probe leaves, and
// restores the original output column order on the chain top.
func TestJoinReorderPassReordersBySize(t *testing.T) {
	p := joinChainPlan("s_id = b_id", "s_k = m_id")
	env := joinEnv(t)
	mustRun(t, p, env, FingerprintPass(), JoinReorderPass())

	tr := trace(t, p, "join-reorder")
	if !tr.Fired || tr.Reordered != 2 {
		t.Fatalf("trace = %+v, want fired with 2 reordered joins", tr)
	}
	bottom, top := p.Node(0), p.Node(1)
	if bottom.Inputs[1].Name != "mid" || bottom.Args.StringOr("on", "") != "s_k = m_id" {
		t.Fatalf("bottom join = probe %q on %q, want mid via s_k = m_id",
			bottom.Inputs[1].Name, bottom.Args.StringOr("on", ""))
	}
	if top.Inputs[1].Name != "big" || top.Args.StringOr("on", "") != "s_id = b_id" {
		t.Fatalf("top join = probe %q on %q, want big via s_id = b_id",
			top.Inputs[1].Name, top.Args.StringOr("on", ""))
	}
	wantCols := []string{"s_id", "s_k", "b_id", "b_val", "m_id", "m_val"}
	gotCols := top.Args.StringListOr("columns")
	if strings.Join(gotCols, ",") != strings.Join(wantCols, ",") {
		t.Fatalf("top projection = %v, want original order %v", gotCols, wantCols)
	}
	if bottom.Fingerprint == "" || top.Fingerprint == "" {
		t.Fatal("reordered nodes were not refingerprinted")
	}
}

// TestJoinReorderPassGating pins the conservative gates: qualified
// predicates, unknown stats, named intermediates, and outer joins all pin
// the original shape.
func TestJoinReorderPassGating(t *testing.T) {
	run := func(name string, p *Plan, env *Env) {
		t.Helper()
		mustRun(t, p, env, FingerprintPass(), JoinReorderPass())
		if tr := trace(t, p, "join-reorder"); tr.Fired {
			t.Errorf("%s: join-reorder fired, want original shape pinned", name)
		}
	}
	// Qualified predicate: the qualifier names a direct input, so any
	// re-association would dangle it.
	run("qualified", joinChainPlan("small.s_id = b_id", "s_k = m_id"), joinEnv(t))

	// Unknown leaf stats: no cost basis, no rewrite.
	envNoStats := joinEnv(t)
	inner := envNoStats.DatasetStats
	envNoStats.DatasetStats = func(name string) (int64, int64, bool) {
		if name == "big" {
			return 0, 0, false
		}
		return inner(name)
	}
	run("unknown-stats", joinChainPlan("s_id = b_id", "s_k = m_id"), envNoStats)

	// A named interior is observable session state; its content would change.
	named := joinChainPlan("s_id = b_id", "s_k = m_id")
	named.Node(0).Output = "halfway"
	run("named-interior", named, joinEnv(t))

	// Outer joins are order-sensitive.
	left := joinChainPlan("s_id = b_id", "s_k = m_id")
	left.Node(1).Args["kind"] = "left"
	run("outer-join", left, joinEnv(t))
}

// TestSampleSubstitutePassBudget pins the §3 substitution math: the most
// expensive scan is sampled at the rate that lands the plan back inside the
// budget, the node is flagged with an honest note, and the rewrite clears
// cache keys so the degraded result can never be served silently.
func TestSampleSubstitutePassBudget(t *testing.T) {
	env := lookupEnv(t)
	env.TableStats = func(db, table string) (TableEstimate, bool) {
		switch table {
		case "bigtab":
			return TableEstimate{Rows: 10_000, Bytes: 100_000, Pricing: cloud.DefaultPricing}, true
		case "smalltab":
			return TableEstimate{Rows: 1_000, Bytes: 10_000, Pricing: cloud.DefaultPricing}, true
		}
		return TableEstimate{}, false
	}
	build := func() *Plan {
		p := New(2)
		p.Add(&Node{ID: 0, Skill: "LoadTable",
			Args: skills.Args{"database": "wh", "table": "bigtab"}, Output: "b"})
		p.Add(&Node{ID: 1, Skill: "LoadTable",
			Args: skills.Args{"database": "wh", "table": "smalltab"}, Output: "s"})
		p.Add(&Node{ID: 2, Skill: "Concatenate",
			Inputs: []Input{{Node: 0, Name: "b"}, {Node: 1, Name: "s"}}, Output: "both"})
		return p
	}

	// Budget 20k against 110k total: sampling the 100k scan at 10% lands at
	// exactly 10k + 10k; the small scan is untouched.
	p := build()
	env.CostBudgetBytes = 20_000
	mustRun(t, p, env, FingerprintPass(), SampleSubstitutePass())
	tr := trace(t, p, "sample-substitute")
	if !tr.Fired || tr.Substituted != 1 {
		t.Fatalf("trace = %+v, want exactly one substitution", tr)
	}
	big := p.Node(0)
	if big.Skill != "SampleTable" || big.Args.FloatOr("rate", 0) != 0.10 {
		t.Fatalf("big scan = %s rate %v, want SampleTable at 0.10", big.Skill, big.Args["rate"])
	}
	if !big.Substituted || !strings.Contains(big.SubstituteNote, "10% block sample") ||
		!strings.Contains(big.SubstituteNote, "20000-byte request budget") {
		t.Fatalf("substitute note = %q, want honest rate and budget", big.SubstituteNote)
	}
	if big.Key != "" || p.Node(2).Key != "" {
		t.Fatal("substituted subtree kept cache keys; a degraded result could be cached")
	}
	if small := p.Node(1); small.Skill != "LoadTable" || small.Substituted {
		t.Fatalf("small scan = %+v, want untouched", small)
	}

	// An ample budget changes nothing.
	p2 := build()
	env.CostBudgetBytes = 200_000
	mustRun(t, p2, env, FingerprintPass(), SampleSubstitutePass())
	if tr := trace(t, p2, "sample-substitute"); tr.Fired {
		t.Fatalf("trace = %+v, want no-op under an ample budget", tr)
	}

	// An impossible budget floors every scan at the 5% minimum rather than
	// sampling to nothing.
	p3 := build()
	env.CostBudgetBytes = 1_000
	mustRun(t, p3, env, FingerprintPass(), SampleSubstitutePass())
	if tr := trace(t, p3, "sample-substitute"); tr.Substituted != 2 {
		t.Fatalf("trace = %+v, want both scans substituted", tr)
	}
	for _, id := range []int{0, 1} {
		if rate := p3.Node(id).Args.FloatOr("rate", 0); rate != minSampleRate {
			t.Fatalf("node %d rate = %v, want floored at %v", id, rate, minSampleRate)
		}
	}
}

// TestStatsRegistry pins the feedback store: lookups return what was
// observed, spill flags are sticky, the capacity bound evicts wholesale, and
// a nil registry is inert.
func TestStatsRegistry(t *testing.T) {
	r := NewStatsRegistry(2)
	r.Observe("a", ObservedStats{Rows: 5, Bytes: 50})
	r.ObserveSpill("a")
	r.Observe("a", ObservedStats{Rows: 6, Bytes: 60}) // update keeps spill sticky
	got, ok := r.Lookup("a")
	if !ok || got.Rows != 6 || !got.Spilled {
		t.Fatalf("Lookup(a) = %+v %v, want rows 6 with sticky spill", got, ok)
	}
	r.Observe("b", ObservedStats{Rows: 1})
	r.Observe("c", ObservedStats{Rows: 2}) // over capacity: wholesale eviction
	if r.Len() > 2 {
		t.Fatalf("Len = %d, want capacity bound respected", r.Len())
	}
	if _, ok := r.Lookup("c"); !ok {
		t.Fatal("the entry that triggered eviction was itself dropped")
	}

	var nilReg *StatsRegistry
	nilReg.Observe("x", ObservedStats{Rows: 1})
	nilReg.ObserveSpill("x")
	if _, ok := nilReg.Lookup("x"); ok {
		t.Fatal("nil registry returned an entry")
	}
	if nilReg.Len() != 0 {
		t.Fatal("nil registry has nonzero length")
	}
}
