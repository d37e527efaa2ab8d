package plan

import (
	"reflect"
	"testing"

	"datachat/internal/skills"
)

func lookupEnv(t *testing.T) *Env {
	t.Helper()
	reg := skills.NewRegistry()
	return &Env{Lookup: reg.Lookup}
}

func mustRun(t *testing.T, p *Plan, env *Env, passes ...Pass) {
	t.Helper()
	if err := RunPasses(p, env, passes...); err != nil {
		t.Fatalf("RunPasses: %v", err)
	}
}

func trace(t *testing.T, p *Plan, name string) PassTrace {
	t.Helper()
	for _, tr := range p.Trace {
		if tr.Pass == name {
			return tr
		}
	}
	t.Fatalf("no trace entry for pass %q", name)
	return PassTrace{}
}

// chainPlan builds scan -> KeepRows -> KeepColumns with an unrelated dangling
// KeepRows branch off the scan.
func chainPlan() *Plan {
	p := New(2)
	p.Add(&Node{ID: 0, Skill: "LoadData", Args: skills.Args{"file": "sales.csv"}, Output: "sales"})
	p.Add(&Node{ID: 1, Skill: "KeepRows", Args: skills.Args{"condition": "region = 'west'"},
		Inputs: []Input{{Node: 0, Name: "sales"}}})
	p.Add(&Node{ID: 2, Skill: "KeepColumns", Args: skills.Args{"columns": []string{"region", "amount"}},
		Inputs: []Input{{Node: 1, Name: "node1"}}, Output: "out"})
	p.Add(&Node{ID: 3, Skill: "KeepRows", Args: skills.Args{"condition": "amount > 10"},
		Inputs: []Input{{Node: 0, Name: "sales"}}})
	return p
}

func TestSlicePassPrunesDeadSteps(t *testing.T) {
	p := chainPlan()
	mustRun(t, p, nil, SlicePass())
	if got := trace(t, p, "slice").Pruned; got != 1 {
		t.Fatalf("Pruned = %d, want 1", got)
	}
	if p.Node(3) != nil {
		t.Fatalf("dead node 3 survived slicing")
	}
	for _, id := range []int{0, 1, 2} {
		if p.Node(id) == nil {
			t.Fatalf("needed node %d was pruned", id)
		}
	}
}

func TestFusePassKeepRows(t *testing.T) {
	p := New(2)
	p.Add(&Node{ID: 0, Skill: "LoadData", Args: skills.Args{"file": "f.csv"}, Output: "d"})
	p.Add(&Node{ID: 1, Skill: "KeepRows", Args: skills.Args{"condition": "a > 1"},
		Inputs: []Input{{Node: 0, Name: "d"}}})
	p.Add(&Node{ID: 2, Skill: "KeepRows", Args: skills.Args{"condition": "b < 2"},
		Inputs: []Input{{Node: 1, Name: "node1"}}, Output: "out"})
	mustRun(t, p, nil, FusePass())
	if got := trace(t, p, "fuse").Merged; got != 1 {
		t.Fatalf("Merged = %d, want 1", got)
	}
	n := p.Node(2)
	cond, err := n.Args.String("condition")
	if err != nil || cond != "(a > 1) AND (b < 2)" {
		t.Fatalf("fused condition = %q, %v", cond, err)
	}
	if !reflect.DeepEqual(n.Absorbed, []int{1}) {
		t.Fatalf("Absorbed = %v, want [1]", n.Absorbed)
	}
	if n.Inputs[0].Node != 0 {
		t.Fatalf("fused node should consume the scan, got input %+v", n.Inputs[0])
	}
}

func TestFuseArgsLimitRows(t *testing.T) {
	parent := &Node{Skill: "LimitRows", Args: skills.Args{"count": 10}}
	child := &Node{Skill: "LimitRows", Args: skills.Args{"count": 3}}
	args, ok := FuseArgs("LimitRows", parent, child)
	if !ok {
		t.Fatal("LimitRows pair did not fuse")
	}
	if n, err := args.Int("count"); err != nil || n != 3 {
		t.Fatalf("fused count = %d, %v; want 3", n, err)
	}
}

func TestFuseArgsKeepColumnsSubsetGuard(t *testing.T) {
	parent := &Node{Skill: "KeepColumns", Args: skills.Args{"columns": []string{"A", "b"}}}
	sub := &Node{Skill: "KeepColumns", Args: skills.Args{"columns": []string{"a"}}}
	if args, ok := FuseArgs("KeepColumns", parent, sub); !ok {
		t.Fatal("subset projection did not fuse")
	} else if cols, _ := args.StringList("columns"); !reflect.DeepEqual(cols, []string{"a"}) {
		t.Fatalf("fused columns = %v, want [a]", cols)
	}
	// A child projecting a column the parent dropped must NOT fuse: sequential
	// execution errors, and fusion must preserve that.
	bad := &Node{Skill: "KeepColumns", Args: skills.Args{"columns": []string{"a", "c"}}}
	if _, ok := FuseArgs("KeepColumns", parent, bad); ok {
		t.Fatal("non-subset projection fused; it would mask the sequential error")
	}
}

func TestFusePassSkipsSharedParent(t *testing.T) {
	p := New(2)
	p.Add(&Node{ID: 0, Skill: "KeepRows", Args: skills.Args{"condition": "a > 1"},
		Inputs: []Input{{Node: External, Name: "d"}}})
	p.Add(&Node{ID: 1, Skill: "KeepRows", Args: skills.Args{"condition": "b < 2"},
		Inputs: []Input{{Node: 0, Name: "node0"}}})
	p.Add(&Node{ID: 2, Skill: "KeepRows", Args: skills.Args{"condition": "c = 3"},
		Inputs: []Input{{Node: 0, Name: "node0"}}})
	mustRun(t, p, nil, FusePass())
	if p.Node(0) == nil {
		t.Fatal("shared parent was absorbed despite having two consumers")
	}
}

func TestFingerprintFusedMatchesPremerged(t *testing.T) {
	env := lookupEnv(t)

	// Live two-step chain, fused before fingerprinting.
	live := New(2)
	live.Add(&Node{ID: 0, Skill: "LoadData", Args: skills.Args{"file": "f.csv"}, Output: "d"})
	live.Add(&Node{ID: 1, Skill: "KeepRows", Args: skills.Args{"condition": "a > 1"},
		Inputs: []Input{{Node: 0, Name: "d"}}})
	live.Add(&Node{ID: 2, Skill: "KeepRows", Args: skills.Args{"condition": "b < 2"},
		Inputs: []Input{{Node: 1, Name: "node1"}}, Output: "out"})
	mustRun(t, live, env, FusePass(), FingerprintPass())

	// The same pipeline as a recipe would record it after slicing pre-merged
	// the two filters into one step.
	merged := New(1)
	merged.Add(&Node{ID: 0, Skill: "LoadData", Args: skills.Args{"file": "f.csv"}, Output: "d"})
	merged.Add(&Node{ID: 1, Skill: "KeepRows", Args: skills.Args{"condition": "(a > 1) AND (b < 2)"},
		Inputs: []Input{{Node: 0, Name: "d"}}, Output: "out"})
	mustRun(t, merged, env, FusePass(), FingerprintPass())

	lfp := live.Node(live.Target).Fingerprint
	mfp := merged.Node(merged.Target).Fingerprint
	if lfp == "" || lfp != mfp {
		t.Fatalf("fused chain fingerprint %q != pre-merged fingerprint %q", lfp, mfp)
	}
}

func TestFingerprintVolatilePropagates(t *testing.T) {
	env := lookupEnv(t)
	env.ExtFingerprint = func(string) (uint64, bool) { return 7, true }
	p := New(1)
	// LoadData is volatile (reads outside the session), so neither it nor its
	// descendants may receive cache keys.
	p.Add(&Node{ID: 0, Skill: "LoadData", Args: skills.Args{"file": "f.csv"}, Output: "d"})
	p.Add(&Node{ID: 1, Skill: "KeepRows", Args: skills.Args{"condition": "a > 1"},
		Inputs: []Input{{Node: 0, Name: "d"}}, Output: "out"})
	mustRun(t, p, env, FingerprintPass())
	if !p.Node(1).Volatile {
		t.Fatal("volatility did not propagate to the descendant")
	}
	if p.Node(1).Key != "" {
		t.Fatalf("volatile descendant got cache key %q", p.Node(1).Key)
	}
}

func TestFingerprintKeyIncludesExternalContent(t *testing.T) {
	env := lookupEnv(t)
	env.ExtFingerprint = func(string) (uint64, bool) { return 0xabc, true }
	p := New(0)
	p.Add(&Node{ID: 0, Skill: "KeepRows", Args: skills.Args{"condition": "a > 1"},
		Inputs: []Input{{Node: External, Name: "d"}}, Output: "out"})
	mustRun(t, p, env, FingerprintPass())
	key1 := p.Node(0).Key
	if key1 == "" {
		t.Fatal("cacheable node got no key")
	}

	env2 := lookupEnv(t)
	env2.ExtFingerprint = func(string) (uint64, bool) { return 0xdef, true }
	q := New(0)
	q.Add(&Node{ID: 0, Skill: "KeepRows", Args: skills.Args{"condition": "a > 1"},
		Inputs: []Input{{Node: External, Name: "d"}}, Output: "out"})
	mustRun(t, q, env2, FingerprintPass())
	if q.Node(0).Key == key1 {
		t.Fatal("key ignored the external dataset's content fingerprint")
	}
	if q.Node(0).Fingerprint != p.Node(0).Fingerprint {
		t.Fatal("structural fingerprint should not depend on dataset content")
	}
}

func TestCacheProbePrunesAncestors(t *testing.T) {
	env := lookupEnv(t)
	env.ExtFingerprint = func(string) (uint64, bool) { return 1, true }
	cached := &skills.Result{Message: "pinned"}
	var probed []string
	env.CacheGet = func(key string) (*skills.Result, bool) {
		probed = append(probed, key)
		return cached, true
	}
	p := New(1)
	p.Add(&Node{ID: 0, Skill: "KeepRows", Args: skills.Args{"condition": "a > 1"},
		Inputs: []Input{{Node: External, Name: "d"}}})
	p.Add(&Node{ID: 1, Skill: "KeepColumns", Args: skills.Args{"columns": []string{"a"}},
		Inputs: []Input{{Node: 0, Name: "node0"}}, Output: "out"})
	mustRun(t, p, env, FingerprintPass(), CacheProbePass())
	n := p.Node(1)
	if !n.Cached || n.Pinned != cached {
		t.Fatalf("target not pinned: cached=%v pinned=%v", n.Cached, n.Pinned)
	}
	if p.Node(0) != nil {
		t.Fatal("ancestor of a cache hit was not pruned")
	}
	if len(probed) != 1 {
		t.Fatalf("probe touched %d keys, want 1 (descent must stop at the hit)", len(probed))
	}
}

func TestConsolidateStopsAtCachedAndShared(t *testing.T) {
	env := lookupEnv(t)
	p := New(3)
	p.Add(&Node{ID: 0, Skill: "KeepRows", Args: skills.Args{"condition": "a > 1"},
		Inputs: []Input{{Node: External, Name: "d"}}})
	p.Add(&Node{ID: 1, Skill: "KeepRows", Args: skills.Args{"condition": "b < 2"},
		Inputs: []Input{{Node: 0, Name: "node0"}}})
	p.Add(&Node{ID: 2, Skill: "KeepColumns", Args: skills.Args{"columns": []string{"a"}},
		Inputs: []Input{{Node: 1, Name: "node1"}}})
	p.Add(&Node{ID: 3, Skill: "LimitRows", Args: skills.Args{"count": 5},
		Inputs: []Input{{Node: 2, Name: "node2"}}, Output: "out"})
	// Mark node 1 as a plan-time hit: the chain below must build on it.
	if err := RunPasses(p, env, FingerprintPass()); err != nil {
		t.Fatal(err)
	}
	p.Node(1).Cached = true
	mustRun(t, p, env, ConsolidatePass())
	tr := trace(t, p, "consolidate")
	if tr.Chains != 2 {
		t.Fatalf("Chains = %d, want 2 (cached node splits the run)", tr.Chains)
	}
	last := p.Fragments[len(p.Fragments)-1]
	if last.Base.Node != 1 {
		t.Fatalf("tail fragment base = %+v, want node 1 (the cached prefix)", last.Base)
	}
	if !reflect.DeepEqual(last.Nodes, []int{2, 3}) {
		t.Fatalf("tail fragment nodes = %v, want [2 3]", last.Nodes)
	}
}

func TestConsolidateCountsAbsorbedNodes(t *testing.T) {
	env := lookupEnv(t)
	p := New(2)
	p.Add(&Node{ID: 2, Skill: "KeepRows", Args: skills.Args{"condition": "a > 1"},
		Inputs: []Input{{Node: External, Name: "d"}}, Output: "out", Absorbed: []int{0, 1}})
	mustRun(t, p, env, FingerprintPass(), ConsolidatePass())
	tr := trace(t, p, "consolidate")
	if tr.NodesConsolidated != 3 {
		t.Fatalf("NodesConsolidated = %d, want 3 (1 survivor + 2 absorbed)", tr.NodesConsolidated)
	}
}

func TestPushdownCopiesArgsAndRespectsGuard(t *testing.T) {
	env := lookupEnv(t)
	sharedArgs := skills.Args{"database": "db", "table": "t1"}
	p := New(1)
	p.Add(&Node{ID: 0, Skill: "LoadTable", Args: sharedArgs, Output: "d"})
	p.Add(&Node{ID: 1, Skill: "KeepColumns", Args: skills.Args{"columns": []string{"a"}},
		Inputs: []Input{{Node: 0, Name: "d"}}, Output: "out"})
	mustRun(t, p, env, FingerprintPass(), PushdownPass())
	scan := p.Node(0)
	if _, ok := scan.Args["columns"]; !ok {
		t.Fatalf("columns were not pushed into the scan: %v", scan.Args)
	}
	if _, ok := sharedArgs["columns"]; ok {
		t.Fatal("pushdown mutated the shared lowered Args map instead of copying")
	}
	if !reflect.DeepEqual(scan.Pushdown, []string{"columns"}) {
		t.Fatalf("Pushdown = %v, want [columns]", scan.Pushdown)
	}

	// A scan that already carries a user-written condition must be left alone:
	// mixing user and pushed arguments would diverge from sequential order.
	q := New(1)
	q.Add(&Node{ID: 0, Skill: "LoadTable",
		Args: skills.Args{"database": "db", "table": "t1", "condition": "a > 1"}, Output: "d"})
	q.Add(&Node{ID: 1, Skill: "KeepColumns", Args: skills.Args{"columns": []string{"a"}},
		Inputs: []Input{{Node: 0, Name: "d"}}, Output: "out"})
	mustRun(t, q, env, FingerprintPass(), PushdownPass())
	if got := trace(t, q, "pushdown").Pushdowns; got != 0 {
		t.Fatalf("Pushdowns = %d, want 0 when the scan has user-written args", got)
	}
}

// A pushed-down scan returns its consumer's rows, not the whole source, so its
// cache key folds in what was pushed; its structural fingerprint does not
// change.
func TestPushdownKeysTheScanApart(t *testing.T) {
	env := lookupEnv(t)
	env.ExtFingerprint = func(string) (uint64, bool) { return 1, true }
	env.SourceFingerprint = func(string, skills.Args) (uint64, bool) { return 7, true }
	scan := func(consumer *Node) *Node {
		p := New(0)
		p.Add(&Node{ID: 0, Skill: "LoadTable", Args: skills.Args{"database": "db", "table": "t1"}, Output: "d"})
		if consumer != nil {
			p.Target = 1
			p.Add(consumer)
		}
		mustRun(t, p, env, FingerprintPass(), PushdownPass())
		return p.Node(0)
	}
	keep := func(cond string) *Node {
		return &Node{ID: 1, Skill: "KeepRows", Args: skills.Args{"condition": cond},
			Inputs: []Input{{Node: 0, Name: "d"}}, Output: "out"}
	}
	whole := scan(nil)
	if whole.Key == "" {
		t.Fatal("the whole scan got no cache key")
	}
	low, high := scan(keep("a < 10")), scan(keep("a >= 10"))
	cols := scan(&Node{ID: 1, Skill: "KeepColumns", Args: skills.Args{"columns": []string{"a"}},
		Inputs: []Input{{Node: 0, Name: "d"}}, Output: "out"})
	keys := map[string]bool{whole.Key: true, low.Key: true, high.Key: true, cols.Key: true}
	if len(keys) != 4 {
		t.Fatalf("pushed-down scans share cache keys: whole %q, a<10 %q, a>=10 %q, columns %q",
			whole.Key, low.Key, high.Key, cols.Key)
	}
	for _, n := range []*Node{low, high, cols} {
		if len(n.Pushdown) != 1 || n.Fingerprint != whole.Fingerprint {
			t.Fatalf("pushdown %v, fingerprint %q; want one pushdown and the whole scan's %q",
				n.Pushdown, n.Fingerprint, whole.Fingerprint)
		}
	}
}

func TestPushdownSkipsSharedScan(t *testing.T) {
	env := lookupEnv(t)
	p := New(2)
	p.Add(&Node{ID: 0, Skill: "LoadTable", Args: skills.Args{"database": "db", "table": "t1"}, Output: "d"})
	p.Add(&Node{ID: 1, Skill: "KeepColumns", Args: skills.Args{"columns": []string{"a"}},
		Inputs: []Input{{Node: 0, Name: "d"}}})
	p.Add(&Node{ID: 2, Skill: "KeepRows", Args: skills.Args{"condition": "a > 1"},
		Inputs: []Input{{Node: 0, Name: "d"}}, Output: "out"})
	mustRun(t, p, env, FingerprintPass(), PushdownPass())
	if got := trace(t, p, "pushdown").Pushdowns; got != 0 {
		t.Fatalf("Pushdowns = %d, want 0 for a scan with two consumers", got)
	}
}
