package dag

import (
	"context"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"datachat/internal/dataset"
	"datachat/internal/skills"
)

// TestDiamondPlansInLinearTime: a 40-deep diamond DAG has 2^40 root-to-leaf
// paths, so anything in the plan pipeline that walked paths instead of nodes
// (ancestor collection, fingerprinting, external-input sets) would take
// combinatorial time.
func TestDiamondPlansInLinearTime(t *testing.T) {
	buildDiamond := func(depth int) (*Graph, NodeID) {
		g := NewGraph()
		prev := "base"
		var last NodeID
		for i := 0; i < depth; i++ {
			out := fmt.Sprintf("d%d", i)
			// Both inputs resolve to the same producer: a diamond at every
			// level.
			last = g.Add(skills.Invocation{Skill: "JoinDatasets",
				Inputs: []string{prev, prev},
				Args:   skills.Args{"on": fmt.Sprintf("a.id = b.id /* %d */", i)},
				Output: out})
			prev = out
		}
		return g, last
	}
	targetFingerprint := func() string {
		g, last := buildDiamond(40)
		e, err := NewExecutor(reg, newCtx(t)).Explain(g, last)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range e.Nodes {
			if n.Output == "d39" {
				return n.Fingerprint
			}
		}
		t.Fatal("EXPLAIN has no node for the diamond's target")
		return ""
	}

	start := time.Now()
	fp := targetFingerprint()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("planning a 40-deep diamond took %v", elapsed)
	}
	if fp == "" || fp != targetFingerprint() {
		t.Error("identical diamonds should share a plan fingerprint")
	}
}

// TestCacheNotStaleAfterDataRefresh is the regression test for stale cache
// hits: the seed keyed external inputs by dataset *name* only, so replacing
// a dataset's content under the same name kept serving the old cached
// result. Content fingerprints in the key make the second run recompute.
func TestCacheNotStaleAfterDataRefresh(t *testing.T) {
	ctx := newCtx(t)
	ex := NewExecutor(reg, ctx)
	g := NewGraph()
	last := g.Add(skills.Invocation{Skill: "Compute", Inputs: []string{"base"},
		Args: skills.Args{"aggregates": []string{"sum of v as total"}}})
	res1, err := ex.Run(g, last)
	if err != nil {
		t.Fatal(err)
	}
	// The same dataset name is refreshed with different content.
	vals := make([]float64, 100)
	ids := make([]int64, 100)
	for i := range vals {
		ids[i] = int64(i)
		vals[i] = 1000
	}
	ctx.PutDataset("base", dataset.MustNewTable("base",
		dataset.IntColumn("id", ids, nil),
		dataset.FloatColumn("v", vals, nil),
	))
	res2, err := ex.Run(g, last)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Table.Equal(res2.Table) {
		t.Fatal("refreshed data served a stale cached result")
	}
	if hits := ex.Stats().CacheHits; hits != 0 {
		t.Errorf("cache hits = %d, want 0 (keys must differ across content)", hits)
	}
	// Running again with unchanged content hits normally.
	if _, err := ex.Run(g, last); err != nil {
		t.Fatal(err)
	}
	if hits := ex.Stats().CacheHits; hits != 1 {
		t.Errorf("cache hits = %d, want 1 after an identical rerun", hits)
	}
}

// TestChainPrefixCachePolicy pins down the consolidation cache policy: a
// chain task caches only its tail signature, an interior node targeted later
// recomputes (as a shorter chain) and is then cached, and subsequent chains
// stop extending at the cached prefix and reuse it as their base.
func TestChainPrefixCachePolicy(t *testing.T) {
	ctx := newCtx(t)
	ex := NewExecutor(reg, ctx)
	g := NewGraph()
	f := g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{"base"},
		Args: skills.Args{"condition": "v > 2"}, Output: "f"})
	p := g.Add(skills.Invocation{Skill: "KeepColumns", Inputs: []string{"f"},
		Args: skills.Args{"columns": []string{"id", "v"}}, Output: "p"})
	if _, err := ex.Run(g, p); err != nil {
		t.Fatal(err)
	}
	s0 := ex.Stats()
	if s0.SQLTasks != 1 || s0.NodesConsolidated != 2 {
		t.Fatalf("first run should consolidate [f p] into one task: %+v", s0)
	}

	// Targeting the interior node misses (only the tail was cached) and
	// executes f as its own one-node chain — which caches it.
	if _, err := ex.Run(g, f); err != nil {
		t.Fatal(err)
	}
	s1 := ex.Stats()
	if s1.CacheHits != s0.CacheHits {
		t.Errorf("interior chain node should not hit the cache: %+v", s1)
	}
	if s1.NodesConsolidated != s0.NodesConsolidated+1 {
		t.Errorf("interior target should run as a one-node chain: %+v", s1)
	}

	// A new chain on top of f stops at the cached prefix: f is served from
	// the cache and only the new node consolidates.
	l := g.Add(skills.Invocation{Skill: "LimitRows", Inputs: []string{"f"},
		Args: skills.Args{"count": 5}, Output: "l"})
	if _, err := ex.Run(g, l); err != nil {
		t.Fatal(err)
	}
	s2 := ex.Stats()
	if s2.CacheHits != s1.CacheHits+1 {
		t.Errorf("cached prefix f should be reused as the chain base: %+v", s2)
	}
	if s2.NodesConsolidated != s1.NodesConsolidated+1 {
		t.Errorf("chain should contain only the new node: %+v", s2)
	}
}

func TestVolatileSkillsNeverCached(t *testing.T) {
	ctx := newCtx(t)
	ex := NewExecutor(reg, ctx)
	g := NewGraph()
	list := g.Add(skills.Invocation{Skill: "ListDatasets", Output: "catalog"})
	for i := 1; i <= 2; i++ {
		if _, err := ex.Run(g, list); err != nil {
			t.Fatal(err)
		}
		if got := ex.Stats().TasksRun; got != i {
			t.Errorf("run %d: tasks = %d, want %d (volatile reruns every time)", i, got, i)
		}
	}
	if ex.Stats().CacheHits != 0 {
		t.Errorf("volatile node hit the cache: %+v", ex.Stats())
	}
	// Descendants of a volatile node are tainted and rerun too.
	lim := g.Add(skills.Invocation{Skill: "LimitRows", Inputs: []string{"catalog"},
		Args: skills.Args{"count": 2}, Output: "top"})
	before := ex.Stats().TasksRun
	for i := 0; i < 2; i++ {
		if _, err := ex.Run(g, lim); err != nil {
			t.Fatal(err)
		}
	}
	if got := ex.Stats().TasksRun; got != before+4 {
		t.Errorf("tainted descendant should rerun with its parent: %d -> %d, want +4", before, got)
	}
	if ex.Stats().CacheHits != 0 {
		t.Errorf("tainted descendant hit the cache: %+v", ex.Stats())
	}
}

// branchyGraph builds a fan-out/fan-in DAG: a shared filter, k relational
// branch chains (two of them identical except for output names, exercising
// in-run deduplication), concatenated into one target.
func branchyGraph(k int) (*Graph, NodeID) {
	g := NewGraph()
	g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{"base"},
		Args: skills.Args{"condition": "v >= 0"}, Output: "shared"})
	tails := make([]string, 0, k+1)
	for i := 0; i < k; i++ {
		fOut := fmt.Sprintf("b%df", i)
		g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{"shared"},
			Args: skills.Args{"condition": fmt.Sprintf("v > %d", i%7)}, Output: fOut})
		cOut := fmt.Sprintf("b%dc", i)
		g.Add(skills.Invocation{Skill: "NewColumn", Inputs: []string{fOut},
			Args: skills.Args{"name": fmt.Sprintf("w%d", i), "formula": fmt.Sprintf("v * %d", i+2)}, Output: cOut})
		tail := fmt.Sprintf("b%dt", i)
		g.Add(skills.Invocation{Skill: "SortRows", Inputs: []string{cOut},
			Args: skills.Args{"columns": "id"}, Output: tail})
		tails = append(tails, tail)
	}
	// A branch identical to branch 0 up to output names: same signatures,
	// so its tasks share cache keys with branch 0's within a single run.
	g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{"shared"},
		Args: skills.Args{"condition": "v > 0"}, Output: "dupf"})
	g.Add(skills.Invocation{Skill: "NewColumn", Inputs: []string{"dupf"},
		Args: skills.Args{"name": "w0", "formula": "v * 2"}, Output: "dupc"})
	g.Add(skills.Invocation{Skill: "SortRows", Inputs: []string{"dupc"},
		Args: skills.Args{"columns": "id"}, Output: "dupt"})
	tails = append(tails, "dupt")
	target := g.Add(skills.Invocation{Skill: "Concatenate", Inputs: tails, Output: "all"})
	return g, target
}

// TestParallelMatchesSerialProperty is the §2.2 schedule-independence
// property: for branchy DAGs, serial execution (Parallelism=1) and parallel
// execution produce identical result tables and identical stats.
func TestParallelMatchesSerialProperty(t *testing.T) {
	run := func(parallelism, branches int) (*skills.Result, Stats, error) {
		ex := NewExecutor(reg, newCtxQuiet())
		g, target := branchyGraph(branches)
		res, rep, err := ex.RunWith(context.Background(), g, target, ExecOptions{Parallelism: parallelism})
		return res, rep.Stats, err
	}
	f := func(raw uint8) bool {
		branches := 2 + int(raw%6)
		serialRes, serialStats, err := run(1, branches)
		if err != nil {
			t.Log(err)
			return false
		}
		for _, workers := range []int{0, 4, 16} {
			parRes, parStats, err := run(workers, branches)
			if err != nil {
				t.Log(err)
				return false
			}
			if !serialRes.Table.Equal(parRes.Table.WithName(serialRes.Table.Name())) {
				t.Logf("parallelism %d: result differs from serial", workers)
				return false
			}
			if serialStats != parStats {
				t.Logf("parallelism %d: stats %+v != serial %+v", workers, parStats, serialStats)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestParallelRunDeduplicatesIdenticalBranches checks that two structurally
// identical branches submitted in one run execute once: the second is served
// by the cache (or joins the first's in-flight computation under parallel
// scheduling) — singleflight in action.
func TestParallelRunDeduplicatesIdenticalBranches(t *testing.T) {
	for _, parallelism := range []int{1, 8} {
		// With session-wide CSE off, the duplicate branch still dedups at
		// execution time: the second fragment joins the first's cache entry
		// (or in-flight computation) — singleflight in action.
		ex := NewExecutor(reg, newCtxQuiet())
		ex.CSE = false
		opts := ExecOptions{Parallelism: parallelism}
		g, target := branchyGraph(1) // branch 0 + its duplicate
		_, rep, err := ex.RunWith(context.Background(), g, target, opts)
		if err != nil {
			t.Fatal(err)
		}
		stats := rep.Stats
		if stats.CacheHits != 1 {
			t.Errorf("parallelism %d: cache hits = %d, want 1 (duplicate branch deduplicated)", parallelism, stats.CacheHits)
		}

		// With CSE on (the default), the duplicate never even plans: the
		// cse pass merges the identical sub-plans before task emission and
		// the one result materializes under both output names.
		ex2 := NewExecutor(reg, newCtxQuiet())
		g2, target2 := branchyGraph(1)
		res, _, err := ex2.RunWith(context.Background(), g2, target2, opts)
		if err != nil {
			t.Fatal(err)
		}
		ctx2 := ex2.Ctx
		dup, err := ctx2.Dataset("dupt")
		if err != nil {
			t.Fatalf("parallelism %d: CSE alias dupt not materialized: %v", parallelism, err)
		}
		orig, err := ctx2.Dataset("b0t")
		if err != nil {
			t.Fatal(err)
		}
		if !dup.Equal(orig.WithName(dup.Name())) {
			t.Errorf("parallelism %d: alias dataset differs from survivor", parallelism)
		}
		ex3 := NewExecutor(reg, newCtxQuiet())
		ex3.CSE = false
		g3, target3 := branchyGraph(1)
		base, err := ex3.Run(g3, target3)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Table.Equal(base.Table.WithName(res.Table.Name())) {
			t.Errorf("parallelism %d: CSE changed the result", parallelism)
		}
		ex2e, err := ex2.Explain(g2, target2)
		if err != nil {
			t.Fatal(err)
		}
		cseFired := false
		for _, pt := range ex2e.Passes {
			if pt.Pass == "cse" && pt.Fired && pt.Dedup >= 3 {
				cseFired = true
			}
		}
		if !cseFired {
			t.Errorf("parallelism %d: cse pass did not dedup the duplicate branch", parallelism)
		}
	}
}

func TestRunErrorsPropagateFromParallelBranches(t *testing.T) {
	ex := NewExecutor(reg, newCtxQuiet())
	g := NewGraph()
	tails := []string{}
	for i := 0; i < 4; i++ {
		out := fmt.Sprintf("t%d", i)
		cond := fmt.Sprintf("v > %d", i)
		if i == 2 {
			cond = "no_such_column > 1" // this branch fails at execution
		}
		g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{"base"},
			Args: skills.Args{"condition": cond}, Output: out})
		tails = append(tails, out)
	}
	target := g.Add(skills.Invocation{Skill: "Concatenate", Inputs: tails})
	if _, _, err := ex.RunWith(context.Background(), g, target, ExecOptions{Parallelism: 8}); err == nil {
		t.Fatal("failing branch should fail the run")
	}
}
