package dag

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"datachat/internal/dataset"
	"datachat/internal/skills"
)

func newCtx(t *testing.T) *skills.Context {
	t.Helper()
	ctx := skills.NewContext()
	ids := make([]int64, 100)
	vals := make([]float64, 100)
	cats := make([]string, 100)
	for i := range ids {
		ids[i] = int64(i)
		vals[i] = float64(i % 10)
		cats[i] = string(rune('a' + i%4))
	}
	ctx.Datasets["base"] = dataset.MustNewTable("base",
		dataset.IntColumn("id", ids, nil),
		dataset.FloatColumn("v", vals, nil),
		dataset.StringColumn("cat", cats, nil),
	)
	return ctx
}

var reg = skills.NewRegistry()

func TestGraphWiring(t *testing.T) {
	g := NewGraph()
	a := g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{"base"},
		Args: skills.Args{"condition": "id > 10"}, Output: "filtered"})
	b := g.Add(skills.Invocation{Skill: "LimitRows", Inputs: []string{"filtered"},
		Args: skills.Args{"count": 5}})
	nodeB, err := g.Node(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodeB.Parents) != 1 || nodeB.Parents[0] != a {
		t.Errorf("parents = %v", nodeB.Parents)
	}
	nodeA, _ := g.Node(a)
	if nodeA.Parents[0] != -1 {
		t.Errorf("external input should have parent -1, got %v", nodeA.Parents)
	}
	if g.Last() != b {
		t.Errorf("Last = %v", g.Last())
	}
	if _, err := g.Node(99); err == nil {
		t.Error("missing node should error")
	}
	anc, err := g.Ancestors(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(anc) != 2 || anc[0] != a {
		t.Errorf("ancestors = %v", anc)
	}
}

// TestGraphConcurrentAddAndRead: the graph is internally synchronized — the
// network layer reads Len/Last/ProducerOf (and Explain walks ancestors)
// while a session execution appends nodes. Meaningful under -race.
func TestGraphConcurrentAddAndRead(t *testing.T) {
	g := NewGraph()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			prev := "base"
			if i > 0 {
				prev = fmt.Sprintf("d%d", i-1)
			}
			g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{prev},
				Args:   skills.Args{"condition": fmt.Sprintf("id > %d", i)},
				Output: fmt.Sprintf("d%d", i)})
		}
	}()
	for i := 0; i < 200; i++ {
		_ = g.Len()
		_, _ = g.ProducerOf("d0")
		_ = g.Order()
		if last := g.Last(); last >= 0 {
			if _, err := g.Ancestors(last); err != nil {
				t.Errorf("Ancestors(%d): %v", last, err)
			}
			_ = IsLinear(g)
		}
	}
	<-done
	if g.Len() != 200 {
		t.Fatalf("Len = %d, want 200", g.Len())
	}
}

func TestRunSimpleChainConsolidates(t *testing.T) {
	ctx := newCtx(t)
	ex := NewExecutor(reg, ctx)
	g := NewGraph()
	g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{"base"},
		Args: skills.Args{"condition": "v > 5"}, Output: "f"})
	g.Add(skills.Invocation{Skill: "KeepColumns", Inputs: []string{"f"},
		Args: skills.Args{"columns": []string{"id", "v"}}, Output: "p"})
	last := g.Add(skills.Invocation{Skill: "LimitRows", Inputs: []string{"p"},
		Args: skills.Args{"count": 7}})
	res, err := ex.Run(g, last)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 7 || res.Table.NumCols() != 2 {
		t.Errorf("result shape = %d×%d", res.Table.NumRows(), res.Table.NumCols())
	}
	stats := ex.Stats()
	if stats.SQLTasks != 1 || stats.DirectTasks != 0 {
		t.Errorf("stats = %+v, want one SQL task", stats)
	}
	if stats.NodesConsolidated != 3 {
		t.Errorf("consolidated = %d, want 3", stats.NodesConsolidated)
	}
	if stats.QueryBlocks != 1 {
		t.Errorf("query blocks = %d, want 1 (Figure 4)", stats.QueryBlocks)
	}
}

func TestRunWithoutConsolidation(t *testing.T) {
	ctx := newCtx(t)
	ex := NewExecutor(reg, ctx)
	ex.Consolidate = false
	g := NewGraph()
	g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{"base"},
		Args: skills.Args{"condition": "v > 5"}, Output: "f"})
	last := g.Add(skills.Invocation{Skill: "LimitRows", Inputs: []string{"f"},
		Args: skills.Args{"count": 7}})
	res, err := ex.Run(g, last)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 7 {
		t.Errorf("rows = %d", res.Table.NumRows())
	}
	stats := ex.Stats()
	if stats.DirectTasks != 2 || stats.SQLTasks != 0 {
		t.Errorf("stats = %+v, want two direct tasks", stats)
	}
}

func TestConsolidatedMatchesDirect(t *testing.T) {
	build := func() *Graph {
		g := NewGraph()
		g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{"base"},
			Args: skills.Args{"condition": "v >= 3"}, Output: "a"})
		g.Add(skills.Invocation{Skill: "NewColumn", Inputs: []string{"a"},
			Args: skills.Args{"name": "v2", "formula": "v * 2"}, Output: "b"})
		g.Add(skills.Invocation{Skill: "Compute", Inputs: []string{"b"},
			Args: skills.Args{"aggregates": []string{"sum of v2 as total"}, "for_each": []string{"cat"}}, Output: "c"})
		g.Add(skills.Invocation{Skill: "SortRows", Inputs: []string{"c"},
			Args: skills.Args{"columns": "cat"}, Output: "d"})
		return g
	}
	g := build()
	exA := NewExecutor(reg, newCtx(t))
	resA, err := exA.Run(g, g.Last())
	if err != nil {
		t.Fatal(err)
	}
	exB := NewExecutor(reg, newCtx(t))
	exB.Consolidate = false
	resB, err := exB.Run(build(), g.Last())
	if err != nil {
		t.Fatal(err)
	}
	if !resA.Table.Equal(resB.Table.WithName(resA.Table.Name())) {
		t.Errorf("consolidated != direct:\n%s\nvs\n%s", resA.Table, resB.Table)
	}
}

func TestMixedRelationalAndDirectNodes(t *testing.T) {
	ctx := newCtx(t)
	ex := NewExecutor(reg, ctx)
	g := NewGraph()
	g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{"base"},
		Args: skills.Args{"condition": "id < 50"}, Output: "f"})
	g.Add(skills.Invocation{Skill: "DescribeDataset", Inputs: []string{"f"}, Output: "desc"})
	last := g.Add(skills.Invocation{Skill: "LimitRows", Inputs: []string{"desc"},
		Args: skills.Args{"count": 2}})
	res, err := ex.Run(g, last)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 2 {
		t.Errorf("rows = %d", res.Table.NumRows())
	}
	stats := ex.Stats()
	if stats.DirectTasks == 0 || stats.SQLTasks == 0 {
		t.Errorf("expected mixed task kinds: %+v", stats)
	}
}

func TestSharedSubDAGMaterializedOnce(t *testing.T) {
	ctx := newCtx(t)
	ex := NewExecutor(reg, ctx)
	g := NewGraph()
	g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{"base"},
		Args: skills.Args{"condition": "v > 2"}, Output: "shared"})
	g.Add(skills.Invocation{Skill: "Compute", Inputs: []string{"shared"},
		Args: skills.Args{"aggregates": []string{"count of records as n"}}, Output: "lhs"})
	join := g.Add(skills.Invocation{Skill: "JoinDatasets", Inputs: []string{"lhs", "shared"},
		Args: skills.Args{"on": "lhs.n > shared.id", "kind": "inner"}})
	if _, err := ex.Run(g, join); err != nil {
		t.Fatal(err)
	}
	// "shared" feeds two consumers: it must be materialized, not folded
	// into either chain.
	if _, ok := ctx.Datasets["shared"]; !ok {
		t.Error("shared node output not materialized")
	}
}

func TestCacheHitsAcrossRuns(t *testing.T) {
	ctx := newCtx(t)
	ex := NewExecutor(reg, ctx)
	g := NewGraph()
	last := g.Add(skills.Invocation{Skill: "Compute", Inputs: []string{"base"},
		Args: skills.Args{"aggregates": []string{"sum of v as total"}, "for_each": []string{"cat"}}})
	if _, err := ex.Run(g, last); err != nil {
		t.Fatal(err)
	}
	before := ex.Stats()
	if _, err := ex.Run(g, last); err != nil {
		t.Fatal(err)
	}
	after := ex.Stats()
	if after.CacheHits != before.CacheHits+1 {
		t.Errorf("cache hits = %d -> %d", before.CacheHits, after.CacheHits)
	}
	if after.TasksRun != before.TasksRun {
		t.Errorf("second run should not run tasks: %+v", after)
	}
	// Same computation in a fresh graph also hits (shared sub-DAG reuse).
	g2 := NewGraph()
	last2 := g2.Add(skills.Invocation{Skill: "Compute", Inputs: []string{"base"},
		Args: skills.Args{"aggregates": []string{"sum of v as total"}, "for_each": []string{"cat"}}})
	if _, err := ex.Run(g2, last2); err != nil {
		t.Fatal(err)
	}
	if ex.Stats().CacheHits != after.CacheHits+1 {
		t.Error("equivalent graph should hit the cache")
	}
	ex.InvalidateCache()
	if _, err := ex.Run(g2, last2); err != nil {
		t.Fatal(err)
	}
	if ex.Stats().TasksRun == after.TasksRun {
		t.Error("invalidated cache should force re-execution")
	}
}

// TestCacheHitsAcrossFileLoads is the regression test for the serving-path
// cache never hitting: LoadData is volatile by definition, but its source
// file content-fingerprints, so repeated identical load→aggregate pipelines
// must share one sub-DAG cache entry — while re-registering the file with
// different bytes must miss and recompute.
func TestCacheHitsAcrossFileLoads(t *testing.T) {
	ctx := newCtx(t)
	ctx.PutFile("load.csv", "id,grp,v\n1,a,10\n2,b,20\n3,a,30\n")
	ex := NewExecutor(reg, ctx)
	program := func(g *Graph) NodeID {
		g.Add(skills.Invocation{Skill: "LoadData", Args: skills.Args{"source": "load.csv", "name": "loaded"}, Output: "loaded"})
		return g.Add(skills.Invocation{Skill: "Compute", Inputs: []string{"loaded"},
			Args: skills.Args{"aggregates": []string{"sum of v as total"}, "for_each": []string{"grp"}}})
	}
	g := NewGraph()
	if _, err := ex.Run(g, program(g)); err != nil {
		t.Fatal(err)
	}
	before := ex.Stats()
	g2 := NewGraph()
	if _, err := ex.Run(g2, program(g2)); err != nil {
		t.Fatal(err)
	}
	after := ex.Stats()
	if after.CacheHits <= before.CacheHits {
		t.Errorf("identical file-load pipeline missed the cache: hits %d -> %d", before.CacheHits, after.CacheHits)
	}
	// New content under the same file name must not serve the stale result.
	ctx.PutFile("load.csv", "id,grp,v\n1,a,100\n")
	g3 := NewGraph()
	res, err := ex.Run(g3, program(g3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Table == nil || res.Table.NumRows() != 1 {
		t.Fatalf("stale cached result served after file re-registration: %v", res.Table)
	}
}

func TestCacheDisabled(t *testing.T) {
	ctx := newCtx(t)
	ex := NewExecutor(reg, ctx)
	ex.UseCache = false
	g := NewGraph()
	last := g.Add(skills.Invocation{Skill: "CountRows", Inputs: []string{"base"}})
	if _, err := ex.Run(g, last); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Run(g, last); err != nil {
		t.Fatal(err)
	}
	if ex.Stats().CacheHits != 0 {
		t.Error("cache disabled but hits recorded")
	}
	if ex.Stats().TasksRun != 2 {
		t.Errorf("tasks = %d, want 2", ex.Stats().TasksRun)
	}
}

func TestRunErrors(t *testing.T) {
	ctx := newCtx(t)
	ex := NewExecutor(reg, ctx)
	g := NewGraph()
	bad := g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{"missing_dataset"},
		Args: skills.Args{"condition": "x > 1"}})
	if _, err := ex.Run(g, bad); err == nil {
		t.Error("missing external dataset should error")
	}
	g2 := NewGraph()
	unknown := g2.Add(skills.Invocation{Skill: "Nope", Inputs: []string{"base"}})
	if _, err := ex.Run(g2, unknown); err == nil {
		t.Error("unknown skill should error")
	}
	if _, err := ex.Run(g2, 42); err == nil {
		t.Error("unknown target should error")
	}
}

// TestSliceFigure5 reproduces the Figure 5 behaviour: a branchy exploratory
// session slices down to the linear recipe of one chart-feeding chain.
func TestSliceFigure5(t *testing.T) {
	g := NewGraph()
	// The productive chain.
	g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{"base"},
		Args: skills.Args{"condition": "v > 1"}, Output: "s1"})
	g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{"s1"},
		Args: skills.Args{"condition": "v < 9"}, Output: "s2"})
	target := g.Add(skills.Invocation{Skill: "Compute", Inputs: []string{"s2"},
		Args: skills.Args{"aggregates": []string{"count of records as n"}, "for_each": []string{"cat"}}, Output: "final"})
	// Dead exploratory branches.
	g.Add(skills.Invocation{Skill: "DescribeDataset", Inputs: []string{"base"}, Output: "x1"})
	g.Add(skills.Invocation{Skill: "TopValues", Inputs: []string{"s1"},
		Args: skills.Args{"column": "cat"}, Output: "x2"})
	g.Add(skills.Invocation{Skill: "LimitRows", Inputs: []string{"x2"},
		Args: skills.Args{"count": 3}, Output: "x3"})
	g.Add(skills.Invocation{Skill: "CountRows", Inputs: []string{"base"}, Output: "x4"})

	sliced, report, err := Slice(g, target)
	if err != nil {
		t.Fatal(err)
	}
	if report.NodesBefore != 7 {
		t.Errorf("before = %d", report.NodesBefore)
	}
	if report.Pruned != 4 {
		t.Errorf("pruned = %d, want 4", report.Pruned)
	}
	if report.Merged != 1 { // the two KeepRows merge
		t.Errorf("merged = %d, want 1", report.Merged)
	}
	if sliced.Len() != 2 {
		t.Errorf("sliced size = %d, want 2", sliced.Len())
	}
	if !IsLinear(sliced) {
		t.Error("sliced recipe should be linear")
	}

	// The sliced recipe computes the same result.
	exFull := NewExecutor(reg, newCtx(t))
	full, err := exFull.Run(g, target)
	if err != nil {
		t.Fatal(err)
	}
	exSliced := NewExecutor(reg, newCtx(t))
	slim, err := exSliced.Run(sliced, sliced.Last())
	if err != nil {
		t.Fatal(err)
	}
	if !full.Table.Equal(slim.Table.WithName(full.Table.Name())) {
		t.Errorf("sliced result differs:\n%s\nvs\n%s", full.Table, slim.Table)
	}
}

func TestSliceMergesLimitsAndProjections(t *testing.T) {
	g := NewGraph()
	g.Add(skills.Invocation{Skill: "LimitRows", Inputs: []string{"base"},
		Args: skills.Args{"count": 50}, Output: "l1"})
	g.Add(skills.Invocation{Skill: "LimitRows", Inputs: []string{"l1"},
		Args: skills.Args{"count": 20}, Output: "l2"})
	g.Add(skills.Invocation{Skill: "KeepColumns", Inputs: []string{"l2"},
		Args: skills.Args{"columns": []string{"id", "v", "cat"}}, Output: "k1"})
	target := g.Add(skills.Invocation{Skill: "KeepColumns", Inputs: []string{"k1"},
		Args: skills.Args{"columns": []string{"id"}}, Output: "k2"})
	sliced, report, err := Slice(g, target)
	if err != nil {
		t.Fatal(err)
	}
	if report.Merged != 2 {
		t.Errorf("merged = %d, want 2", report.Merged)
	}
	if sliced.Len() != 2 {
		t.Errorf("sliced size = %d", sliced.Len())
	}
	ex := NewExecutor(reg, newCtx(t))
	res, err := ex.Run(sliced, sliced.Last())
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 20 || res.Table.NumCols() != 1 {
		t.Errorf("shape = %d×%d", res.Table.NumRows(), res.Table.NumCols())
	}
}

func TestSliceKeepsFanOutIntact(t *testing.T) {
	g := NewGraph()
	g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{"base"},
		Args: skills.Args{"condition": "v > 1"}, Output: "shared"})
	g.Add(skills.Invocation{Skill: "Compute", Inputs: []string{"shared"},
		Args: skills.Args{"aggregates": []string{"count of records as n"}}, Output: "agg"})
	target := g.Add(skills.Invocation{Skill: "JoinDatasets", Inputs: []string{"agg", "shared"},
		Args: skills.Args{"on": "agg.n > shared.id"}})
	sliced, _, err := Slice(g, target)
	if err != nil {
		t.Fatal(err)
	}
	if sliced.Len() != 3 {
		t.Errorf("fan-out slice size = %d, want 3", sliced.Len())
	}
	if IsLinear(sliced) {
		t.Error("fan-out graph should not be linear")
	}
}

func TestCompileSQL(t *testing.T) {
	ctx := newCtx(t)
	ex := NewExecutor(reg, ctx)
	g := NewGraph()
	g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{"base"},
		Args: skills.Args{"condition": "v > 5"}, Output: "f"})
	last := g.Add(skills.Invocation{Skill: "LimitRows", Inputs: []string{"f"},
		Args: skills.Args{"count": 3}})
	sql, err := ex.CompileSQL(g, last)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "WHERE") || !strings.Contains(sql, "LIMIT 3") {
		t.Errorf("sql = %s", sql)
	}
	if strings.Count(sql, "SELECT") != 1 {
		t.Errorf("consolidated sql should be one block: %s", sql)
	}
	// It is the plan's fragment with nothing cached: running the chain,
	// which caches every step, leaves the view as it was.
	if _, err := ex.Run(g, last); err != nil {
		t.Fatal(err)
	}
	if again, err := ex.CompileSQL(g, last); err != nil || again != sql {
		t.Errorf("after a run the sql is %q (%v), want %q", again, err, sql)
	}
	g2 := NewGraph()
	direct := g2.Add(skills.Invocation{Skill: "DescribeDataset", Inputs: []string{"base"}})
	if _, err := ex.CompileSQL(g2, direct); err == nil {
		t.Error("non-relational node should not compile to SQL")
	}
}

func TestCloneIndependent(t *testing.T) {
	g := NewGraph()
	g.Add(skills.Invocation{Skill: "CountRows", Inputs: []string{"base"}, Output: "c"})
	clone := g.Clone()
	g.Add(skills.Invocation{Skill: "CountRows", Inputs: []string{"base"}, Output: "c2"})
	if clone.Len() != 1 || g.Len() != 2 {
		t.Errorf("clone tracked later additions: %d vs %d", clone.Len(), g.Len())
	}
}

// TestSliceEquivalenceProperty builds randomized linear chains of mergeable
// and non-mergeable skills and checks the sliced recipe always reproduces
// the full chain's result — the safety property behind Figure 5.
func TestSliceEquivalenceProperty(t *testing.T) {
	f := func(seedRaw uint16) bool {
		seed := int64(seedRaw)
		rng := seed
		next := func(n int64) int64 { // deterministic LCG
			rng = (rng*6364136223846793005 + 1442695040888963407) % (1 << 31)
			if rng < 0 {
				rng = -rng
			}
			return rng % n
		}
		g := NewGraph()
		prev := "base"
		var target NodeID
		steps := 3 + int(next(6))
		for i := 0; i < steps; i++ {
			out := fmt.Sprintf("s%d", i)
			var inv skills.Invocation
			switch next(4) {
			case 0:
				inv = skills.Invocation{Skill: "KeepRows", Inputs: []string{prev},
					Args: skills.Args{"condition": fmt.Sprintf("v > %d", next(8))}, Output: out}
			case 1:
				inv = skills.Invocation{Skill: "LimitRows", Inputs: []string{prev},
					Args: skills.Args{"count": int(20 + next(60))}, Output: out}
			case 2:
				inv = skills.Invocation{Skill: "KeepColumns", Inputs: []string{prev},
					Args: skills.Args{"columns": []string{"id", "v"}}, Output: out}
			default:
				inv = skills.Invocation{Skill: "SortRows", Inputs: []string{prev},
					Args: skills.Args{"columns": "v"}, Output: out}
			}
			target = g.Add(inv)
			prev = out
			// Occasionally add a dead branch.
			if next(3) == 0 {
				g.Add(skills.Invocation{Skill: "CountRows", Inputs: []string{prev},
					Output: fmt.Sprintf("dead%d", i)})
			}
		}
		sliced, _, err := Slice(g, target)
		if err != nil {
			return false
		}
		full, err := NewExecutor(reg, newCtxQuiet()).Run(g, target)
		if err != nil {
			return false
		}
		slim, err := NewExecutor(reg, newCtxQuiet()).Run(sliced, sliced.Last())
		if err != nil {
			return false
		}
		return full.Table.Equal(slim.Table.WithName(full.Table.Name()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func newCtxQuiet() *skills.Context {
	ctx := skills.NewContext()
	ids := make([]int64, 100)
	vals := make([]float64, 100)
	cats := make([]string, 100)
	for i := range ids {
		ids[i] = int64(i)
		vals[i] = float64(i % 10)
		cats[i] = string(rune('a' + i%4))
	}
	ctx.Datasets["base"] = dataset.MustNewTable("base",
		dataset.IntColumn("id", ids, nil),
		dataset.FloatColumn("v", vals, nil),
		dataset.StringColumn("cat", cats, nil),
	)
	return ctx
}

// TestConsolidationEquivalenceProperty builds randomized relational chains
// and checks the consolidating executor and the direct per-step executor
// produce identical tables — the dual-implementation guarantee of §2.2 at
// the DAG level.
func TestConsolidationEquivalenceProperty(t *testing.T) {
	f := func(seedRaw uint16) bool {
		rng := int64(seedRaw) + 1
		next := func(n int64) int64 {
			rng = (rng*6364136223846793005 + 1442695040888963407) % (1 << 31)
			if rng < 0 {
				rng = -rng
			}
			return rng % n
		}
		build := func() *Graph {
			localRng := int64(seedRaw) + 1
			localNext := func(n int64) int64 {
				localRng = (localRng*6364136223846793005 + 1442695040888963407) % (1 << 31)
				if localRng < 0 {
					localRng = -localRng
				}
				return localRng % n
			}
			g := NewGraph()
			prev := "base"
			steps := 2 + int(localNext(5))
			grouped := false
			for i := 0; i < steps; i++ {
				out := fmt.Sprintf("c%d", i)
				var inv skills.Invocation
				switch localNext(6) {
				case 0:
					cond := fmt.Sprintf("v >= %d", localNext(9))
					if grouped {
						cond = fmt.Sprintf("total >= %d", localNext(50))
					}
					inv = skills.Invocation{Skill: "KeepRows", Inputs: []string{prev},
						Args: skills.Args{"condition": cond}, Output: out}
				case 1:
					inv = skills.Invocation{Skill: "LimitRows", Inputs: []string{prev},
						Args: skills.Args{"count": int(5 + localNext(40))}, Output: out}
				case 2:
					if grouped {
						inv = skills.Invocation{Skill: "SortRows", Inputs: []string{prev},
							Args: skills.Args{"columns": "cat"}, Output: out}
					} else {
						inv = skills.Invocation{Skill: "KeepColumns", Inputs: []string{prev},
							Args: skills.Args{"columns": []string{"id", "v", "cat"}}, Output: out}
					}
				case 3:
					inv = skills.Invocation{Skill: "SortRows", Inputs: []string{prev},
						Args: skills.Args{"columns": "cat", "descending": localNext(2) == 0}, Output: out}
				case 4:
					if grouped {
						inv = skills.Invocation{Skill: "DistinctRows", Inputs: []string{prev}, Output: out,
							Args: skills.Args{}}
					} else {
						inv = skills.Invocation{Skill: "NewColumn", Inputs: []string{prev},
							Args: skills.Args{"name": fmt.Sprintf("n%d", i), "formula": "v + 1"}, Output: out}
					}
				default:
					if !grouped {
						inv = skills.Invocation{Skill: "Compute", Inputs: []string{prev},
							Args: skills.Args{
								"aggregates": []string{"sum of v as total"},
								"for_each":   []string{"cat"},
							}, Output: out}
						grouped = true
					} else {
						inv = skills.Invocation{Skill: "LimitRows", Inputs: []string{prev},
							Args: skills.Args{"count": 3}, Output: out}
					}
				}
				g.Add(inv)
				prev = out
			}
			return g
		}
		_ = next
		gA := build()
		exA := NewExecutor(reg, newCtxQuiet())
		resA, errA := exA.Run(gA, gA.Last())
		gB := build()
		exB := NewExecutor(reg, newCtxQuiet())
		exB.Consolidate = false
		resB, errB := exB.Run(gB, gB.Last())
		if (errA == nil) != (errB == nil) {
			t.Logf("seed %d: error mismatch: %v vs %v", seedRaw, errA, errB)
			return false
		}
		if errA != nil {
			return true // both paths rejected the chain the same way
		}
		if !resA.Table.Equal(resB.Table.WithName(resA.Table.Name())) {
			t.Logf("seed %d mismatch:\nconsolidated:\n%s\ndirect:\n%s", seedRaw, resA.Table, resB.Table)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestStatsAddCoversEveryField guards the one place that knows how Stats
// fields combine: every numeric field must be folded by Add — summed, or for
// the high-water marks kept as the max — so a field added to the struct and
// forgotten in Add fails here instead of silently reading zero in /statsz.
func TestStatsAddCoversEveryField(t *testing.T) {
	maxFields := map[string]bool{"PeakBufferedRows": true, "StreamWorkers": true}
	var one Stats
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(i + 1))
	}
	var total Stats
	total.Add(one)
	total.Add(one)
	got := reflect.ValueOf(total)
	for i := 0; i < got.NumField(); i++ {
		name, want := got.Type().Field(i).Name, int64(2*(i+1))
		if maxFields[name] {
			want = int64(i + 1)
		}
		if got.Field(i).Int() != want {
			t.Errorf("after Add twice, %s = %d, want %d", name, got.Field(i).Int(), want)
		}
	}
}
