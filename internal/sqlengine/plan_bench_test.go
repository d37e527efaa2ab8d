// Plan-pipeline benchmarks live in the external test package so they can
// drive the dag executor (dag imports sqlengine) over realistic relational
// chains: planned execution — fuse + consolidate + pushdown — against the
// naive one-task-per-step baseline, picked up by the tier-1 benchtime smoke.
package sqlengine_test

import (
	"context"
	"fmt"
	"testing"

	"datachat/internal/cloud"
	"datachat/internal/dag"
	"datachat/internal/dataset"
	"datachat/internal/skills"
)

var benchReg = skills.NewRegistry()

func benchPlanCtx(rows int) *skills.Context {
	ctx := skills.NewContext()
	ids := make([]int64, rows)
	vals := make([]float64, rows)
	cats := make([]string, rows)
	for i := range ids {
		ids[i] = int64(i)
		vals[i] = float64(i % 997)
		cats[i] = string(rune('a' + i%5))
	}
	ctx.Datasets["events"] = dataset.MustNewTable("events",
		dataset.IntColumn("id", ids, nil),
		dataset.FloatColumn("v", vals, nil),
		dataset.StringColumn("cat", cats, nil),
	)
	return ctx
}

func benchPlanGraph() (*dag.Graph, dag.NodeID) {
	g := dag.NewGraph()
	g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{"events"},
		Args: skills.Args{"condition": "v > 100"}, Output: "f1"})
	g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{"f1"},
		Args: skills.Args{"condition": "v < 900"}, Output: "f2"})
	g.Add(skills.Invocation{Skill: "KeepColumns", Inputs: []string{"f2"},
		Args: skills.Args{"columns": []string{"id", "v", "cat"}}, Output: "p1"})
	g.Add(skills.Invocation{Skill: "KeepColumns", Inputs: []string{"p1"},
		Args: skills.Args{"columns": []string{"id", "v"}}, Output: "p2"})
	last := g.Add(skills.Invocation{Skill: "LimitRows", Inputs: []string{"p2"},
		Args: skills.Args{"count": 500}})
	return g, last
}

func benchPlanChain(b *testing.B, planned bool) {
	for _, rows := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			ctx := benchPlanCtx(rows)
			ex := dag.NewExecutor(benchReg, ctx)
			if !planned {
				ex.Consolidate, ex.Fuse, ex.Pushdown = false, false, false
			}
			ex.UseCache = false // measure execution, not the cache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g, last := benchPlanGraph()
				if _, err := ex.Run(g, last); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPlannedChain(b *testing.B) { benchPlanChain(b, true) }

func BenchmarkNaiveChain(b *testing.B) { benchPlanChain(b, false) }

// BenchmarkPlanCompile isolates the planning cost itself: lowering plus the
// full pass pipeline, without executing.
func BenchmarkPlanCompile(b *testing.B) {
	ctx := benchPlanCtx(1_000)
	ex := dag.NewExecutor(benchReg, ctx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, last := benchPlanGraph()
		if _, err := ex.Explain(g, last); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCostCtx adds a cloud table so the cost model has catalog stats to
// seed from and the budget pass has a scan to substitute.
func benchCostCtx(rows int) *skills.Context {
	ctx := benchPlanCtx(rows)
	db := cloud.NewDatabase("wh", cloud.DefaultPricing, 256)
	ids := make([]int64, rows)
	vals := make([]float64, rows)
	for i := range ids {
		ids[i] = int64(i)
		vals[i] = float64(i % 997)
	}
	if err := db.CreateTable(dataset.MustNewTable("orders",
		dataset.IntColumn("id", ids, nil),
		dataset.FloatColumn("c0", vals, nil),
	)); err != nil {
		panic(err)
	}
	ctx.Cloud["wh"] = db
	return ctx
}

func benchCostGraph() (*dag.Graph, dag.NodeID) {
	g := dag.NewGraph()
	g.Add(skills.Invocation{Skill: "LoadTable",
		Args: skills.Args{"database": "wh", "table": "orders"}, Output: "orders"})
	last := g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{"orders"},
		Args: skills.Args{"condition": "c0 > 100"}, Output: "kept"})
	return g, last
}

// BenchmarkCostedPlanning isolates the cost model's planning overhead: the
// full pass pipeline with per-pass cost estimation, against the same
// pipeline with the cost model off (see BenchmarkPlanCompile for the
// pre-cost baseline shape).
func BenchmarkCostedPlanning(b *testing.B) {
	for _, costed := range []bool{false, true} {
		b.Run(fmt.Sprintf("costed=%v", costed), func(b *testing.B) {
			ctx := benchCostCtx(1_000)
			ex := dag.NewExecutor(benchReg, ctx)
			ex.CostModel = costed
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g, last := benchCostGraph()
				if _, err := ex.Explain(g, last); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBudgetedScan measures the end-to-end §3 path: a budgeted request
// plans, substitutes the scan for a block sample, and executes the degraded
// pipeline — against the unbudgeted exact scan.
func BenchmarkBudgetedScan(b *testing.B) {
	for _, budget := range []int64{0, 1024} {
		b.Run(fmt.Sprintf("budget=%d", budget), func(b *testing.B) {
			ctx := benchCostCtx(50_000)
			ex := dag.NewExecutor(benchReg, ctx)
			ex.UseCache = false
			opts := dag.ExecOptions{CostBudgetBytes: budget}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g, last := benchCostGraph()
				if _, _, err := ex.RunWith(context.Background(), g, last, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
