package dag

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"datachat/internal/skills"
	"datachat/internal/sqlengine"
)

// The differential suite replays randomized wrangling pipelines over the
// sqlengine corpus through two executors: a fully planned one (slice, fuse,
// consolidate, pushdown, cache) and a reference one with every optimizing
// pass disabled, which applies each skill sequentially. The two must agree
// exactly — same table or same failure — on every pipeline, which pins the
// semantic-preservation contract of the whole pass pipeline at once.

// corpusCtx seeds a fresh context with the corpus tables.
func corpusCtx(rng *rand.Rand) *skills.Context {
	ctx := skills.NewContext()
	for name, t := range sqlengine.CorpusTables(rng, 160, 60) {
		ctx.Datasets[name] = t
	}
	return ctx
}

// corpusPipeline generates a random pipeline over t1 (sometimes joining t2):
// condition and sort steps run over the full schema first, then an optional
// projection narrows it, then limit/distinct steps follow — so most pipelines
// are valid while still exercising fusion, consolidation and pushdown.
func corpusPipeline(rng *rand.Rand) *Graph {
	g := NewGraph()
	in := "t1"
	step := 0
	add := func(skill string, args skills.Args, inputs ...string) {
		if len(inputs) == 0 {
			inputs = []string{in}
		}
		out := fmt.Sprintf("s%d", step)
		step++
		g.Add(skills.Invocation{Skill: skill, Inputs: inputs, Args: args, Output: out})
		in = out
	}

	// Phase 1: full-schema steps.
	for i := rng.Intn(4); i > 0; i-- {
		switch rng.Intn(4) {
		case 0, 1:
			add("KeepRows", skills.Args{"condition": sqlengine.CorpusPredicate(rng, "", rng.Intn(3))})
		case 2:
			add("DropRows", skills.Args{"condition": sqlengine.CorpusPredicate(rng, "", rng.Intn(2))})
		default:
			add("SortRows", skills.Args{"columns": []string{"i", "f", "s", "b", "ts"}})
		}
	}
	// Occasionally join in t2 (direct task: JoinDatasets has no MergeSQL).
	if rng.Intn(4) == 0 {
		add("JoinDatasets", skills.Args{"on": fmt.Sprintf("%s.i = t2.k", in)}, in, "t2")
		add("SortRows", skills.Args{"columns": []string{"i", "f", "s", "b", "ts", "k", "s2", "v"}})
		if rng.Intn(2) == 0 {
			add("KeepColumns", skills.Args{"columns": []string{"i", "s", "v"}})
		}
	} else if rng.Intn(3) == 0 {
		// Optional projection, sometimes twice so fusion's subset rule fires.
		add("KeepColumns", skills.Args{"columns": []string{"i", "f", "s"}})
		if rng.Intn(2) == 0 {
			add("KeepColumns", skills.Args{"columns": []string{"i", "s"}})
		}
	}
	// Phase 2: order-insensitive tail steps.
	for i := rng.Intn(3); i > 0; i-- {
		switch rng.Intn(3) {
		case 0:
			add("LimitRows", skills.Args{"count": rng.Intn(120)})
		case 1:
			add("LimitRows", skills.Args{"count": rng.Intn(60)})
		default:
			add("DistinctRows", skills.Args{})
		}
	}
	if step == 0 {
		add("KeepRows", skills.Args{"condition": sqlengine.CorpusPredicate(rng, "", 1)})
	}
	return g
}

// runDifferential executes count random pipelines under both executors and
// reports mismatches. Each pipeline gets fresh contexts (materialized
// intermediates must not leak across runs) but the planned executor keeps its
// cache warm across pipelines, so plan-time hits are exercised too.
func runDifferential(t *testing.T, seed int64, count int, opts ExecOptions) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cache := NewCache(4 << 20)
	for i := 0; i < count; i++ {
		pipeRng := rand.New(rand.NewSource(rng.Int63()))
		tableRng := rand.New(rand.NewSource(seed)) // same tables every pipeline
		g := corpusPipeline(pipeRng)

		planned := NewExecutor(reg, corpusCtx(tableRng))
		planned.SetCache(cache)
		ref := NewExecutor(reg, corpusCtx(rand.New(rand.NewSource(seed))))
		ref.Consolidate, ref.Fuse, ref.Pushdown, ref.UseCache = false, false, false, false

		want, _, wantErr := ref.RunWith(context.Background(), g, g.Last(), opts)
		got, _, gotErr := planned.RunWith(context.Background(), g, g.Last(), opts)
		if (wantErr != nil) != (gotErr != nil) {
			t.Fatalf("pipeline %d: planned err = %v, reference err = %v\n%s",
				i, gotErr, wantErr, RenderASCII(g, reg))
		}
		if wantErr != nil {
			continue
		}
		if !got.Table.Equal(want.Table) {
			t.Fatalf("pipeline %d: planned and reference tables differ\n%s\nplanned:\n%s\nreference:\n%s",
				i, RenderASCII(g, reg), got.Table, want.Table)
		}
	}
}

func TestDifferentialPlannedVsReference(t *testing.T) {
	runDifferential(t, 1701, 60, ExecOptions{})
}

// The planned executor must agree with the reference under parallel
// scheduling too; run with -race this doubles as the scheduler's data-race
// probe over realistic pipelines.
func TestDifferentialParallel(t *testing.T) {
	runDifferential(t, 42, 40, ExecOptions{Parallelism: 4})
}
