// Benchmarks regenerating every table and figure in the paper's evaluation,
// plus the ablations DESIGN.md calls out. Domain results (accuracy, query
// blocks, bytes scanned) are attached to each benchmark via ReportMetric so
// `go test -bench=. -benchmem` prints the reproduced numbers alongside the
// timings. EXPERIMENTS.md records a reference run.
package datachat_test

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"datachat/internal/cloud"
	"datachat/internal/dag"
	"datachat/internal/dataset"
	"datachat/internal/experiments"
	"datachat/internal/gel"
	"datachat/internal/nl2code"
	"datachat/internal/pyapi"
	"datachat/internal/skills"
	"datachat/internal/snapshot"
	"datachat/internal/spider"
	"datachat/internal/sqlengine"
)

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
)

func getSuite() *experiments.Suite {
	suiteOnce.Do(func() { suite = experiments.NewSuite(1) })
	return suite
}

// BenchmarkTable1SkillCatalog builds the skill registry and renders the
// Table 1 catalog.
func BenchmarkTable1SkillCatalog(b *testing.B) {
	var nSkills int
	for i := 0; i < b.N; i++ {
		reg := skills.NewRegistry()
		byCat := reg.ByCategory()
		nSkills = 0
		for _, defs := range byCat {
			nSkills += len(defs)
		}
	}
	b.ReportMetric(float64(nSkills), "skills")
}

// BenchmarkTable2ExecutionAccuracy runs the Table 2 experiment (balanced
// per-zone sample) and reports the mean execution accuracies.
func BenchmarkTable2ExecutionAccuracy(b *testing.B) {
	s := getSuite()
	var result *experiments.Table2Result
	for i := 0; i < b.N; i++ {
		r, err := s.Table2(experiments.Table2Options{PerZone: 25, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		result = r
	}
	b.ReportMetric(result.SpiderMean, "spider-meanEA")
	b.ReportMetric(result.CustomMean, "custom-meanEA")
	for i, z := range spider.Zones() {
		b.ReportMetric(result.Spider[i].MeanEA, "spider-"+zoneSlug(z))
		b.ReportMetric(result.Custom[i].MeanEA, "custom-"+zoneSlug(z))
	}
}

func zoneSlug(z spider.Zone) string {
	return strings.NewReplacer("(", "", ")", "", " ", "", ",", "-").Replace(z.String()) + "-EA"
}

// BenchmarkFigure7Characterization characterizes the full 1,040-sample dev
// split and reports the per-zone counts.
func BenchmarkFigure7Characterization(b *testing.B) {
	s := getSuite()
	var r *experiments.Figure7Result
	for i := 0; i < b.N; i++ {
		r = s.Figure7(42)
	}
	for _, z := range spider.Zones() {
		b.ReportMetric(float64(r.Counts[z]), strings.TrimSuffix(zoneSlug(z), "-EA"))
	}
}

// BenchmarkFigure1VisualizeCharts runs the Figure 1 Visualize fan-out over
// a collisions-style table.
func BenchmarkFigure1VisualizeCharts(b *testing.B) {
	reg := skills.NewRegistry()
	ctx := skills.NewContext()
	ctx.Datasets["parties"] = collisionsTable(5000)
	var nCharts int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := reg.Execute(ctx, skills.Invocation{Skill: "Visualize", Inputs: []string{"parties"},
			Args: skills.Args{"kpi": "at_fault", "by": []string{"party_age", "party_sex", "cellphone_in_use"}}})
		if err != nil {
			b.Fatal(err)
		}
		nCharts = len(res.Charts)
	}
	b.ReportMetric(float64(nCharts), "charts")
}

// BenchmarkFigure2GDPRecipe executes the paper's 10-step GEL recipe end to
// end, including the time-series forecast and the final line chart.
func BenchmarkFigure2GDPRecipe(b *testing.B) {
	const url = "https://fred.example/fredgraph.csv"
	csv := gdpCSV()
	reg := skills.NewRegistry()
	lines := []string{
		"Load data from the URL " + url,
		"Keep the rows where DATE is between the dates 01-01-2005 to 12-31-2020",
		"Predict time series with measure columns GDPC1 for the next 12 values of DATE",
		"Keep the columns DATE, GDPC1, RecordType",
		"Use the dataset fredgraph, version 1",
		"Create a new column RecordType with text Actual",
		"Keep the columns DATE, GDPC1, RecordType",
		"Concatenate the datasets fredgraph and PredictedTimeSeries_GDPC1 remove all duplicates",
		"Keep the rows where DATE is after Today - 10 years",
		"Plot a line chart with the x-axis DATE, the y-axis GDPC1, for each RecordType",
	}
	var series int
	for i := 0; i < b.N; i++ {
		ctx := skills.NewContext()
		ctx.PutFile(url, csv)
		parser := gel.NewParser(reg)
		parser.Now = time.Date(2023, 6, 18, 0, 0, 0, 0, time.UTC)
		runner := gel.NewRunner(parser, dag.NewExecutor(reg, ctx), lines)
		steps, err := runner.RunAll()
		if err != nil {
			b.Fatal(err)
		}
		series = len(steps[len(steps)-1].Result.Charts[0].Series)
	}
	b.ReportMetric(float64(series), "series")
}

// BenchmarkFigure3EntryPaths measures the three skill-entry paths (direct
// invocation, Python API parse, GEL parse) converging on the same request.
func BenchmarkFigure3EntryPaths(b *testing.B) {
	reg := skills.NewRegistry()
	parser := gel.NewParser(reg)
	b.Run("form", func(b *testing.B) {
		ctx := skills.NewContext()
		ctx.Datasets["parties"] = collisionsTable(2000)
		inv := skills.Invocation{Skill: "Compute", Inputs: []string{"parties"},
			Args: skills.Args{"aggregates": []string{"count of records as NumberOfCases"},
				"for_each": []string{"party_sobriety"}}}
		for i := 0; i < b.N; i++ {
			if _, err := reg.Execute(ctx, inv); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gel-parse", func(b *testing.B) {
		line := "Compute the count of records for each party_sobriety and call the computed columns NumberOfCases"
		for i := 0; i < b.N; i++ {
			if _, err := parser.Parse(line); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("python-parse", func(b *testing.B) {
		code := `parties.compute(aggregates = [Count("*", as_name="NumberOfCases")], for_each = ["party_sobriety"])`
		for i := 0; i < b.N; i++ {
			if _, err := parsePy(code); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFigure4Consolidation executes Load→Filter→Limit with
// consolidation on and off, reporting query blocks.
func BenchmarkFigure4Consolidation(b *testing.B) {
	reg := skills.NewRegistry()
	for _, consolidate := range []bool{true, false} {
		name := "consolidated"
		if !consolidate {
			name = "naive"
		}
		b.Run(name, func(b *testing.B) {
			var blocks float64
			for i := 0; i < b.N; i++ {
				ctx := skills.NewContext()
				ctx.Datasets["collisions"] = collisionsTable(20000)
				ex := dag.NewExecutor(reg, ctx)
				ex.Consolidate = consolidate
				ex.UseCache = false
				g := dag.NewGraph()
				g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{"collisions"},
					Args: skills.Args{"condition": "party_age > 40"}, Output: "f"})
				last := g.Add(skills.Invocation{Skill: "LimitRows", Inputs: []string{"f"},
					Args: skills.Args{"count": 100}})
				if _, err := ex.Run(g, last); err != nil {
					b.Fatal(err)
				}
				if consolidate {
					blocks = float64(ex.Stats().QueryBlocks)
				} else {
					blocks = float64(ex.Stats().TasksRun)
				}
			}
			b.ReportMetric(blocks, "blocks")
		})
	}
}

// BenchmarkSection22NestedVsFlattened executes a deep projection chain as
// one flattened query vs nested per-step execution (§2.2's claim).
func BenchmarkSection22NestedVsFlattened(b *testing.B) {
	r, err := experiments.Consolidation(30000, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	if !r.SameResult {
		b.Fatal("nested and flattened disagree")
	}
	b.Run("flattened", func(b *testing.B) {
		benchChain(b, true)
	})
	b.Run("nested-steps", func(b *testing.B) {
		benchChain(b, false)
	})
	// The paper's exact comparison: ONE SQL statement, either a single
	// flattened block or the deep nested-subquery equivalent.
	b.Run("nested-sql", func(b *testing.B) {
		benchChainSQL(b, true)
	})
	b.Run("flattened-sql", func(b *testing.B) {
		benchChainSQL(b, false)
	})
}

// benchChainSQL executes the projection chain as one SQL statement, built
// with the nest-every-step baseline or the consolidating builder.
func benchChainSQL(b *testing.B, alwaysNest bool) {
	const steps = 8
	ctx := skills.NewContext()
	ctx.Datasets["base"] = wideTable(30000, steps+2)
	builder := skills.NewQueryBuilder("base")
	for s := 0; s < steps; s++ {
		cols := []string{"id"}
		for c := 0; c < steps-s; c++ {
			cols = append(cols, fmt.Sprintf("c%d", c))
		}
		if alwaysNest {
			builder.Nest()
		}
		builder.Project(cols)
	}
	stmt := builder.Stmt()
	blocks := float64(sqlengine.CountSelectBlocks(stmt))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlengine.ExecStmt(ctx, stmt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(blocks, "blocks")
}

func benchChain(b *testing.B, consolidate bool) {
	reg := skills.NewRegistry()
	const steps = 8
	for i := 0; i < b.N; i++ {
		ctx := skills.NewContext()
		ctx.Datasets["base"] = wideTable(30000, steps+2)
		ex := dag.NewExecutor(reg, ctx)
		ex.Consolidate = consolidate
		// Disable fusion too: the chain is adjacent same-skill projections,
		// and the naive baseline must execute them one step at a time.
		ex.Fuse = consolidate
		ex.UseCache = false
		g := dag.NewGraph()
		prev := "base"
		var last dag.NodeID
		for s := 0; s < steps; s++ {
			cols := []string{"id"}
			for c := 0; c < steps-s; c++ {
				cols = append(cols, fmt.Sprintf("c%d", c))
			}
			out := fmt.Sprintf("p%d", s)
			last = g.Add(skills.Invocation{Skill: "KeepColumns", Inputs: []string{prev},
				Args: skills.Args{"columns": cols}, Output: out})
			prev = out
		}
		if _, err := ex.Run(g, last); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5Slicing slices a branchy exploratory DAG down to one
// artifact's recipe.
func BenchmarkFigure5Slicing(b *testing.B) {
	var r *experiments.SlicingResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Slicing(15)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.Before), "nodes-before")
	b.ReportMetric(float64(r.After), "nodes-after")
}

// BenchmarkFigure6NL2CodePipeline runs the full NL2Code pipeline for one
// request (retrieval, prompt, generation, checking).
func BenchmarkFigure6NL2CodePipeline(b *testing.B) {
	s := getSuite()
	var sales *spider.Domain
	for _, d := range s.Domains {
		if d.Name == "sales" {
			sales = d
		}
	}
	var steps int
	for i := 0; i < b.N; i++ {
		resp, err := s.System.Generate(nl2code.Request{
			Question: "Which 3 region have the highest total price where status is Refunded?",
			Tables:   sales.Tables, Layer: sales.Layer,
		})
		if err != nil {
			b.Fatal(err)
		}
		steps = len(resp.Program)
	}
	b.ReportMetric(float64(steps), "program-steps")
}

// BenchmarkSection3SamplingCost measures scan cost at full/10%/1% rates and
// reports the relative cost (the §3 "10× cheaper" claim).
func BenchmarkSection3SamplingCost(b *testing.B) {
	db := cloud.NewDatabase("warehouse", cloud.DefaultPricing, 4096)
	rows := 500_000
	ids := make([]int64, rows)
	vals := make([]float64, rows)
	for i := range ids {
		ids[i] = int64(i)
		vals[i] = float64(i % 1000)
	}
	if err := db.CreateTable(dataset.MustNewTable("iot_events",
		dataset.IntColumn("id", ids, nil),
		dataset.FloatColumn("reading", vals, nil))); err != nil {
		b.Fatal(err)
	}
	db.Meter().Reset()
	if _, err := db.Scan("iot_events"); err != nil {
		b.Fatal(err)
	}
	fullBytes := db.Meter().BytesScanned()
	for _, rate := range []float64{1, 0.1, 0.01} {
		b.Run("rate="+strconv.FormatFloat(rate, 'g', -1, 64), func(b *testing.B) {
			var relative float64
			for i := 0; i < b.N; i++ {
				db.Meter().Reset()
				if rate >= 1 {
					if _, err := db.Scan("iot_events"); err != nil {
						b.Fatal(err)
					}
				} else if _, err := db.SampleBlocks("iot_events", rate, 7); err != nil {
					b.Fatal(err)
				}
				relative = float64(db.Meter().BytesScanned()) / float64(fullBytes)
			}
			b.ReportMetric(relative, "relative-cost")
		})
	}
}

// BenchmarkSection3SnapshotIteration contrasts iterating a query against
// the cloud (billed per scan) vs against a snapshot (free after the pull).
func BenchmarkSection3SnapshotIteration(b *testing.B) {
	db := cloud.NewDatabase("warehouse", cloud.DefaultPricing, 4096)
	rows := 100_000
	ids := make([]int64, rows)
	for i := range ids {
		ids[i] = int64(i)
	}
	if err := db.CreateTable(dataset.MustNewTable("events",
		dataset.IntColumn("id", ids, nil))); err != nil {
		b.Fatal(err)
	}
	store := snapshot.NewStore(50)
	if _, err := store.Create("events", db, "events", 1, 7); err != nil {
		b.Fatal(err)
	}
	const query = "SELECT COUNT(*) AS n FROM events WHERE id > 50000"
	b.Run("cloud", func(b *testing.B) {
		db.Meter().Reset()
		for i := 0; i < b.N; i++ {
			if _, err := sqlengine.Exec(db, query); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(db.Meter().BytesScanned())/float64(b.N), "bytes-billed/op")
	})
	b.Run("snapshot", func(b *testing.B) {
		db.Meter().Reset()
		for i := 0; i < b.N; i++ {
			if _, err := sqlengine.Exec(store, query); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(db.Meter().BytesScanned())/float64(b.N), "bytes-billed/op")
	})
}

// BenchmarkAblationDAGCache measures repeated execution of a shared
// sub-DAG with the result cache on and off.
func BenchmarkAblationDAGCache(b *testing.B) {
	reg := skills.NewRegistry()
	for _, cached := range []bool{true, false} {
		name := "cache-on"
		if !cached {
			name = "cache-off"
		}
		b.Run(name, func(b *testing.B) {
			ctx := skills.NewContext()
			ctx.Datasets["base"] = wideTable(50000, 4)
			ex := dag.NewExecutor(reg, ctx)
			ex.UseCache = cached
			g := dag.NewGraph()
			g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{"base"},
				Args: skills.Args{"condition": "c0 > 100"}, Output: "f"})
			last := g.Add(skills.Invocation{Skill: "Compute", Inputs: []string{"f"},
				Args: skills.Args{"aggregates": []string{"avg of c1 as m"}}})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ex.Run(g, last); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelBranchExecution runs a branchy DAG (a shared filter
// fanning out into independent filter→derive→sort branches that reconverge
// in a concatenation) serially and on the parallel scheduler. The cache is
// invalidated each iteration so every run recomputes; the duplicate branch
// still dedups in-run through the cache, whose counters are reported.
func BenchmarkParallelBranchExecution(b *testing.B) {
	reg := skills.NewRegistry()
	const branches = 6
	buildBranchy := func(g *dag.Graph) dag.NodeID {
		g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{"base"},
			Args: skills.Args{"condition": "c0 >= 0"}, Output: "shared"})
		tails := make([]string, 0, branches+1)
		for i := 0; i < branches; i++ {
			fOut := fmt.Sprintf("b%df", i)
			g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{"shared"},
				Args: skills.Args{"condition": fmt.Sprintf("c0 > %d", (i*37)%200)}, Output: fOut})
			cOut := fmt.Sprintf("b%dc", i)
			g.Add(skills.Invocation{Skill: "NewColumn", Inputs: []string{fOut},
				Args: skills.Args{"name": fmt.Sprintf("w%d", i), "formula": fmt.Sprintf("c1 * %d", i+2)}, Output: cOut})
			tail := fmt.Sprintf("b%dt", i)
			g.Add(skills.Invocation{Skill: "SortRows", Inputs: []string{cOut},
				Args: skills.Args{"columns": "id"}, Output: tail})
			tails = append(tails, tail)
		}
		// A branch identical to branch 0 up to output names: in-run cache
		// dedup (structural signatures ignore output names) serves it.
		g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{"shared"},
			Args: skills.Args{"condition": "c0 > 0"}, Output: "dupf"})
		g.Add(skills.Invocation{Skill: "NewColumn", Inputs: []string{"dupf"},
			Args: skills.Args{"name": "w0", "formula": "c1 * 2"}, Output: "dupc"})
		g.Add(skills.Invocation{Skill: "SortRows", Inputs: []string{"dupc"},
			Args: skills.Args{"columns": "id"}, Output: "dupt"})
		tails = append(tails, "dupt")
		return g.Add(skills.Invocation{Skill: "Concatenate", Inputs: tails, Output: "all"})
	}
	for _, mode := range []struct {
		name        string
		parallelism int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			ctx := skills.NewContext()
			ctx.Datasets["base"] = wideTable(40000, 4)
			ex := dag.NewExecutor(reg, ctx)
			opts := dag.ExecOptions{Parallelism: mode.parallelism}
			g := dag.NewGraph()
			last := buildBranchy(g)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ex.InvalidateCache()
				if _, _, err := ex.RunWith(context.Background(), g, last, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			cs := ex.CacheStats()
			b.ReportMetric(float64(cs.Hits)/float64(b.N), "cache-hits/op")
			b.ReportMetric(float64(cs.Misses)/float64(b.N), "cache-misses/op")
			b.ReportMetric(float64(cs.Evictions)/float64(b.N), "cache-evictions/op")
			// Speedup is bounded by the machine: on GOMAXPROCS=1 the two
			// modes time alike; report the proc count so runs are comparable.
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "procs")
		})
	}
}

// BenchmarkCacheContention hammers one shared sub-DAG cache from all procs
// with a keyspace larger than its capacity, mixing singleflight leaders,
// followers, hits, and evictions — the shape a busy multi-session platform
// puts on the cache.
func BenchmarkCacheContention(b *testing.B) {
	shared := dataset.MustNewTable("r", dataset.IntColumn("x", []int64{1, 2, 3}, nil))
	c := dag.NewCache(64 * int(shared.PinnedBytes()+160)) // room for about 64 entries
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			key := fmt.Sprintf("k%d", i%96)
			if _, _, err := c.Do(key, func() (*skills.Result, error) {
				return &skills.Result{Table: shared}, nil
			}); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
	cs := c.Stats()
	total := cs.Hits + cs.Misses
	if total > 0 {
		b.ReportMetric(float64(cs.Hits)/float64(total), "hit-ratio")
	}
	b.ReportMetric(float64(cs.Evictions), "evictions")
}

// BenchmarkAblationSemanticLayer reports accuracy on high-misalignment
// questions with and without the semantic layer in prompts (§4.2).
func BenchmarkAblationSemanticLayer(b *testing.B) {
	s := getSuite()
	var r *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = s.AblateSemanticLayer(10, 42)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.DefaultAccuracy, "with-SL")
	b.ReportMetric(r.AblatedAccuracy, "without-SL")
}

// BenchmarkAblationExampleRetrieval compares similarity+diversity example
// retrieval against random selection (§4.3).
func BenchmarkAblationExampleRetrieval(b *testing.B) {
	s := getSuite()
	var r *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = s.AblateRetrieval(10, 42)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.DefaultAccuracy, "similar-diverse")
	b.ReportMetric(r.AblatedAccuracy, "random")
}

// BenchmarkAblationProgramChecker measures the checker's accuracy
// contribution (§4.5).
func BenchmarkAblationProgramChecker(b *testing.B) {
	s := getSuite()
	var r *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = s.AblateChecker(10, 42)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.DefaultAccuracy, "with-checker")
	b.ReportMetric(r.AblatedAccuracy, "without-checker")
}

// ---- fixtures ----

func collisionsTable(n int) *dataset.Table {
	atFault := make([]string, n)
	ages := make([]int64, n)
	sexes := make([]string, n)
	phone := make([]string, n)
	sobriety := make([]string, n)
	levels := []string{"had not been drinking", "had been drinking", "impairment unknown", "not applicable"}
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			atFault[i] = "at fault"
		} else {
			atFault[i] = "not at fault"
		}
		ages[i] = int64(16 + (i*13)%60)
		if i%2 == 0 {
			sexes[i] = "male"
		} else {
			sexes[i] = "female"
		}
		if i%6 == 0 {
			phone[i] = "in use"
		} else {
			phone[i] = "not in use"
		}
		sobriety[i] = levels[i%4]
	}
	return dataset.MustNewTable("parties",
		dataset.StringColumn("at_fault", atFault, nil),
		dataset.IntColumn("party_age", ages, nil),
		dataset.StringColumn("party_sex", sexes, nil),
		dataset.StringColumn("cellphone_in_use", phone, nil),
		dataset.StringColumn("party_sobriety", sobriety, nil),
	)
}

func wideTable(rows, extraCols int) *dataset.Table {
	cols := []*dataset.Column{}
	ids := make([]int64, rows)
	for i := range ids {
		ids[i] = int64(i)
	}
	cols = append(cols, dataset.IntColumn("id", ids, nil))
	for c := 0; c < extraCols; c++ {
		vals := make([]float64, rows)
		for i := range vals {
			vals[i] = float64((i * (c + 3)) % 997)
		}
		cols = append(cols, dataset.FloatColumn(fmt.Sprintf("c%d", c), vals, nil))
	}
	return dataset.MustNewTable("base", cols...)
}

func gdpCSV() string {
	var b strings.Builder
	b.WriteString("DATE,GDPC1\n")
	year, month := 1995, 1
	for q := 0; q < 104; q++ {
		val := 11000.0 + 46.5*float64(q)
		if year == 2020 {
			val -= 900
		}
		b.WriteString(time.Date(year, time.Month(month), 1, 0, 0, 0, 0, time.UTC).Format("2006-01-02"))
		b.WriteString(",")
		b.WriteString(strconv.FormatFloat(val, 'f', 1, 64))
		b.WriteString("\n")
		month += 3
		if month > 12 {
			month = 1
			year++
		}
	}
	return b.String()
}

func parsePy(code string) (any, error) {
	return pyapi.Parse(code)
}

// BenchmarkAblationPromptBudget measures the §4.4 token-budget trade-off:
// a starved prompt loses the semantic hints high-M questions need.
func BenchmarkAblationPromptBudget(b *testing.B) {
	s := getSuite()
	var r *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = s.AblatePromptBudget(10, 42, 120)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.DefaultAccuracy, "budget-900")
	b.ReportMetric(r.AblatedAccuracy, "budget-120")
}
