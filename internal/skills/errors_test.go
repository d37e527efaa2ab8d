package skills

import (
	"testing"

	"datachat/internal/cloud"
	"datachat/internal/dataset"
	"datachat/internal/snapshot"
)

// TestSkillErrorPaths sweeps the common failure modes of every skill group:
// missing inputs, absent datasets, bad parameter types, and out-of-range
// values. Each case must fail with an error, never panic.
func TestSkillErrorPaths(t *testing.T) {
	ctx := newTestContext(t)
	cases := []struct {
		name string
		inv  Invocation
	}{
		{"no input dataset", Invocation{Skill: "KeepRows", Args: Args{"condition": "age > 1"}}},
		{"missing dataset", Invocation{Skill: "KeepRows", Inputs: []string{"ghost"},
			Args: Args{"condition": "age > 1"}}},
		{"select missing column", Invocation{Skill: "KeepColumns", Inputs: []string{"people"},
			Args: Args{"columns": []string{"ghost"}}}},
		{"negative limit", Invocation{Skill: "LimitRows", Inputs: []string{"people"},
			Args: Args{"count": -1}}},
		{"bad sample fraction", Invocation{Skill: "SampleRows", Inputs: []string{"people"},
			Args: Args{"fraction": 2.0}}},
		{"bad bin size", Invocation{Skill: "Bin", Inputs: []string{"people"},
			Args: Args{"column": "age", "size": 0}}},
		{"concat one input", Invocation{Skill: "Concatenate", Inputs: []string{"people"}}},
		{"join bad kind", Invocation{Skill: "JoinDatasets", Inputs: []string{"people", "orders"},
			Args: Args{"on": "people.id = orders.person_id", "kind": "outer-full"}}},
		{"join bad condition", Invocation{Skill: "JoinDatasets", Inputs: []string{"people", "orders"},
			Args: Args{"on": "this is not a condition at all >"}}},
		{"pivot two measures", Invocation{Skill: "Pivot", Inputs: []string{"people"},
			Args: Args{"rows": "dept", "columns": "name", "measure": []string{"sum of age", "min of age"}}}},
		{"describe missing column", Invocation{Skill: "DescribeColumn", Inputs: []string{"people"},
			Args: Args{"column": "ghost"}}},
		{"correlate constant", Invocation{Skill: "Correlate", Inputs: []string{"people"},
			Args: Args{"column1": "age", "column2": "age_const"}}},
		{"correlate strings", Invocation{Skill: "Correlate", Inputs: []string{"people"},
			Args: Args{"column1": "name", "column2": "dept"}}},
		{"train unknown model", Invocation{Skill: "TrainModel", Inputs: []string{"people"},
			Args: Args{"target": "age", "model": "transformer"}}},
		{"predict missing model", Invocation{Skill: "PredictWithModel", Inputs: []string{"people"},
			Args: Args{"model": "ghost", "features": []string{"age"}}}},
		{"cluster k too large", Invocation{Skill: "ClusterRows", Inputs: []string{"people"},
			Args: Args{"columns": []string{"age"}, "k": 100}}},
		{"outliers bad method", Invocation{Skill: "DetectOutliers", Inputs: []string{"people"},
			Args: Args{"column": "age", "method": "vibes"}}},
		{"outliers string column", Invocation{Skill: "DetectOutliers", Inputs: []string{"people"},
			Args: Args{"column": "name"}}},
		{"evaluate missing model", Invocation{Skill: "EvaluateModel", Inputs: []string{"people"},
			Args: Args{"model": "ghost", "target": "age", "features": []string{"id"}}}},
		{"plot missing x", Invocation{Skill: "PlotChart", Inputs: []string{"people"},
			Args: Args{"chart": "bar"}}},
		{"visualize missing kpi column", Invocation{Skill: "Visualize", Inputs: []string{"people"},
			Args: Args{"kpi": "ghost"}}},
		{"visualize bad filter", Invocation{Skill: "Visualize", Inputs: []string{"people"},
			Args: Args{"kpi": "dept", "filter": "age >"}}},
		{"snapshot without store", Invocation{Skill: "UseSnapshot", Args: Args{"name": "x"}}},
		{"export without file", Invocation{Skill: "ExportCSV", Inputs: []string{"people"}, Args: Args{}}},
		{"use missing dataset", Invocation{Skill: "UseDataset", Args: Args{"dataset": "ghost"}}},
		{"load missing table", Invocation{Skill: "LoadTable",
			Args: Args{"database": "nope", "table": "t"}}},
	}
	// A constant column for the correlate case.
	konst := make([]int64, ctx.Datasets["people"].NumRows())
	withConst, err := ctx.Datasets["people"].WithColumn(dataset.IntColumn("age_const", konst, nil))
	if err != nil {
		t.Fatal(err)
	}
	ctx.Datasets["people"] = withConst

	for _, c := range cases {
		if _, err := reg.Execute(ctx, c.inv); err == nil {
			t.Errorf("%s: expected an error", c.name)
		}
	}
}

// TestNumberArgumentsNeverPanic runs every registered skill that takes a
// number with each such parameter set in turn to -1, -0.5, 0, 1.5 and 2:
// each run returns a result or an error, never a panic (a panic on a DAG
// worker goroutine ends the process).
func TestNumberArgumentsNeverPanic(t *testing.T) {
	base := map[string]Invocation{
		"UseDataset":        {Args: Args{"dataset": "people"}},
		"SampleTable":       {Args: Args{"database": "warehouse", "table": "events", "rate": 0.5}},
		"CreateSnapshot":    {Args: Args{"name": "ev", "database": "warehouse", "table": "events"}},
		"ShowDataset":       {Inputs: []string{"people"}},
		"TopValues":         {Inputs: []string{"people"}, Args: Args{"column": "dept"}},
		"PlotChart":         {Inputs: []string{"people"}, Args: Args{"chart": "histogram", "x": "age"}},
		"TrainModel":        {Inputs: []string{"people"}, Args: Args{"target": "age", "features": []string{"id"}}},
		"PredictTimeSeries": {Inputs: []string{"people"}, Args: Args{"measure": "age", "time": "id", "steps": 2}},
		"ClusterRows":       {Inputs: []string{"people"}, Args: Args{"columns": []string{"age", "id"}, "k": 2}},
		"DetectOutliers":    {Inputs: []string{"people"}, Args: Args{"column": "age"}},
		"LimitRows":         {Inputs: []string{"people"}, Args: Args{"count": 3}},
		"SampleRows":        {Inputs: []string{"people"}, Args: Args{"fraction": 0.5}},
		"Bin":               {Inputs: []string{"people"}, Args: Args{"column": "age", "size": 5}},
	}
	for _, name := range reg.Names() {
		def, err := reg.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range def.Params {
			if p.Type != "number" {
				continue
			}
			inv, ok := base[name]
			if !ok {
				t.Errorf("%s takes the number %q but has no base invocation here", name, p.Name)
				break
			}
			for _, v := range []float64{-1, -0.5, 0, 1.5, 2} {
				args := Args{p.Name: v}
				for k, a := range inv.Args {
					if k != p.Name {
						args[k] = a
					}
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("%s with %s = %v panicked: %v", name, p.Name, v, r)
						}
					}()
					ctx := newTestContext(t)
					db := cloud.NewDatabase("warehouse", cloud.DefaultPricing, 100)
					if err := db.CreateTable(dataset.MustNewTable("events", dataset.IntColumn("id", []int64{1, 2, 3, 4}, nil))); err != nil {
						t.Fatal(err)
					}
					ctx.Cloud["warehouse"] = db
					ctx.Snapshots = snapshot.NewStore(50)
					_, _ = reg.Execute(ctx, Invocation{Skill: name, Inputs: inv.Inputs, Args: args})
				}()
			}
		}
	}
}
