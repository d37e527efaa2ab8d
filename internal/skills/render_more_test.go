package skills

import (
	"strings"
	"testing"

	"datachat/internal/dataset"
)

func TestGELValueFormats(t *testing.T) {
	// Exercise the template filler over every value shape.
	inv := Invocation{Skill: "KeepColumns", Args: Args{"columns": []any{"a", "b"}}}
	got, err := reg.RenderGEL(inv)
	if err != nil {
		t.Fatal(err)
	}
	if got != "Keep the columns a, b" {
		t.Errorf("[]any columns = %q", got)
	}
	inv2 := Invocation{Skill: "SampleRows", Args: Args{"fraction": 0.25}}
	got, err = reg.RenderGEL(inv2)
	if err != nil {
		t.Fatal(err)
	}
	if got != "Sample 0.25 of the rows" {
		t.Errorf("float value = %q", got)
	}
	inv3 := Invocation{Skill: "LimitRows", Args: Args{"count": 7}}
	if got, _ = reg.RenderGEL(inv3); got != "Limit the data to 7 rows" {
		t.Errorf("int value = %q", got)
	}
	// Missing args are an error naming the skill, never a lossy sentence.
	inv4 := Invocation{Skill: "RenameColumn", Args: Args{}}
	if got, err = reg.RenderGEL(inv4); err == nil || !strings.Contains(err.Error(), "RenameColumn") {
		t.Errorf("missing args = %q, %v", got, err)
	}
	// Word values that are not one plain token are quoted.
	inv5 := Invocation{Skill: "RenameColumn", Args: Args{"column": "unit price", "to": "O'Brien"}}
	if got, _ = reg.RenderGEL(inv5); got != "Rename the column 'unit price' to 'O''Brien'" {
		t.Errorf("quoted words = %q", got)
	}
}

func TestRenderPythonValueShapes(t *testing.T) {
	cases := []struct {
		inv  Invocation
		want string
	}{
		{
			Invocation{Skill: "SampleRows", Inputs: []string{"d"}, Args: Args{"fraction": 0.5}},
			`d.sample_rows(fraction = 0.5)`,
		},
		{
			Invocation{Skill: "SortRows", Inputs: []string{"d"},
				Args: Args{"columns": []any{"a"}, "descending": true}},
			`d.sort_rows(columns = ["a"], descending = True)`,
		},
		{
			Invocation{Skill: "LimitRows", Inputs: []string{"9weird name!"}, Args: Args{"count": 3}},
			`_9weird_name_.limit_rows(count = 3)`,
		},
		{
			Invocation{Skill: "Concatenate", Inputs: []string{"a", "b", "c"}, Args: Args{"dedupe": false}},
			`a.concatenate(with_datasets = [b, c], dedupe = False)`,
		},
		{
			Invocation{Skill: "ListDatasets"},
			`dc.list_datasets()`,
		},
		{
			Invocation{Skill: "Compute", Inputs: []string{"d"},
				Args: Args{"aggregates": []string{"count_distinct of x as u"}}},
			`d.compute(aggregates = [CountDistinct("x", as_name="u")])`,
		},
	}
	for _, c := range cases {
		got, err := reg.RenderPython(c.inv)
		if err != nil {
			t.Fatalf("RenderPython(%s): %v", c.inv.Skill, err)
		}
		if got != c.want {
			t.Errorf("RenderPython = %q, want %q", got, c.want)
		}
	}
}

func TestChartTypeByNameAll(t *testing.T) {
	for _, name := range []string{"bar", "line", "scatter", "histogram", "donut", "pie", "violin", "bubble", "heatmap"} {
		if _, err := chartTypeByName(name); err != nil {
			t.Errorf("chartTypeByName(%s): %v", name, err)
		}
	}
	if _, err := chartTypeByName("treemap"); err == nil {
		t.Error("unknown chart type should error")
	}
}

func TestComputeStddevDirectPath(t *testing.T) {
	ctx := newTestContext(t)
	res := run(t, ctx, Invocation{Skill: "Compute", Inputs: []string{"people"},
		Args: Args{"aggregates": []string{"stddev of age as sd"}, "for_each": []string{"dept"}}})
	c, _ := res.Table.Column("sd")
	for i := 0; i < c.Len(); i++ {
		if c.Value(i).IsNull() || c.Value(i).F < 0 {
			t.Errorf("stddev[%d] = %v", i, c.Value(i))
		}
	}
	// Cross-check one group against the SQL engine's STDDEV: eng ages 30, 25.
	depts, _ := res.Table.Column("dept")
	for i := 0; i < depts.Len(); i++ {
		if depts.Value(i).S == "eng" && c.Value(i).F != 2.5 {
			t.Errorf("eng stddev = %v, want 2.5", c.Value(i))
		}
	}
}

func TestPredictTimeSeriesNumericIndex(t *testing.T) {
	ctx := newTestContext(t)
	n := 30
	steps := make([]int64, n)
	vals := make([]float64, n)
	for i := range steps {
		steps[i] = int64(i * 10)
		vals[i] = float64(i) * 3
	}
	ctx.Datasets["series"] = mustCSVTable(t, steps, vals)
	res := run(t, ctx, Invocation{Skill: "PredictTimeSeries", Inputs: []string{"series"},
		Args: Args{"measure": "v", "time": "t", "steps": 4}})
	tc, _ := res.Table.Column("t")
	if f, ok := tc.Value(0).AsFloat(); !ok || f != float64((n-1)*10+10) {
		t.Errorf("first extrapolated t = %v", tc.Value(0))
	}
	// Too-short series errors.
	ctx.Datasets["tiny"] = mustCSVTable(t, []int64{1}, []float64{2})
	if _, err := reg.Execute(ctx, Invocation{Skill: "PredictTimeSeries", Inputs: []string{"tiny"},
		Args: Args{"measure": "v", "time": "t", "steps": 2}}); err == nil {
		t.Error("short series should error")
	}
	if _, err := reg.Execute(ctx, Invocation{Skill: "PredictTimeSeries", Inputs: []string{"series"},
		Args: Args{"measure": "v", "time": "t", "steps": 0}}); err == nil {
		t.Error("zero steps should error")
	}
}

func mustCSVTable(t *testing.T, steps []int64, vals []float64) *dataset.Table {
	t.Helper()
	return dataset.MustNewTable("series",
		dataset.IntColumn("t", steps, nil),
		dataset.FloatColumn("v", vals, nil))
}
