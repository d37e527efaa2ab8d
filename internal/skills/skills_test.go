package skills

import (
	"strings"
	"testing"

	"datachat/internal/cloud"
	"datachat/internal/dataset"
	"datachat/internal/snapshot"
	"datachat/internal/sqlengine"
)

func newTestContext(t *testing.T) *Context {
	t.Helper()
	ctx := NewContext()
	ctx.Datasets["people"] = dataset.MustNewTable("people",
		dataset.IntColumn("id", []int64{1, 2, 3, 4, 5, 6}, nil),
		dataset.StringColumn("name", []string{"ann", "bob", "carl", "dee", "eve", "fay"}, nil),
		dataset.IntColumn("age", []int64{30, 25, 40, 25, 35, 52}, nil),
		dataset.StringColumn("dept", []string{"eng", "eng", "sales", "sales", "hr", "hr"}, nil),
		dataset.FloatColumn("salary", []float64{100, 80, 90, 85, 70, 0}, []bool{false, false, false, false, false, true}),
	)
	ctx.Datasets["orders"] = dataset.MustNewTable("orders",
		dataset.IntColumn("order_id", []int64{10, 11, 12}, nil),
		dataset.IntColumn("person_id", []int64{1, 1, 3}, nil),
		dataset.FloatColumn("amount", []float64{5, 7, 9}, nil),
	)
	return ctx
}

var reg = NewRegistry()

func run(t *testing.T, ctx *Context, inv Invocation) *Result {
	t.Helper()
	res, err := reg.Execute(ctx, inv)
	if err != nil {
		t.Fatalf("Execute(%s): %v", inv.Skill, err)
	}
	return res
}

func TestRegistryHasAbout50Skills(t *testing.T) {
	n := len(reg.Names())
	if n < 40 || n > 60 {
		t.Errorf("registry has %d skills; the paper says ~50", n)
	}
	byCat := reg.ByCategory()
	for _, cat := range Categories() {
		if len(byCat[cat]) == 0 {
			t.Errorf("category %s has no skills", cat)
		}
	}
}

func TestLookupCaseInsensitiveAndUnknown(t *testing.T) {
	if _, err := reg.Lookup("keeprows"); err != nil {
		t.Errorf("case-insensitive lookup failed: %v", err)
	}
	if _, err := reg.Lookup("NoSuchSkill"); err == nil {
		t.Error("unknown skill should error")
	}
}

func TestKeepRowsAndDropRows(t *testing.T) {
	ctx := newTestContext(t)
	res := run(t, ctx, Invocation{Skill: "KeepRows", Inputs: []string{"people"},
		Args: Args{"condition": "age > 30"}})
	if res.Table.NumRows() != 3 {
		t.Errorf("KeepRows rows = %d", res.Table.NumRows())
	}
	res = run(t, ctx, Invocation{Skill: "DropRows", Inputs: []string{"people"},
		Args: Args{"condition": "dept = 'eng'"}})
	if res.Table.NumRows() != 4 {
		t.Errorf("DropRows rows = %d", res.Table.NumRows())
	}
}

func TestKeepRowsBadCondition(t *testing.T) {
	ctx := newTestContext(t)
	_, err := reg.Execute(ctx, Invocation{Skill: "KeepRows", Inputs: []string{"people"},
		Args: Args{"condition": "age >"}})
	if err == nil {
		t.Error("bad condition should error")
	}
	_, err = reg.Execute(ctx, Invocation{Skill: "KeepRows", Inputs: []string{"people"}, Args: Args{}})
	if err == nil || !strings.Contains(err.Error(), "condition") {
		t.Errorf("missing required param should name it: %v", err)
	}
}

func TestColumnSkills(t *testing.T) {
	ctx := newTestContext(t)
	res := run(t, ctx, Invocation{Skill: "KeepColumns", Inputs: []string{"people"},
		Args: Args{"columns": []string{"name", "age"}}})
	if got := strings.Join(res.Table.ColumnNames(), ","); got != "name,age" {
		t.Errorf("KeepColumns = %s", got)
	}
	res = run(t, ctx, Invocation{Skill: "DropColumns", Inputs: []string{"people"},
		Args: Args{"columns": "salary"}})
	if res.Table.HasColumn("salary") {
		t.Error("DropColumns failed")
	}
	res = run(t, ctx, Invocation{Skill: "RenameColumn", Inputs: []string{"people"},
		Args: Args{"column": "age", "to": "years"}})
	if !res.Table.HasColumn("years") || res.Table.HasColumn("age") {
		t.Error("RenameColumn failed")
	}
	if _, err := reg.Execute(ctx, Invocation{Skill: "RenameColumn", Inputs: []string{"people"},
		Args: Args{"column": "age", "to": "name"}}); err == nil {
		t.Error("rename onto existing column should error")
	}
}

func TestNewColumnFormulaAndText(t *testing.T) {
	ctx := newTestContext(t)
	res := run(t, ctx, Invocation{Skill: "NewColumn", Inputs: []string{"people"},
		Args: Args{"name": "double_age", "formula": "age * 2"}})
	c, _ := res.Table.Column("double_age")
	if c.Value(0).I != 60 {
		t.Errorf("formula column = %v", c.Value(0))
	}
	res = run(t, ctx, Invocation{Skill: "NewColumn", Inputs: []string{"people"},
		Args: Args{"name": "RecordType", "text": "Actual"}})
	c, _ = res.Table.Column("RecordType")
	if c.Value(0).S != "Actual" {
		t.Errorf("text column = %v", c.Value(0))
	}
	if _, err := reg.Execute(ctx, Invocation{Skill: "NewColumn", Inputs: []string{"people"},
		Args: Args{"name": "x"}}); err == nil {
		t.Error("NewColumn without formula or text should error")
	}
}

func TestFillNullAndReplace(t *testing.T) {
	ctx := newTestContext(t)
	res := run(t, ctx, Invocation{Skill: "FillNull", Inputs: []string{"people"},
		Args: Args{"column": "salary", "value": "0"}})
	c, _ := res.Table.Column("salary")
	if c.NullCount() != 0 {
		t.Error("FillNull left nulls")
	}
	res = run(t, ctx, Invocation{Skill: "ReplaceValues", Inputs: []string{"people"},
		Args: Args{"column": "dept", "from": "hr", "to": "people-ops"}})
	c, _ = res.Table.Column("dept")
	found := false
	for i := 0; i < c.Len(); i++ {
		if c.Value(i).S == "people-ops" {
			found = true
		}
		if c.Value(i).S == "hr" {
			t.Error("ReplaceValues left old value")
		}
	}
	if !found {
		t.Error("ReplaceValues did not write new value")
	}
}

func TestSortLimitSampleDistinct(t *testing.T) {
	ctx := newTestContext(t)
	res := run(t, ctx, Invocation{Skill: "SortRows", Inputs: []string{"people"},
		Args: Args{"columns": "age", "descending": true}})
	c, _ := res.Table.Column("age")
	if c.Value(0).I != 52 {
		t.Errorf("SortRows desc first = %v", c.Value(0))
	}
	res = run(t, ctx, Invocation{Skill: "LimitRows", Inputs: []string{"people"},
		Args: Args{"count": 2}})
	if res.Table.NumRows() != 2 {
		t.Errorf("LimitRows = %d", res.Table.NumRows())
	}
	res = run(t, ctx, Invocation{Skill: "SampleRows", Inputs: []string{"people"},
		Args: Args{"fraction": 0.5}})
	if res.Table.NumRows() >= 6 || res.Table.NumRows() == 0 {
		t.Errorf("SampleRows = %d rows", res.Table.NumRows())
	}
	res2 := run(t, ctx, Invocation{Skill: "SampleRows", Inputs: []string{"people"},
		Args: Args{"fraction": 0.5}})
	if !res.Table.Equal(res2.Table) {
		t.Error("SampleRows should be deterministic for a fixed seed")
	}
	res = run(t, ctx, Invocation{Skill: "DistinctRows", Inputs: []string{"people"},
		Args: Args{"columns": "dept"}})
	if res.Table.NumRows() != 3 {
		t.Errorf("DistinctRows over dept = %d", res.Table.NumRows())
	}
}

func TestConcatenateAndJoin(t *testing.T) {
	ctx := newTestContext(t)
	ctx.Datasets["more"] = dataset.MustNewTable("more",
		dataset.IntColumn("id", []int64{1, 99}, nil),
		dataset.StringColumn("name", []string{"ann", "zed"}, nil),
	)
	res := run(t, ctx, Invocation{Skill: "Concatenate", Inputs: []string{"people", "more"}})
	if res.Table.NumRows() != 8 {
		t.Errorf("Concatenate rows = %d", res.Table.NumRows())
	}
	res = run(t, ctx, Invocation{Skill: "JoinDatasets", Inputs: []string{"people", "orders"},
		Args: Args{"on": "people.id = orders.person_id"}})
	if res.Table.NumRows() != 3 {
		t.Errorf("Join rows = %d", res.Table.NumRows())
	}
	res = run(t, ctx, Invocation{Skill: "JoinDatasets", Inputs: []string{"people", "orders"},
		Args: Args{"on": "people.id = orders.person_id", "kind": "left"}})
	if res.Table.NumRows() != 7 { // ann×2, carl×1, 4 unmatched
		t.Errorf("Left join rows = %d", res.Table.NumRows())
	}
	if _, err := reg.Execute(ctx, Invocation{Skill: "JoinDatasets", Inputs: []string{"people"},
		Args: Args{"on": "x = y"}}); err == nil {
		t.Error("join with one input should error")
	}
}

func TestComputeMatchesPaperExample(t *testing.T) {
	// Figure 3: Compute the count of case_id for each party_sobriety.
	ctx := newTestContext(t)
	res := run(t, ctx, Invocation{Skill: "Compute", Inputs: []string{"people"},
		Args: Args{
			"aggregates": []string{"count of id as NumberOfPeople"},
			"for_each":   []string{"dept"},
		}})
	if res.Table.NumRows() != 3 {
		t.Fatalf("groups = %d", res.Table.NumRows())
	}
	if !res.Table.HasColumn("NumberOfPeople") {
		t.Errorf("columns = %v", res.Table.ColumnNames())
	}
	c, _ := res.Table.Column("NumberOfPeople")
	total := int64(0)
	for i := 0; i < c.Len(); i++ {
		total += c.Value(i).I
	}
	if total != 6 {
		t.Errorf("total count = %d", total)
	}
}

func TestComputeAggregateFunctions(t *testing.T) {
	ctx := newTestContext(t)
	res := run(t, ctx, Invocation{Skill: "Compute", Inputs: []string{"people"},
		Args: Args{"aggregates": []any{
			map[string]any{"func": "sum", "column": "age"},
			map[string]any{"func": "avg", "column": "age"},
			map[string]any{"func": "min", "column": "age"},
			map[string]any{"func": "max", "column": "age"},
			map[string]any{"func": "median", "column": "age"},
			map[string]any{"func": "count_distinct", "column": "dept"},
			map[string]any{"func": "count", "column": "*"},
		}}})
	row := res.Table.Row(0)
	wants := []string{"207", "34.5", "25", "52", "32.5", "3", "6"}
	for i, want := range wants {
		if row[i].String() != want {
			t.Errorf("agg %d (%s) = %s, want %s", i, res.Table.ColumnNames()[i], row[i], want)
		}
	}
}

func TestPivot(t *testing.T) {
	ctx := newTestContext(t)
	for _, c := range []struct {
		args Args
		want string
	}{
		{Args{"rows": "dept", "columns": "name", "measure": "sum of age"},
			"dept,ann,bob,carl,dee,eve,fay\neng,30,25,,,,\nhr,,,,,35,52\nsales,,,40,25,,\n"},
		// Labels sort as strings ("100" before "70"); a null value is "null".
		{Args{"rows": "dept", "columns": "salary", "measure": "count of records"},
			"dept,100,70,80,85,90,null\neng,1,,1,,,\nhr,,1,,,,1\nsales,,,,1,1,\n"},
	} {
		res := run(t, ctx, Invocation{Skill: "Pivot", Inputs: []string{"people"}, Args: c.args})
		var got strings.Builder
		if err := dataset.WriteCSV(res.Table, &got); err != nil {
			t.Fatal(err)
		}
		if got.String() != c.want {
			t.Errorf("Pivot %v =\n%s\nwant\n%s", c.args, got.String(), c.want)
		}
		for _, col := range res.Table.Columns()[1:] {
			if col.Type() != dataset.TypeFloat {
				t.Errorf("Pivot %v: measure column %s is %s, want float", c.args, col.Name(), col.Type())
			}
		}
	}
}

func TestBinAndDatePart(t *testing.T) {
	ctx := newTestContext(t)
	res := run(t, ctx, Invocation{Skill: "Bin", Inputs: []string{"people"},
		Args: Args{"column": "age", "size": 20}})
	c, err := res.Table.Column("ageInt20")
	if err != nil {
		t.Fatal(err)
	}
	if v := c.Value(0); v.F != 20 { // age 30 -> bin 20
		t.Errorf("bin(30) = %v", v)
	}
	ctx.Datasets["dated"] = mustCSV(t, "dated", "d\n2021-03-15\n2022-07-01\n")
	res = run(t, ctx, Invocation{Skill: "ExtractDatePart", Inputs: []string{"dated"},
		Args: Args{"column": "d", "part": "year"}})
	c, _ = res.Table.Column("d_year")
	if c.Value(1).I != 2022 {
		t.Errorf("year = %v", c.Value(1))
	}
	if _, err := reg.Execute(ctx, Invocation{Skill: "ExtractDatePart", Inputs: []string{"dated"},
		Args: Args{"column": "d", "part": "week"}}); err == nil {
		t.Error("unknown date part should error")
	}
}

func mustCSV(t *testing.T, name, data string) *dataset.Table {
	t.Helper()
	tbl, err := dataset.ReadCSVString(name, data)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestLoadDataFromRegisteredFile(t *testing.T) {
	ctx := newTestContext(t)
	ctx.PutFile("https://example.com/data.csv?x=1", "a,b\n1,2\n")
	res := run(t, ctx, Invocation{Skill: "LoadData",
		Args: Args{"source": "https://example.com/data.csv?x=1"}})
	if res.Table.Name() != "data" || res.Table.NumRows() != 1 {
		t.Errorf("loaded = %s %d rows", res.Table.Name(), res.Table.NumRows())
	}
	if _, err := reg.Execute(ctx, Invocation{Skill: "LoadData",
		Args: Args{"source": "missing.csv"}}); err == nil {
		t.Error("unregistered source should error")
	}
}

func TestCloudSkills(t *testing.T) {
	ctx := newTestContext(t)
	ids := make([]int64, 5000)
	for i := range ids {
		ids[i] = int64(i)
	}
	db := cloud.NewDatabase("warehouse", cloud.DefaultPricing, 100)
	if err := db.CreateTable(dataset.MustNewTable("events", dataset.IntColumn("id", ids, nil))); err != nil {
		t.Fatal(err)
	}
	ctx.Cloud["warehouse"] = db
	ctx.Snapshots = snapshot.NewStore(50)

	res := run(t, ctx, Invocation{Skill: "LoadTable",
		Args: Args{"database": "warehouse", "table": "events"}})
	if res.Table.NumRows() != 5000 {
		t.Errorf("LoadTable rows = %d", res.Table.NumRows())
	}
	fullCost := db.Meter().BytesScanned()

	db.Meter().Reset()
	res = run(t, ctx, Invocation{Skill: "SampleTable",
		Args: Args{"database": "warehouse", "table": "events", "rate": 0.1}})
	if got := db.Meter().BytesScanned(); got*5 > fullCost {
		t.Errorf("10%% sample cost %d vs full %d", got, fullCost)
	}
	if res.Table.NumRows() == 0 || res.Table.NumRows() >= 5000 {
		t.Errorf("sample rows = %d", res.Table.NumRows())
	}

	res = run(t, ctx, Invocation{Skill: "CreateSnapshot",
		Args: Args{"name": "ev", "database": "warehouse", "table": "events"}})
	if res.Table.NumRows() != 5000 {
		t.Errorf("snapshot rows = %d", res.Table.NumRows())
	}
	res = run(t, ctx, Invocation{Skill: "UseSnapshot", Args: Args{"name": "ev"}})
	if res.Table.NumRows() != 5000 {
		t.Errorf("UseSnapshot rows = %d", res.Table.NumRows())
	}
	res = run(t, ctx, Invocation{Skill: "RefreshSnapshot",
		Args: Args{"name": "ev", "database": "warehouse"}})
	if !strings.Contains(res.Message, "refreshed") {
		t.Errorf("refresh message = %s", res.Message)
	}
	if _, err := reg.Execute(ctx, Invocation{Skill: "SampleTable",
		Args: Args{"database": "nope", "table": "events", "rate": 0.1}}); err == nil {
		t.Error("unknown database should error")
	}
}

func TestExplorationSkills(t *testing.T) {
	ctx := newTestContext(t)
	res := run(t, ctx, Invocation{Skill: "DescribeColumn", Inputs: []string{"people"},
		Args: Args{"column": "age"}})
	if res.Table.NumRows() != 1 {
		t.Fatalf("describe rows = %d", res.Table.NumRows())
	}
	row := res.Table.Row(0)
	if row[0].S != "age" || row[2].I != 6 {
		t.Errorf("describe row = %v", row)
	}
	res = run(t, ctx, Invocation{Skill: "DescribeDataset", Inputs: []string{"people"}})
	if res.Table.NumRows() != 5 {
		t.Errorf("describe dataset rows = %d", res.Table.NumRows())
	}
	res = run(t, ctx, Invocation{Skill: "CountRows", Inputs: []string{"people"}})
	if c, _ := res.Table.Column("rows"); c.Value(0).I != 6 {
		t.Errorf("CountRows = %v", c.Value(0))
	}
	res = run(t, ctx, Invocation{Skill: "ListDatasets"})
	if res.Table.NumRows() != 2 {
		t.Errorf("ListDatasets rows = %d", res.Table.NumRows())
	}
	res = run(t, ctx, Invocation{Skill: "ShowDataset", Inputs: []string{"people"}, Args: Args{"rows": 3}})
	if res.Table.NumRows() != 3 {
		t.Errorf("ShowDataset rows = %d", res.Table.NumRows())
	}
	res = run(t, ctx, Invocation{Skill: "TopValues", Inputs: []string{"people"},
		Args: Args{"column": "dept", "count": 2}})
	if res.Table.NumRows() != 2 {
		t.Errorf("TopValues rows = %d", res.Table.NumRows())
	}
	res = run(t, ctx, Invocation{Skill: "Correlate", Inputs: []string{"people"},
		Args: Args{"column1": "id", "column2": "age"}})
	if c, _ := res.Table.Column("pearson_r"); c.Value(0).IsNull() {
		t.Error("correlation should be computed")
	}
}

func TestVisualizationSkills(t *testing.T) {
	ctx := newTestContext(t)
	res := run(t, ctx, Invocation{Skill: "PlotChart", Inputs: []string{"people"},
		Args: Args{"chart": "bar", "x": "dept", "y": "salary"}})
	if len(res.Charts) != 1 {
		t.Fatalf("charts = %d", len(res.Charts))
	}
	res = run(t, ctx, Invocation{Skill: "Visualize", Inputs: []string{"people"},
		Args: Args{"kpi": "dept", "by": []string{"age", "name"}}})
	if len(res.Charts) < 3 {
		t.Errorf("Visualize produced %d charts", len(res.Charts))
	}
	if !strings.Contains(res.Message, "charts to visualize the data") {
		t.Errorf("message = %s", res.Message)
	}
	res = run(t, ctx, Invocation{Skill: "Visualize", Inputs: []string{"people"},
		Args: Args{"kpi": "dept", "filter": "age > 30"}})
	if res.Charts[0].RowsUsed != 3 {
		t.Errorf("filtered rows used = %d", res.Charts[0].RowsUsed)
	}
	if _, err := reg.Execute(ctx, Invocation{Skill: "PlotChart", Inputs: []string{"people"},
		Args: Args{"chart": "sunburst", "x": "dept"}}); err == nil {
		t.Error("unknown chart type should error")
	}
}

func TestMLSkillsEndToEnd(t *testing.T) {
	ctx := newTestContext(t)
	// Deterministic y = 3x dataset.
	xs := make([]int64, 60)
	ys := make([]float64, 60)
	for i := range xs {
		xs[i] = int64(i)
		ys[i] = 3 * float64(i)
	}
	ctx.Datasets["lin"] = dataset.MustNewTable("lin",
		dataset.IntColumn("x", xs, nil),
		dataset.FloatColumn("y", ys, nil),
	)
	res := run(t, ctx, Invocation{Skill: "TrainModel", Inputs: []string{"lin"},
		Args: Args{"target": "y", "features": []string{"x"}, "name": "m"}})
	if res.Model == nil || ctx.Models["m"] == nil {
		t.Fatal("model not stored")
	}
	if !strings.Contains(res.Message, "linear-regression") {
		t.Errorf("message = %s", res.Message)
	}
	res = run(t, ctx, Invocation{Skill: "PredictWithModel", Inputs: []string{"lin"},
		Args: Args{"model": "m", "features": []string{"x"}}})
	c, _ := res.Table.Column("prediction")
	if got := c.Value(10).F; got < 29 || got > 31 {
		t.Errorf("prediction(10) = %v", got)
	}
	res = run(t, ctx, Invocation{Skill: "EvaluateModel", Inputs: []string{"lin"},
		Args: Args{"model": "m", "target": "y", "features": []string{"x"}}})
	if res.Table.NumRows() < 4 {
		t.Errorf("metrics rows = %d", res.Table.NumRows())
	}
	res = run(t, ctx, Invocation{Skill: "ExplainModel", Args: Args{"model": "m"}})
	if !strings.Contains(res.Message, "linear model") {
		t.Errorf("explain = %s", res.Message)
	}
	if _, err := reg.Execute(ctx, Invocation{Skill: "ExplainModel", Args: Args{"model": "nope"}}); err == nil {
		t.Error("missing model should error")
	}
}

func TestClusterAndOutlierSkills(t *testing.T) {
	ctx := newTestContext(t)
	vals := make([]float64, 50)
	for i := range vals {
		vals[i] = float64(i % 5)
	}
	vals[25] = 1000
	ctx.Datasets["series"] = dataset.MustNewTable("series",
		dataset.FloatColumn("v", vals, nil))
	res := run(t, ctx, Invocation{Skill: "DetectOutliers", Inputs: []string{"series"},
		Args: Args{"column": "v"}})
	c, _ := res.Table.Column("is_outlier")
	if !c.Value(25).B {
		t.Error("planted outlier not flagged")
	}
	res = run(t, ctx, Invocation{Skill: "ClusterRows", Inputs: []string{"people"},
		Args: Args{"columns": []string{"age", "id"}, "k": 2}})
	if !res.Table.HasColumn("cluster") {
		t.Error("cluster column missing")
	}
}

func TestPredictTimeSeriesSkill(t *testing.T) {
	// Figure 2: predict the next 12 values of a quarterly series.
	ctx := newTestContext(t)
	var csv strings.Builder
	csv.WriteString("DATE,GDPC1\n")
	for q := 0; q < 40; q++ {
		year := 2005 + q/4
		month := 1 + (q%4)*3
		csv.WriteString(strings.Join([]string{
			formatDate(year, month), formatFloat(15000 + 50*float64(q)),
		}, ",") + "\n")
	}
	ctx.Datasets["fredgraph"] = mustCSV(t, "fredgraph", csv.String())
	res := run(t, ctx, Invocation{Skill: "PredictTimeSeries", Inputs: []string{"fredgraph"},
		Args: Args{"measure": "GDPC1", "time": "DATE", "steps": 12}})
	if res.Table.NumRows() != 12 {
		t.Fatalf("predicted rows = %d", res.Table.NumRows())
	}
	if res.Table.Name() != "PredictedTimeSeries_GDPC1" {
		t.Errorf("output name = %s", res.Table.Name())
	}
	rt, _ := res.Table.Column("RecordType")
	if rt.Value(0).S != "Predicted" {
		t.Errorf("RecordType = %v", rt.Value(0))
	}
	// Forecast continues the 50/quarter trend.
	g, _ := res.Table.Column("GDPC1")
	if got := g.Value(0).F; got < 16950 || got > 17050 {
		t.Errorf("first prediction = %v", got)
	}
	// Time stamps extrapolate quarterly.
	d, _ := res.Table.Column("DATE")
	if d.Value(0).T.Year() != 2015 {
		t.Errorf("first predicted date = %v", d.Value(0))
	}
}

func formatDate(year, month int) string {
	m := "0"
	if month >= 10 {
		m = ""
	}
	return strings.Join([]string{intToStr(year), m + intToStr(month), "01"}, "-")
}

func intToStr(n int) string { return strings.TrimSpace(strings.Join([]string{}, "")) + itoa(n) }

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	digits := []byte{}
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

func formatFloat(f float64) string {
	return itoa(int(f))
}

func TestRunSQLSkill(t *testing.T) {
	ctx := newTestContext(t)
	res := run(t, ctx, Invocation{Skill: "RunSQL",
		Args: Args{"query": "SELECT dept, COUNT(*) AS n FROM people GROUP BY dept ORDER BY dept"}})
	if res.Table.NumRows() != 3 {
		t.Errorf("RunSQL rows = %d", res.Table.NumRows())
	}
	if _, err := reg.Execute(ctx, Invocation{Skill: "RunSQL",
		Args: Args{"query": "SELECT * FROM nope"}}); err == nil {
		t.Error("bad query should error")
	}
}

func TestCollaborationSkills(t *testing.T) {
	ctx := newTestContext(t)
	res := run(t, ctx, Invocation{Skill: "ExportCSV", Inputs: []string{"people"},
		Args: Args{"file": "out.csv"}})
	if !strings.Contains(res.Message, "Exported 6 rows") {
		t.Errorf("export message = %s", res.Message)
	}
	if _, ok := ctx.File("out.csv"); !ok {
		t.Error("export did not register the file")
	}
	res = run(t, ctx, Invocation{Skill: "Define",
		Args: Args{"phrase": "senior staff", "meaning": "age >= 40"}})
	if ctx.Definitions["senior staff"] != "age >= 40" {
		t.Error("Define did not record the phrase")
	}
	run(t, ctx, Invocation{Skill: "SaveArtifact", Inputs: []string{"people"}, Args: Args{"name": "t1"}})
	run(t, ctx, Invocation{Skill: "ShareArtifact", Args: Args{"name": "t1"}})
	run(t, ctx, Invocation{Skill: "ShareSession", Args: Args{"with": "bob"}})
	run(t, ctx, Invocation{Skill: "PublishToInsightsBoard", Args: Args{"artifact": "t1", "board": "b"}})
	run(t, ctx, Invocation{Skill: "AddComment", Args: Args{"text": "check this"}})
}

// TestDualPathEquivalence verifies the §2.2 claim that consolidating a chain
// of relational skills does not change its answer: the chain run one
// statement per skill, each on the row reference, equals its consolidated
// statement run by the pipeline.
func TestDualPathEquivalence(t *testing.T) {
	ctx := newTestContext(t)
	chains := [][]Invocation{
		{
			{Skill: "KeepRows", Args: Args{"condition": "age > 25"}},
			{Skill: "KeepColumns", Args: Args{"columns": []string{"name", "age", "dept"}}},
			{Skill: "SortRows", Args: Args{"columns": "age"}},
			{Skill: "LimitRows", Args: Args{"count": 3}},
		},
		{
			{Skill: "NewColumn", Args: Args{"name": "age2", "formula": "age * 2"}},
			{Skill: "KeepRows", Args: Args{"condition": "age2 >= 60"}},
			{Skill: "SortRows", Args: Args{"columns": "age2", "descending": true}},
		},
		{
			{Skill: "Compute", Args: Args{
				"aggregates": []string{"count of id as n", "avg of age as avg_age"},
				"for_each":   []string{"dept"}}},
			{Skill: "SortRows", Args: Args{"columns": "dept"}},
		},
		{
			{Skill: "DistinctRows", Args: Args{"columns": []string{"dept"}}},
			{Skill: "SortRows", Args: Args{"columns": "dept"}},
		},
		{
			{Skill: "Bin", Args: Args{"column": "age", "size": 10}},
			{Skill: "KeepRows", Args: Args{"condition": "ageInt10 = 20"}},
		},
	}
	for ci, chain := range chains {
		// One statement per step.
		ctx.Datasets["work"] = ctx.Datasets["people"].WithName("work")
		for _, inv := range chain {
			inv.Inputs = []string{"work"}
			step, err := viaReference(ctx, inv)
			if err != nil {
				t.Fatalf("chain %d step %s: %v", ci, inv.Skill, err)
			}
			ctx.Datasets["work"] = step.WithName("work")
		}
		perStep := ctx.Datasets["work"]

		// One consolidated statement.
		b := NewQueryBuilder("people")
		for _, inv := range chain {
			def, err := reg.Lookup(inv.Skill)
			if err != nil {
				t.Fatal(err)
			}
			if def.MergeSQL == nil {
				t.Fatalf("chain %d: %s is not relational", ci, inv.Skill)
			}
			if err := def.MergeSQL(b, inv); err != nil {
				t.Fatalf("chain %d merge %s: %v", ci, inv.Skill, err)
			}
		}
		consolidated, err := sqlengine.ExecStmt(ctx, b.Stmt())
		if err != nil {
			t.Fatalf("chain %d sql exec (%s): %v", ci, b.SQL(), err)
		}
		if !perStep.Equal(consolidated) {
			t.Errorf("chain %d: per-step and consolidated statements disagree\nSQL: %s\nper step:\n%s\nconsolidated:\n%s",
				ci, b.SQL(), perStep, consolidated)
		}
	}
}

func TestQueryBuilderConsolidation(t *testing.T) {
	// Figure 4: Load → Filter → Limit consolidates into ONE query block.
	b := NewQueryBuilder("collisions")
	cond, err := sqlengine.ParseExpr("county = 'yolo'")
	if err != nil {
		t.Fatal(err)
	}
	b.Where(cond)
	b.Limit(100)
	if got := b.Blocks(); got != 1 {
		t.Errorf("consolidated blocks = %d, want 1\n%s", got, b.SQL())
	}

	// The naive path nests before every step.
	naive := NewQueryBuilder("collisions")
	naive.Nest()
	naive.Where(cond)
	naive.Nest()
	naive.Limit(100)
	if got := naive.Blocks(); got < 3 {
		t.Errorf("naive blocks = %d, want >= 3", got)
	}
}

func TestQueryBuilderNestsWhenUnsafe(t *testing.T) {
	b := NewQueryBuilder("t")
	if err := b.GroupBy([]AggSpec{{Func: "count", Column: "*"}}, []string{"dept"}); err != nil {
		t.Fatal(err)
	}
	cond, _ := sqlengine.ParseExpr("count_records > 1")
	b.Where(cond) // filter after aggregation must nest
	if got := b.Blocks(); got != 2 {
		t.Errorf("blocks = %d, want 2\n%s", got, b.SQL())
	}

	// Limit then sort must nest (different semantics).
	b2 := NewQueryBuilder("t")
	b2.Limit(10)
	b2.OrderBy([]string{"x"}, nil)
	if got := b2.Blocks(); got != 2 {
		t.Errorf("limit-then-sort blocks = %d, want 2\n%s", got, b2.SQL())
	}
}

func TestRenderGEL(t *testing.T) {
	cases := []struct {
		inv  Invocation
		want string
	}{
		{
			Invocation{Skill: "KeepRows", Args: Args{"condition": "DATE BETWEEN '2005-01-01' AND '2020-12-31'"}},
			"Keep the rows where DATE BETWEEN '2005-01-01' AND '2020-12-31'",
		},
		{
			Invocation{Skill: "KeepColumns", Args: Args{"columns": []string{"DATE", "GDPC1", "RecordType"}}},
			"Keep the columns DATE, GDPC1, RecordType",
		},
		{
			Invocation{Skill: "NewColumn", Args: Args{"name": "RecordType", "text": "Actual"}},
			"Create a new column RecordType with text Actual",
		},
		{
			Invocation{Skill: "Concatenate", Inputs: []string{"fredgraph", "PredictedTimeSeries_GDPC1"},
				Args: Args{"dedupe": true}},
			"Concatenate the datasets fredgraph and PredictedTimeSeries_GDPC1 remove all duplicates",
		},
		{
			Invocation{Skill: "Compute", Args: Args{
				"aggregates": []string{"count of case_id as NumberOfCases"},
				"for_each":   []string{"party_sobriety"}}},
			"Compute the count of case_id for each party_sobriety and call the computed columns NumberOfCases",
		},
		{
			Invocation{Skill: "PlotChart", Args: Args{"chart": "line", "x": "DATE", "y": "GDPC1", "for_each": "RecordType"}},
			"Plot a line chart with the x-axis DATE, the y-axis GDPC1, for each RecordType",
		},
		{
			Invocation{Skill: "Visualize", Args: Args{"kpi": "at_fault", "by": []string{"party_age", "party_sex", "cellphone_in_use"}}},
			"Visualize at_fault by party_age, party_sex, cellphone_in_use",
		},
		{
			Invocation{Skill: "PredictTimeSeries", Args: Args{"measure": "GDPC1", "time": "DATE", "steps": 12}},
			"Predict time series with measure columns GDPC1 for the next 12 values of DATE",
		},
	}
	for _, c := range cases {
		got, err := reg.RenderGEL(c.inv)
		if err != nil {
			t.Fatalf("RenderGEL(%s): %v", c.inv.Skill, err)
		}
		if got != c.want {
			t.Errorf("RenderGEL(%s) =\n  %s\nwant\n  %s", c.inv.Skill, got, c.want)
		}
	}
}

func TestRenderPython(t *testing.T) {
	inv := Invocation{Skill: "Compute", Inputs: []string{"california_car_collisions"},
		Args: Args{
			"aggregates": []string{"count of case_id"},
			"for_each":   []string{"party_sobriety"},
		}}
	got, err := reg.RenderPython(inv)
	if err != nil {
		t.Fatal(err)
	}
	want := `california_car_collisions.compute(aggregates = [Count("case_id")], for_each = ["party_sobriety"])`
	if got != want {
		t.Errorf("RenderPython =\n  %s\nwant\n  %s", got, want)
	}
	inv2 := Invocation{Skill: "KeepRows", Inputs: []string{"people"}, Output: "adults",
		Args: Args{"condition": "age >= 18"}}
	got2, err := reg.RenderPython(inv2)
	if err != nil {
		t.Fatal(err)
	}
	if got2 != `adults = people.keep_rows(condition = "age >= 18")` {
		t.Errorf("RenderPython with output = %s", got2)
	}
}

func TestArgsHelpers(t *testing.T) {
	a := Args{"s": "x", "n": 3.0, "i": 4, "b": true, "list": []any{"p", "q"}}
	if v, _ := a.String("s"); v != "x" {
		t.Error("String failed")
	}
	if _, err := a.String("n"); err == nil {
		t.Error("String on number should error")
	}
	if v, _ := a.Int("n"); v != 3 {
		t.Error("Int on float64 failed")
	}
	if v, _ := a.Float("i"); v != 4 {
		t.Error("Float on int failed")
	}
	if !a.Bool("b") || a.Bool("missing") {
		t.Error("Bool failed")
	}
	if v, _ := a.StringList("list"); len(v) != 2 || v[1] != "q" {
		t.Error("StringList on []any failed")
	}
	if v, _ := a.StringList("s"); len(v) != 1 {
		t.Error("StringList on bare string failed")
	}
	if _, err := a.StringList("missing"); err == nil {
		t.Error("StringList missing should error")
	}
}

func TestAggSpecParsing(t *testing.T) {
	a := Args{"aggs": []string{"count of records", "sum of amount as total"}}
	specs, err := a.AggSpecs("aggs")
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].Column != "*" || specs[0].Func != "count" {
		t.Errorf("spec 0 = %+v", specs[0])
	}
	if specs[1].As != "total" || specs[1].OutName() != "total" {
		t.Errorf("spec 1 = %+v", specs[1])
	}
	if specs[0].OutName() != "count_records" {
		t.Errorf("default name = %s", specs[0].OutName())
	}
	bad := Args{"aggs": []string{"frobnicate of x"}}
	if _, err := bad.AggSpecs("aggs"); err == nil {
		t.Error("unknown agg func should error")
	}
	empty := Args{"aggs": []any{}}
	if _, err := empty.AggSpecs("aggs"); err == nil {
		t.Error("empty agg list should error")
	}
}
