package gel

import (
	"strings"
	"testing"
	"time"

	"datachat/internal/dag"
	"datachat/internal/dataset"
	"datachat/internal/skills"
)

var reg = skills.NewRegistry()

func parser(t *testing.T) *Parser {
	t.Helper()
	return NewParser(reg)
}

func TestParseCoreSentences(t *testing.T) {
	p := parser(t)
	cases := []struct {
		line  string
		skill string
		check func(t *testing.T, inv skills.Invocation)
	}{
		{"Keep the rows where age > 30", "KeepRows", func(t *testing.T, inv skills.Invocation) {
			if inv.Args["condition"] != "age > 30" {
				t.Errorf("condition = %v", inv.Args["condition"])
			}
		}},
		{"Keep the columns DATE, GDPC1, RecordType", "KeepColumns", func(t *testing.T, inv skills.Invocation) {
			cols, _ := inv.Args.StringList("columns")
			if len(cols) != 3 || cols[2] != "RecordType" {
				t.Errorf("columns = %v", cols)
			}
		}},
		{"Create a new column RecordType with text Actual", "NewColumn", func(t *testing.T, inv skills.Invocation) {
			if inv.Args["text"] != "Actual" || inv.Args["name"] != "RecordType" {
				t.Errorf("args = %v", inv.Args)
			}
		}},
		{"Create a new column double_age as age * 2", "NewColumn", func(t *testing.T, inv skills.Invocation) {
			if inv.Args["formula"] != "age * 2" {
				t.Errorf("formula = %v", inv.Args["formula"])
			}
		}},
		{"Sort the rows by age, name in descending order", "SortRows", func(t *testing.T, inv skills.Invocation) {
			if !inv.Args.Bool("descending") {
				t.Error("descending not set")
			}
		}},
		{"Limit the data to 100 rows", "LimitRows", func(t *testing.T, inv skills.Invocation) {
			if n, _ := inv.Args.Int("count"); n != 100 {
				t.Errorf("count = %v", inv.Args["count"])
			}
		}},
		{"Sample 0.1 of the rows", "SampleRows", func(t *testing.T, inv skills.Invocation) {
			if f, _ := inv.Args.Float("fraction"); f != 0.1 {
				t.Errorf("fraction = %v", inv.Args["fraction"])
			}
		}},
		{"Concatenate the datasets fredgraph and PredictedTimeSeries_GDPC1 remove all duplicates", "Concatenate",
			func(t *testing.T, inv skills.Invocation) {
				if len(inv.Inputs) != 2 || inv.Inputs[1] != "PredictedTimeSeries_GDPC1" {
					t.Errorf("inputs = %v", inv.Inputs)
				}
				if !inv.Args.Bool("dedupe") {
					t.Error("dedupe not set")
				}
			}},
		{"Predict time series with measure columns GDPC1 for the next 12 values of DATE", "PredictTimeSeries",
			func(t *testing.T, inv skills.Invocation) {
				if inv.Args["measure"] != "GDPC1" || inv.Args["time"] != "DATE" {
					t.Errorf("args = %v", inv.Args)
				}
				if n, _ := inv.Args.Int("steps"); n != 12 {
					t.Errorf("steps = %v", inv.Args["steps"])
				}
			}},
		{"Plot a line chart with the x-axis DATE, the y-axis GDPC1, for each RecordType", "PlotChart",
			func(t *testing.T, inv skills.Invocation) {
				if inv.Args["chart"] != "line" || inv.Args["for_each"] != "RecordType" {
					t.Errorf("args = %v", inv.Args)
				}
			}},
		{"Visualize at_fault by party_age, party_sex, cellphone_in_use", "Visualize",
			func(t *testing.T, inv skills.Invocation) {
				by, _ := inv.Args.StringList("by")
				if len(by) != 3 {
					t.Errorf("by = %v", by)
				}
			}},
		{"Use the dataset fredgraph, version 1", "UseDataset", func(t *testing.T, inv skills.Invocation) {
			if v, _ := inv.Args.Int("version"); v != 1 {
				t.Errorf("version = %v", inv.Args["version"])
			}
		}},
		{"Load data from the URL https://fred.example/fredgraph.csv?id=GDPC1", "LoadData",
			func(t *testing.T, inv skills.Invocation) {
				if !strings.Contains(inv.Args.StringOr("source", ""), "fredgraph.csv") {
					t.Errorf("source = %v", inv.Args["source"])
				}
			}},
		{"Describe the column party_age", "DescribeColumn", nil},
		{"Train a model to predict churn using age, tenure", "TrainModel", func(t *testing.T, inv skills.Invocation) {
			feats, _ := inv.Args.StringList("features")
			if len(feats) != 2 {
				t.Errorf("features = %v", feats)
			}
		}},
		{"Detect outliers in amount using iqr", "DetectOutliers", nil},
		{"Run the SQL query SELECT * FROM people WHERE age > 10", "RunSQL", func(t *testing.T, inv skills.Invocation) {
			if !strings.HasPrefix(inv.Args.StringOr("query", ""), "SELECT") {
				t.Errorf("query = %v", inv.Args["query"])
			}
		}},
		{"Create bins of size 20 on party_age", "Bin", func(t *testing.T, inv skills.Invocation) {
			if f, _ := inv.Args.Float("size"); f != 20 {
				t.Errorf("size = %v", inv.Args["size"])
			}
		}},
		{"Sample 10% of the table events from the database warehouse", "SampleTable",
			func(t *testing.T, inv skills.Invocation) {
				if f, _ := inv.Args.Float("rate"); f != 0.1 {
					t.Errorf("rate = %v", inv.Args["rate"])
				}
			}},
	}
	for _, c := range cases {
		inv, err := p.Parse(c.line)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.line, err)
			continue
		}
		if inv.Skill != c.skill {
			t.Errorf("Parse(%q).Skill = %s, want %s", c.line, inv.Skill, c.skill)
			continue
		}
		if c.check != nil {
			c.check(t, inv)
		}
	}
}

func TestParseComputeSentence(t *testing.T) {
	p := parser(t)
	inv, err := p.Parse("Compute the count of case_id for each party_sobriety and call the computed columns NumberOfCases")
	if err != nil {
		t.Fatal(err)
	}
	aggs, err := inv.Args.AggSpecs("aggregates")
	if err != nil {
		t.Fatal(err)
	}
	if aggs[0].Func != "count" || aggs[0].Column != "case_id" || aggs[0].As != "NumberOfCases" {
		t.Errorf("agg = %+v", aggs[0])
	}
	keys, _ := inv.Args.StringList("for_each")
	if len(keys) != 1 || keys[0] != "party_sobriety" {
		t.Errorf("keys = %v", keys)
	}

	inv2, err := p.Parse("Compute the count of records and sum of amount for each region, year")
	if err != nil {
		t.Fatal(err)
	}
	aggs2, _ := inv2.Args.AggSpecs("aggregates")
	if len(aggs2) != 2 || aggs2[0].Column != "*" || aggs2[1].Func != "sum" {
		t.Errorf("aggs = %+v", aggs2)
	}
	keys2, _ := inv2.Args.StringList("for_each")
	if len(keys2) != 2 {
		t.Errorf("keys = %v", keys2)
	}

	if _, err := p.Parse("Compute the frobnicate of x"); err == nil {
		t.Error("bad aggregate should error")
	}
	if _, err := p.Parse("Compute nonsense"); err == nil {
		t.Error("malformed compute should error")
	}
	// Words the sentence cannot place are an error, not silently dropped.
	if _, err := p.Parse("Compute the sum of a b and call the computed columns 'p q'"); err == nil {
		t.Error("stray aggregate words should error")
	}
}

// formValue is one set of values a sentence form is filled with.
type formValue struct {
	word, number, rest string
	list               []string
}

// formValues are the values every declared sentence form is filled with:
// one word, two words, and values bearing quotes.
var formValues = []formValue{
	{"alpha", "3", "x > 1", []string{"alpha", "beta"}},
	{"unit price", "2.5", "unit price > 1", []string{"unit price", "list price"}},
	{"O'Brien", "-4", "name = 'O''Brien'", []string{"O'Brien", `say "hi"`}},
}

// gelWord writes a value as a sentence spells it: quoted, inner quotes
// doubled, unless it is one plain word.
func gelWord(s string) string {
	if strings.ContainsAny(s, ` '"`) {
		return "'" + strings.ReplaceAll(s, "'", "''") + "'"
	}
	return s
}

// fillForm writes the sentence a form reads as when filled with v.
func fillForm(form *skills.Form, v formValue) string {
	var words []string
	for _, seg := range form.Segments() {
		switch {
		case seg.Literal != "":
			words = append(words, seg.Literal)
		case seg.Kind == skills.SlotNumber:
			words = append(words, v.number)
		case seg.Kind == skills.SlotRest:
			words = append(words, v.rest)
		case seg.Kind == skills.SlotList:
			items := make([]string, len(v.list))
			for j, item := range v.list {
				items[j] = gelWord(item)
			}
			words = append(words, strings.Join(items, " and "))
		default:
			words = append(words, gelWord(v.word))
		}
	}
	return strings.Join(words, " ")
}

// eachFilledForm calls fn with every declared sentence form of every skill,
// filled with each of formValues.
func eachFilledForm(fn func(def *skills.Definition, form *skills.Form, v formValue, sentence string)) {
	for _, name := range reg.Names() {
		def, _ := reg.Lookup(name)
		for i := range def.GEL {
			for _, v := range formValues {
				fn(def, &def.GEL[i], v, fillForm(&def.GEL[i], v))
			}
		}
	}
}

// TestParseGELRoundTrip is the §2.3 claim that recipes are editable text:
// every declared sentence form, filled with each kind of value, survives
// parse → RenderGEL → parse as the same invocation.
func TestParseGELRoundTrip(t *testing.T) {
	p := parser(t)
	eachFilledForm(func(def *skills.Definition, form *skills.Form, v formValue, sentence string) {
		inv, err := p.Parse(sentence)
		if err != nil {
			t.Errorf("form %q: %q does not parse: %v", form.Template, sentence, err)
			return
		}
		if _, err := p.RoundTrip(inv); err != nil {
			t.Errorf("form %q: %v", form.Template, err)
		}
	})
	// Invocations built by hand (recipe JSON, the Python API) render to
	// sentences that parse back to them too.
	for _, inv := range []skills.Invocation{
		{Skill: "KeepRows", Args: skills.Args{"condition": "age > 30"}},
		{Skill: "KeepColumns", Args: skills.Args{"columns": []string{"a", "b"}}},
		{Skill: "LimitRows", Args: skills.Args{"count": 10}},
		{Skill: "Compute", Args: skills.Args{
			"aggregates": []string{"count of id as n"}, "for_each": []string{"dept"}}},
		{Skill: "PredictTimeSeries", Args: skills.Args{"measure": "GDPC1", "time": "DATE", "steps": 12}},
		{Skill: "TrainModel", Args: skills.Args{"target": "y", "model": "tree", "features": []string{"a", "and"}}},
	} {
		if _, err := p.RoundTrip(inv); err != nil {
			t.Error(err)
		}
	}
	// An invocation no form carries is an error, not a lossy sentence.
	if s, err := reg.RenderGEL(skills.Invocation{Skill: "PlotChart", Args: skills.Args{"chart": "bar", "x": "a", "title": "t"}}); err == nil {
		t.Errorf("PlotChart with a title rendered as %q", s)
	}
}

func TestTranslateConditionPhrases(t *testing.T) {
	p := parser(t)
	p.Now = time.Date(2023, 1, 15, 0, 0, 0, 0, time.UTC)
	cases := map[string]string{
		"DATE is between the dates 01-01-2005 to 12-31-2020": "DATE BETWEEN '2005-01-01' AND '2020-12-31'",
		"DATE is after Today - 10 years":                     "DATE > '2013-01-15'",
		"DATE is before Today":                               "DATE < '2023-01-15'",
		"DATE is after 2020-06-01":                           "DATE > '2020-06-01'",
		"amount is at least 100":                             "amount >= 100",
		"amount is at most 5":                                "amount <= 5",
		"status is active":                                   "status = 'active'",
		"status is not active":                               "status <> 'active'",
		"salary is null":                                     "salary IS NULL",
		"salary is not null":                                 "salary IS NOT NULL",
		"age > 30 AND dept = 'eng'":                          "age > 30 AND dept = 'eng'", // passthrough
	}
	for in, want := range cases {
		if got := p.TranslateCondition(in); got != want {
			t.Errorf("TranslateCondition(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseRejectsNonsense(t *testing.T) {
	p := parser(t)
	for _, line := range []string{"", "   ", "frobnicate the widgets", "keep the"} {
		if _, err := p.Parse(line); err == nil {
			t.Errorf("Parse(%q) should fail", line)
		}
	}
}

func TestSuggest(t *testing.T) {
	p := parser(t)
	cols := []string{"party_age", "party_sex"}
	got := p.Suggest("Keep the", cols)
	joined := strings.Join(got, " ")
	if !strings.Contains(joined, "rows") || !strings.Contains(joined, "columns") {
		t.Errorf("Suggest after 'Keep the' = %v", got)
	}
	got = p.Suggest("Describe the column", cols)
	joined = strings.Join(got, " ")
	if !strings.Contains(joined, "party_age") {
		t.Errorf("Suggest should offer columns: %v", got)
	}
	got = p.Suggest("", nil)
	if len(got) < 10 {
		t.Errorf("empty prefix should offer many starts: %v", got)
	}
}

// gdpCSV builds a synthetic quarterly GDP series like the FRED data in
// Figure 2.
func gdpCSV() string {
	var b strings.Builder
	b.WriteString("DATE,GDPC1\n")
	year, month := 1995, 1
	for q := 0; q < 104; q++ { // 1995Q1 .. 2020Q4
		val := 11000 + 45*q
		if year >= 2020 {
			val -= 800 // a 2020 dip, so actual diverges from trend
		}
		b.WriteString(time.Date(year, time.Month(month), 1, 0, 0, 0, 0, time.UTC).Format("2006-01-02"))
		b.WriteString(",")
		b.WriteString(strings.TrimSpace(strings.Join([]string{itoa(val)}, "")))
		b.WriteString("\n")
		month += 3
		if month > 12 {
			month = 1
			year++
		}
	}
	return b.String()
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

// TestRunnerFigure2Recipe executes the full 10-step GEL recipe from
// Figure 2a and checks the resulting chart matches Figure 2b's shape.
func TestRunnerFigure2Recipe(t *testing.T) {
	ctx := skills.NewContext()
	url := "https://fred.stlouisfed.org/graph/fredgraph.csv?id=GDPC1&fq=Quarterly"
	ctx.PutFile(url, gdpCSV())
	executor := dag.NewExecutor(reg, ctx)
	p := NewParser(reg)
	p.Now = time.Date(2023, 6, 18, 0, 0, 0, 0, time.UTC)

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
	r := NewRunner(p, executor, lines)
	steps, err := r.RunAll()
	if err != nil {
		t.Fatalf("recipe failed at line %d: %v", r.PC(), err)
	}
	if len(steps) != 10 {
		t.Fatalf("steps = %d", len(steps))
	}
	final := steps[9].Result
	if len(final.Charts) != 1 {
		t.Fatalf("final chart missing")
	}
	chart := final.Charts[0]
	if len(chart.Series) != 2 {
		t.Fatalf("series = %d, want Actual + Predicted", len(chart.Series))
	}
	names := []string{chart.Series[0].Name, chart.Series[1].Name}
	if names[0] != "Actual" || names[1] != "Predicted" {
		t.Errorf("series names = %v", names)
	}
	// The predicted series extends past the actual one and, since the
	// trend was fit pre-2020 excluding the dip... both series cover the
	// last decade; predicted should have exactly 12 points.
	var predicted, actual int
	for _, s := range chart.Series {
		if s.Name == "Predicted" {
			predicted = len(s.Y)
		} else {
			actual = len(s.Y)
		}
	}
	if predicted != 12 {
		t.Errorf("predicted points = %d, want 12", predicted)
	}
	if actual == 0 {
		t.Error("actual series empty")
	}
}

func TestRunnerStepAndBreakpoints(t *testing.T) {
	ctx := skills.NewContext()
	ctx.Datasets["people"] = dataset.MustNewTable("people",
		dataset.IntColumn("age", []int64{10, 20, 30, 40}, nil),
	)
	executor := dag.NewExecutor(reg, ctx)
	r := NewRunner(NewParser(reg), executor, []string{
		"Use the dataset people",
		"Keep the rows where age > 15",
		"# a comment line",
		"Limit the data to 2 rows",
		"Count the rows",
	})
	if err := r.SetBreakpoint(3, true); err != nil {
		t.Fatal(err)
	}
	if err := r.SetBreakpoint(99, true); err == nil {
		t.Error("breakpoint on missing line should error")
	}
	steps, err := r.Continue()
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 3 { // use, keep, comment — stops before line 3
		t.Fatalf("ran %d steps before breakpoint", len(steps))
	}
	if r.PC() != 3 {
		t.Errorf("pc = %d", r.PC())
	}
	// Inspect intermediate state mid-debug: the filter result.
	if steps[1].Result.Table.NumRows() != 3 {
		t.Errorf("intermediate rows = %d", steps[1].Result.Table.NumRows())
	}
	step, err := r.Step()
	if err != nil {
		t.Fatal(err)
	}
	if step.Result.Table.NumRows() != 2 {
		t.Errorf("after limit rows = %d", step.Result.Table.NumRows())
	}
	rest, err := r.Continue()
	if err != nil {
		t.Fatal(err)
	}
	c, _ := rest[len(rest)-1].Result.Table.Column("rows")
	if c.Value(0).I != 2 {
		t.Errorf("final count = %v", c.Value(0))
	}
	if !r.Done() {
		t.Error("runner should be done")
	}
	if _, err := r.Step(); err == nil {
		t.Error("step past end should error")
	}
}

func TestRunnerFailureMarksStep(t *testing.T) {
	ctx := skills.NewContext()
	ctx.Datasets["d"] = dataset.MustNewTable("d", dataset.IntColumn("x", []int64{1}, nil))
	executor := dag.NewExecutor(reg, ctx)
	r := NewRunner(NewParser(reg), executor, []string{
		"Use the dataset d",
		"Keep the rows where nosuchcolumn > 5",
	})
	if _, err := r.RunAll(); err == nil {
		t.Fatal("expected failure")
	}
	steps := r.Steps()
	if steps[1].State != StepFailed || steps[1].Err == nil {
		t.Errorf("failed step state = %v", steps[1].State)
	}
}

func TestRunnerVersioning(t *testing.T) {
	ctx := skills.NewContext()
	ctx.Datasets["d"] = dataset.MustNewTable("d", dataset.IntColumn("x", []int64{1, 2, 3}, nil))
	executor := dag.NewExecutor(reg, ctx)
	r := NewRunner(NewParser(reg), executor, []string{
		"Use the dataset d",
		"Keep the rows where x > 1", // d v2
		"Keep the rows where x > 2", // d v3
		"Use the dataset d, version 1",
		"Count the rows",
	})
	steps, err := r.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r.Versions("d")); got != 3 {
		t.Errorf("versions of d = %d, want 3", got)
	}
	c, _ := steps[4].Result.Table.Column("rows")
	if c.Value(0).I != 3 { // version 1 has all rows
		t.Errorf("count over v1 = %v", c.Value(0))
	}
	// Out-of-range version errors.
	r2 := NewRunner(NewParser(reg), dag.NewExecutor(reg, ctx), []string{
		"Use the dataset d, version 9",
	})
	if _, err := r2.RunAll(); err == nil {
		t.Error("bad version should error")
	}
}
