package viz

import (
	"math"
	"strings"
	"testing"
	"time"

	"datachat/internal/dataset"
)

func collisionsLike(t *testing.T) *dataset.Table {
	t.Helper()
	n := 60
	atFault := make([]string, n)
	ages := make([]int64, n)
	sexes := make([]string, n)
	phone := make([]string, n)
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			atFault[i] = "at fault"
		} else {
			atFault[i] = "not at fault"
		}
		ages[i] = int64(18 + (i*7)%60)
		if i%2 == 0 {
			sexes[i] = "male"
		} else {
			sexes[i] = "female"
		}
		if i%5 == 0 {
			phone[i] = "in use"
		} else {
			phone[i] = "not in use"
		}
	}
	return dataset.MustNewTable("parties",
		dataset.StringColumn("at_fault", atFault, nil),
		dataset.IntColumn("party_age", ages, nil),
		dataset.StringColumn("party_sex", sexes, nil),
		dataset.StringColumn("cellphone_in_use", phone, nil),
	)
}

func TestBuildDonut(t *testing.T) {
	tbl := collisionsLike(t)
	chart, err := Build(tbl, Spec{Type: Donut, X: "at_fault"})
	if err != nil {
		t.Fatal(err)
	}
	s := chart.Series[0]
	if len(s.Labels) != 2 {
		t.Fatalf("labels = %v", s.Labels)
	}
	total := s.Y[0] + s.Y[1]
	if total != 60 {
		t.Errorf("total count = %v", total)
	}
	if !strings.Contains(chart.Describe(), "donut chart using the column at_fault") {
		t.Errorf("describe = %s", chart.Describe())
	}
}

func TestBuildBarWithMeasure(t *testing.T) {
	tbl := dataset.MustNewTable("sales",
		dataset.StringColumn("region", []string{"east", "west", "east"}, nil),
		dataset.FloatColumn("revenue", []float64{10, 20, 5}, nil),
	)
	chart, err := Build(tbl, Spec{Type: Bar, X: "region", Y: "revenue"})
	if err != nil {
		t.Fatal(err)
	}
	s := chart.Series[0]
	if s.Labels[0] != "east" || s.Y[0] != 15 {
		t.Errorf("east sum = %v", s.Y)
	}
}

func TestBuildHistogram(t *testing.T) {
	tbl := collisionsLike(t)
	chart, err := Build(tbl, Spec{Type: Histogram, X: "party_age", Bins: 5})
	if err != nil {
		t.Fatal(err)
	}
	s := chart.Series[0]
	if len(s.Y) != 5 {
		t.Fatalf("bins = %d", len(s.Y))
	}
	total := 0.0
	for _, c := range s.Y {
		total += c
	}
	if total != 60 {
		t.Errorf("histogram total = %v", total)
	}
}

func TestBuildLineSortsAndGroups(t *testing.T) {
	d := func(day int) time.Time { return time.Date(2020, 1, day, 0, 0, 0, 0, time.UTC) }
	tbl := dataset.MustNewTable("ts",
		dataset.TimeColumn("date", []time.Time{d(3), d(1), d(2), d(1), d(2), d(3)}, nil),
		dataset.FloatColumn("v", []float64{30, 10, 20, 1, 2, 3}, nil),
		dataset.StringColumn("kind", []string{"a", "a", "a", "b", "b", "b"}, nil),
	)
	chart, err := Build(tbl, Spec{Type: Line, X: "date", Y: "v", GroupBy: "kind"})
	if err != nil {
		t.Fatal(err)
	}
	if len(chart.Series) != 2 {
		t.Fatalf("series = %d", len(chart.Series))
	}
	a := chart.Series[0]
	if a.Name != "a" || a.Y[0] != 10 || a.Y[2] != 30 {
		t.Errorf("series a not sorted by x: %v", a.Y)
	}
}

func TestBuildViolin(t *testing.T) {
	tbl := collisionsLike(t)
	chart, err := Build(tbl, Spec{Type: Violin, X: "party_age", GroupBy: "at_fault"})
	if err != nil {
		t.Fatal(err)
	}
	if len(chart.Series) != 2 {
		t.Fatalf("series = %d", len(chart.Series))
	}
	for _, s := range chart.Series {
		if len(s.Y) != 5 {
			t.Fatalf("quantiles = %v", s.Y)
		}
		if !(s.Y[0] <= s.Y[1] && s.Y[1] <= s.Y[2] && s.Y[2] <= s.Y[3] && s.Y[3] <= s.Y[4]) {
			t.Errorf("quantiles not ordered: %v", s.Y)
		}
	}
}

func TestBuildBubbleGrid(t *testing.T) {
	tbl := collisionsLike(t)
	chart, err := Build(tbl, Spec{Type: Bubble, X: "party_sex", Y: "cellphone_in_use", ColorBy: "at_fault"})
	if err != nil {
		t.Fatal(err)
	}
	if len(chart.Series) != 2 { // male, female
		t.Fatalf("series = %d", len(chart.Series))
	}
	total := 0.0
	for _, s := range chart.Series {
		for _, y := range s.Y {
			total += y
		}
	}
	if total != 60 {
		t.Errorf("grid total = %v", total)
	}
}

func TestBuildErrors(t *testing.T) {
	tbl := collisionsLike(t)
	if _, err := Build(tbl, Spec{Type: Donut, X: "missing"}); err == nil {
		t.Error("missing column should error")
	}
	if _, err := Build(tbl, Spec{Type: Histogram, X: "at_fault"}); err == nil {
		t.Error("histogram over strings should error")
	}
	if _, err := Build(tbl, Spec{Type: ChartType(99), X: "at_fault"}); err == nil {
		t.Error("unknown type should error")
	}
	if _, err := Build(tbl, Spec{Type: Line, X: "at_fault", Y: "party_sex"}); err == nil {
		t.Error("line over two string columns should error")
	}
}

func TestAutoChartsFigure1(t *testing.T) {
	// Figure 1: "Visualize at_fault by party_age, party_sex,
	// cellphone_in_use" produces 6 charts, mixing donut, violin, and bubble.
	tbl := collisionsLike(t)
	specs, err := AutoCharts(tbl, "at_fault", []string{"party_age", "party_sex", "cellphone_in_use"})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) < 6 {
		t.Fatalf("specs = %d, want >= 6", len(specs))
	}
	kinds := map[ChartType]int{}
	for _, s := range specs {
		kinds[s.Type]++
		if _, err := Build(tbl, s); err != nil {
			t.Errorf("auto spec %+v failed to build: %v", s, err)
		}
	}
	if kinds[Donut] == 0 {
		t.Error("expected a donut chart for the categorical KPI")
	}
	if kinds[Violin] == 0 {
		t.Error("expected a violin chart for numeric-by-categorical")
	}
	if kinds[Bubble] == 0 {
		t.Error("expected bubble charts for category pairs")
	}
}

func TestAutoChartsNumericKPI(t *testing.T) {
	tbl := dataset.MustNewTable("m",
		dataset.FloatColumn("kpi", []float64{1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 8.5, 9.5, 10.5, 11.5, 12.5, 13.5}, nil),
		dataset.StringColumn("g", []string{"a", "b", "a", "b", "a", "b", "a", "b", "a", "b", "a", "b", "a"}, nil),
	)
	specs, err := AutoCharts(tbl, "kpi", []string{"g"})
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].Type != Histogram {
		t.Errorf("numeric KPI should start with a histogram, got %v", specs[0].Type)
	}
	if specs[1].Type != Bar {
		t.Errorf("numeric KPI by category should be a bar, got %v", specs[1].Type)
	}
}

func TestAutoChartsErrors(t *testing.T) {
	tbl := collisionsLike(t)
	if _, err := AutoCharts(tbl, "missing", nil); err == nil {
		t.Error("missing KPI should error")
	}
	if _, err := AutoCharts(tbl, "at_fault", []string{"missing"}); err == nil {
		t.Error("missing group column should error")
	}
}

func TestRenderAllTypes(t *testing.T) {
	tbl := collisionsLike(t)
	specs := []Spec{
		{Type: Donut, X: "at_fault"},
		{Type: Bar, X: "party_sex"},
		{Type: Histogram, X: "party_age", Bins: 4},
		{Type: Violin, X: "party_age", GroupBy: "at_fault"},
		{Type: Bubble, X: "party_sex", Y: "cellphone_in_use"},
	}
	for _, spec := range specs {
		chart, err := Build(tbl, spec)
		if err != nil {
			t.Fatalf("build %v: %v", spec.Type, err)
		}
		out := Render(chart)
		if len(out) < 20 {
			t.Errorf("render %v too short: %q", spec.Type, out)
		}
		if !strings.Contains(out, "=") {
			t.Errorf("render %v missing title underline", spec.Type)
		}
	}
}

func TestRenderLine(t *testing.T) {
	tbl := dataset.MustNewTable("ts",
		dataset.IntColumn("x", []int64{0, 1, 2, 3}, nil),
		dataset.FloatColumn("y", []float64{0, 1, 4, 9}, nil),
		dataset.StringColumn("k", []string{"a", "a", "b", "b"}, nil),
	)
	chart, err := Build(tbl, Spec{Type: Line, X: "x", Y: "y", GroupBy: "k", Title: "squares"})
	if err != nil {
		t.Fatal(err)
	}
	out := Render(chart)
	if !strings.Contains(out, "squares") || !strings.Contains(out, "legend:") {
		t.Errorf("line render missing parts:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Errorf("line render missing series marks:\n%s", out)
	}
}

func TestChartTypeStrings(t *testing.T) {
	for ct, want := range map[ChartType]string{
		Bar: "bar", Line: "line", Donut: "donut", Violin: "violin",
		Bubble: "bubble", Heatmap: "heatmap", Histogram: "histogram", Scatter: "scatter",
	} {
		if ct.String() != want {
			t.Errorf("%d.String() = %s", int(ct), ct.String())
		}
	}
}

func TestHistogramSkipsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		tbl := dataset.MustNewTable("t", dataset.FloatColumn("v", []float64{1, 2, bad, 0}, []bool{false, false, false, true}))
		chart, err := Build(tbl, Spec{Type: Histogram, X: "v", Bins: 2})
		if err != nil {
			t.Fatalf("%v: %v", bad, err)
		}
		s := chart.Series[0]
		if chart.RowsUsed != 2 || s.X[0] != 1 || s.X[1] != 1.5 || s.Y[0] != 1 || s.Y[1] != 1 {
			t.Errorf("%v: rows used %d, edges %v, counts %v", bad, chart.RowsUsed, s.X, s.Y)
		}
	}
	only := dataset.MustNewTable("t", dataset.FloatColumn("v", []float64{math.NaN(), math.Inf(1)}, nil))
	if _, err := Build(only, Spec{Type: Histogram, X: "v"}); err == nil {
		t.Error("a histogram of no finite value should fail")
	}
}

func TestHistogramBinsCap(t *testing.T) {
	tbl := dataset.MustNewTable("t", dataset.IntColumn("v", []int64{1, 2, 3}, nil))
	if _, err := Build(tbl, Spec{Type: Histogram, X: "v", Bins: maxBins}); err != nil {
		t.Errorf("%d bins: %v", maxBins, err)
	}
	if _, err := Build(tbl, Spec{Type: Histogram, X: "v", Bins: maxBins + 1}); err == nil || !strings.Contains(err.Error(), "at most") {
		t.Errorf("%d bins: err = %v", maxBins+1, err)
	}
}
