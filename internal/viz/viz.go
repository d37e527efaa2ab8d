// Package viz implements DataChat's charting substrate: chart specs, data
// binding from tables, the auto-chart selection behind the Visualize skill
// (Figure 1 shows it producing six charts for one request), and a terminal
// renderer so artifacts are viewable from the console.
package viz

import (
	"fmt"
	"math"
	"slices"
	"time"

	"datachat/internal/dataset"
	"datachat/internal/expr"
	"datachat/internal/sqlengine"
)

// ChartType enumerates supported chart families.
type ChartType int

// The chart families DataChat's Visualize skill emits.
const (
	Bar ChartType = iota
	Line
	Scatter
	Histogram
	Donut
	Violin
	Bubble
	Heatmap
)

// String names the chart type as shown in chart lists ("donut chart …").
func (c ChartType) String() string {
	switch c {
	case Bar:
		return "bar"
	case Line:
		return "line"
	case Scatter:
		return "scatter"
	case Histogram:
		return "histogram"
	case Donut:
		return "donut"
	case Violin:
		return "violin"
	case Bubble:
		return "bubble"
	case Heatmap:
		return "heatmap"
	default:
		return fmt.Sprintf("chart(%d)", int(c))
	}
}

// Spec declares a chart over table columns.
type Spec struct {
	Type  ChartType
	Title string
	// X is the x-axis column (category, numeric, or time).
	X string
	// Y is the y-axis / measure column (empty means count of records).
	Y string
	// GroupBy splits the data into one series per distinct value.
	GroupBy string
	// SizeBy scales bubble sizes (bubble charts).
	SizeBy string
	// ColorBy colors marks by a category (bubble charts).
	ColorBy string
	// Bins is the histogram bin count (0 selects automatically).
	Bins int
}

// Series is one named data series of a built chart.
type Series struct {
	Name string
	// Labels are categorical x labels (bar, donut, violin, bubble rows).
	Labels []string
	// X and Y are numeric coordinates (line, scatter, histogram edges).
	X []float64
	// Y holds the measure per label or per point.
	Y []float64
	// Size holds bubble sizes when the spec asked for them.
	Size []float64
}

// Chart is a built chart: the spec plus the bound data.
type Chart struct {
	Spec   Spec
	Series []Series
	// RowsUsed counts the table rows that contributed (nulls excluded).
	RowsUsed int
}

// maxBins caps a histogram's bin count: above it Build fails rather than
// allocate the edges.
const maxBins = 1000

// Build binds a spec to a table, computing the series data. Each chart is
// one statement over the table's columns (two for a histogram) whose few
// result rows are reshaped here (DESIGN §16).
func Build(t *dataset.Table, spec Spec) (*Chart, error) {
	switch spec.Type {
	case Bar, Donut:
		return buildCategorical(t, spec)
	case Histogram:
		return buildHistogram(t, spec)
	case Line, Scatter:
		return buildXY(t, spec)
	case Violin:
		return buildViolin(t, spec)
	case Bubble, Heatmap:
		return buildGrid(t, spec)
	default:
		return nil, fmt.Errorf("viz: unsupported chart type %v", spec.Type)
	}
}

// query binds the named columns of t, then optional unless it is empty, for
// a statement over them: the i-th bound as sqlengine.Col(i).
func query(t *dataset.Table, names []string, optional string) (*dataset.Table, *sqlengine.SelectStmt, error) {
	if optional != "" {
		names = append(names, optional)
	}
	cols := make([]*dataset.Column, len(names))
	for i, name := range names {
		c, err := t.Column(name)
		if err != nil {
			return nil, nil, err
		}
		cols[i] = c
	}
	return sqlengine.Bind(t.Name(), cols...)
}

// as is the select item e AS name.
func as(e expr.Expr, name string) sqlengine.SelectItem {
	return sqlengine.SelectItem{Expr: e, Alias: name}
}

// agg is the aggregate name over arg, or over every row when arg is nil.
func agg(name string, arg expr.Expr) expr.Expr {
	return &sqlengine.AggCall{Name: name, Arg: arg, Star: arg == nil}
}

// orderBy sorts by the named output columns, ascending.
func orderBy(names ...string) []sqlengine.OrderItem {
	out := make([]sqlengine.OrderItem, len(names))
	for i, name := range names {
		out[i] = sqlengine.OrderItem{Expr: expr.Column(name)}
	}
	return out
}

// isSet is e IS NOT NULL.
func isSet(e expr.Expr) expr.Expr { return &expr.IsNull{Operand: e, Negated: true} }

// series is the label of column i of in, the column groupBy names, each
// label a series; with no groupBy it is name, the one series.
func series(in *dataset.Table, i int, groupBy, name string) expr.Expr {
	if groupBy == "" {
		return expr.Lit(dataset.Str(name))
	}
	return sqlengine.Label(in, i)
}

// numeric reports whether a column's values read as numbers: ints, floats
// and bools (0 and 1), as Value.AsFloat reads them.
func numeric(t dataset.Type) bool { return t.Numeric() || t == dataset.TypeBool }

// numbers reads a result column as float64s — ints, floats and bools as
// Value.AsFloat reads them, times as Unix seconds — a null as 0; ok is
// false, and every value 0, for a column of another type.
func numbers(c *dataset.Column) (out []float64, ok bool) {
	out = make([]float64, c.Len())
	if ints, _, ok := c.Ints(); ok {
		for i, v := range ints {
			out[i] = float64(v)
		}
	} else if fs, _, ok := c.FloatVals(); ok {
		copy(out, fs)
	} else if bs, _, ok := c.Bools(); ok {
		for i, b := range bs {
			if b {
				out[i] = 1
			}
		}
	} else if nanos, _, ok := c.Times(); ok {
		for i, ns := range nanos {
			out[i] = float64(time.Unix(0, ns).Unix())
		}
	} else {
		return out, false
	}
	for i, null := range c.Nulls() {
		if null {
			out[i] = 0
		}
	}
	return out, true
}

// runs calls f with the bounds of each run of equal adjacent labels.
func runs(labels []string, f func(from, to int)) {
	for from := 0; from < len(labels); {
		to := from + 1
		for to < len(labels) && labels[to] == labels[from] {
			to++
		}
		f(from, to)
		from = to
	}
}

// buildCategorical aggregates a measure (its SUM) or the record count per
// label of X, labels in order.
func buildCategorical(t *dataset.Table, spec Spec) (*Chart, error) {
	in, stmt, err := query(t, []string{spec.X}, spec.Y)
	if err != nil {
		return nil, err
	}
	label := sqlengine.Label(in, 0)
	measure, count := agg("COUNT", nil), agg("COUNT", nil)
	if spec.Y != "" {
		measure, count = agg("SUM", sqlengine.Col(1)), agg("COUNT", sqlengine.Col(1))
	}
	stmt.Items = []sqlengine.SelectItem{as(label, "l"), as(measure, "m"), as(count, "n")}
	stmt.GroupBy = []expr.Expr{label}
	stmt.OrderBy = orderBy("l")
	g, err := sqlengine.ExecOn(in, stmt)
	if err != nil {
		return nil, err
	}
	cols := g.Columns()
	labels, _, _ := cols[0].Strs()
	s := Series{Name: spec.X, Labels: labels}
	s.Y, _ = numbers(cols[1]) // a label whose measures are all null sums to 0
	counts, _ := numbers(cols[2])
	used := 0
	for _, n := range counts {
		used += int(n)
	}
	return &Chart{Spec: spec, Series: []Series{s}, RowsUsed: used}, nil
}

// buildHistogram counts X's finite values in equal-width bins between their
// MIN and MAX: one statement finds those, a second groups by bin.
func buildHistogram(t *dataset.Table, spec Spec) (*Chart, error) {
	if spec.Bins > maxBins {
		return nil, fmt.Errorf("viz: a histogram has at most %d bins, got %d", maxBins, spec.Bins)
	}
	in, stmt, err := query(t, []string{spec.X}, "")
	if err != nil {
		return nil, err
	}
	x := sqlengine.Col(0)
	noValues := fmt.Errorf("viz: histogram over %q has no numeric values", spec.X)
	if !numeric(in.Columns()[0].Type()) {
		return nil, noValues
	}
	// ±Inf and NaN fail both comparisons, so they are skipped like nulls.
	stmt.Where = expr.Bin(expr.OpAnd,
		expr.Bin(expr.OpGt, x, expr.Lit(dataset.Float(math.Inf(-1)))),
		expr.Bin(expr.OpLt, x, expr.Lit(dataset.Float(math.Inf(1)))))
	stmt.Items = []sqlengine.SelectItem{as(agg("MIN", x), "lo"), as(agg("MAX", x), "hi"), as(agg("COUNT", x), "n")}
	g, err := sqlengine.ExecOn(in, stmt)
	if err != nil {
		return nil, err
	}
	bounds := g.Row(0)
	n := int(bounds[2].I)
	if n == 0 {
		return nil, noValues
	}
	lo, _ := bounds[0].AsFloat()
	hi, _ := bounds[1].AsFloat()
	bins := spec.Bins
	if bins <= 0 {
		bins = int(math.Ceil(math.Sqrt(float64(n))))
		if bins > 20 {
			bins = 20
		}
		if bins < 1 {
			bins = 1
		}
	}
	width := (hi - lo) / float64(bins)
	if width == 0 {
		width = 1
	}
	bin := expr.Func("FLOOR", expr.Bin(expr.OpDiv,
		expr.Bin(expr.OpSub, x, expr.Lit(dataset.Float(lo))), expr.Lit(dataset.Float(width))))
	stmt.Items = []sqlengine.SelectItem{as(bin, "b"), as(agg("COUNT", nil), "n")}
	stmt.GroupBy = []expr.Expr{bin}
	if g, err = sqlengine.ExecOn(in, stmt); err != nil {
		return nil, err
	}
	at, _ := numbers(g.Columns()[0])
	counts, _ := numbers(g.Columns()[1])
	s := Series{Name: spec.X, X: make([]float64, bins), Y: make([]float64, bins), Labels: make([]string, bins)}
	for i, v := range at {
		b := bins - 1 // MAX's own bin, and any bin past it
		if v < float64(bins) {
			b = int(v)
		}
		s.Y[b] += counts[i]
	}
	for b := range s.X {
		s.X[b] = lo + width*float64(b)
		s.Labels[b] = fmt.Sprintf("[%.4g, %.4g)", s.X[b], s.X[b]+width)
	}
	return &Chart{Spec: spec, Series: []Series{s}, RowsUsed: n}, nil
}

// buildXY plots the rows where X and Y are both set, one series per label of
// GroupBy in label order (or one named Y); a line's points go in X order, a
// scatter's in row order.
func buildXY(t *dataset.Table, spec Spec) (*Chart, error) {
	in, stmt, err := query(t, []string{spec.X, spec.Y}, spec.GroupBy)
	if err != nil {
		return nil, err
	}
	x, y := sqlengine.Col(0), sqlengine.Col(1)
	stmt.Items = []sqlengine.SelectItem{as(x, "x"), as(y, "y"), as(sqlengine.Label(in, 0), "l"),
		as(series(in, 2, spec.GroupBy, spec.Y), "s")}
	stmt.Where = expr.Bin(expr.OpAnd, isSet(x), isSet(y))
	stmt.OrderBy = orderBy("s")
	if spec.Type == Line {
		stmt.OrderBy = orderBy("s", "x")
	}
	g, err := sqlengine.ExecOn(in, stmt)
	if err != nil {
		return nil, err
	}
	cols := g.Columns()
	xs, okX := numbers(cols[0])
	ys, _ := numbers(cols[1])
	if !okX || !numeric(cols[1].Type()) || g.NumRows() == 0 {
		return nil, fmt.Errorf("viz: no plottable rows for %s vs %s", spec.X, spec.Y)
	}
	labels, _, _ := cols[2].Strs()
	names, _, _ := cols[3].Strs()
	chart := &Chart{Spec: spec, RowsUsed: g.NumRows()}
	runs(names, func(from, to int) {
		chart.Series = append(chart.Series, Series{Name: names[from],
			X: xs[from:to:to], Y: ys[from:to:to], Labels: labels[from:to:to]})
	})
	return chart, nil
}

// buildViolin summarizes the distribution of numeric X per label of GroupBy
// (or overall): min, q1, median, q3, max per series, in label order.
func buildViolin(t *dataset.Table, spec Spec) (*Chart, error) {
	in, stmt, err := query(t, []string{spec.X}, spec.GroupBy)
	if err != nil {
		return nil, err
	}
	x := sqlengine.Col(0)
	stmt.Items = []sqlengine.SelectItem{as(x, "x"), as(series(in, 1, spec.GroupBy, spec.X), "s")}
	stmt.Where = isSet(x)
	stmt.OrderBy = orderBy("s", "x")
	g, err := sqlengine.ExecOn(in, stmt)
	if err != nil {
		return nil, err
	}
	xs, _ := numbers(g.Columns()[0])
	if !numeric(g.Columns()[0].Type()) || len(xs) == 0 {
		return nil, fmt.Errorf("viz: violin over %q has no numeric values", spec.X)
	}
	names, _, _ := g.Columns()[1].Strs()
	chart := &Chart{Spec: spec, RowsUsed: len(xs)}
	runs(names, func(from, to int) {
		sorted := xs[from:to]
		chart.Series = append(chart.Series, Series{
			Name:   names[from],
			Labels: []string{"min", "q1", "median", "q3", "max"},
			Y: []float64{
				sorted[0],
				quantileSorted(sorted, 0.25),
				quantileSorted(sorted, 0.5),
				quantileSorted(sorted, 0.75),
				sorted[len(sorted)-1],
			},
		})
	})
	return chart, nil
}

// buildGrid counts rows per (X label, Y label) for bubble and heatmap
// charts: one series per X label, Y holds the record count per Y label
// (every Y label of the table, in order), Size the SUM of SizeBy or the
// count (bubble size in Figure 1).
func buildGrid(t *dataset.Table, spec Spec) (*Chart, error) {
	in, stmt, err := query(t, []string{spec.X, spec.Y}, spec.SizeBy)
	if err != nil {
		return nil, err
	}
	xl, yl := sqlengine.Label(in, 0), sqlengine.Label(in, 1)
	stmt.Items = []sqlengine.SelectItem{as(xl, "x"), as(yl, "y"), as(agg("COUNT", nil), "n")}
	if spec.SizeBy != "" {
		stmt.Items = append(stmt.Items, as(agg("SUM", sqlengine.Col(2)), "size"))
	}
	stmt.GroupBy = []expr.Expr{xl, yl}
	stmt.OrderBy = orderBy("x", "y")
	g, err := sqlengine.ExecOn(in, stmt)
	if err != nil {
		return nil, err
	}
	cols := g.Columns()
	xs, _, _ := cols[0].Strs()
	ys, _, _ := cols[1].Strs()
	counts, _ := numbers(cols[2])
	sizes := counts
	if spec.SizeBy != "" {
		sizes, _ = numbers(cols[3])
	}
	yLabels := slices.Clone(ys)
	slices.Sort(yLabels)
	yLabels = slices.Compact(yLabels)
	chart := &Chart{Spec: spec, RowsUsed: t.NumRows()}
	runs(xs, func(from, to int) {
		s := Series{Name: xs[from], Labels: slices.Clone(yLabels),
			Y: make([]float64, len(yLabels)), Size: make([]float64, len(yLabels))}
		j := 0
		for r := from; r < to; r++ { // this X's Y labels, in order
			for yLabels[j] != ys[r] {
				j++
			}
			s.Y[j], s.Size[j] = counts[r], sizes[r]
		}
		chart.Series = append(chart.Series, s)
	})
	return chart, nil
}

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Describe returns the one-line summary the chat pane shows for a chart
// ("donut chart using the column at_fault", "violin chart with the x-axis
// party_age", …).
func (c *Chart) Describe() string {
	spec := c.Spec
	switch spec.Type {
	case Donut, Bar:
		return fmt.Sprintf("%s chart using the column %s", spec.Type, spec.X)
	case Histogram:
		return fmt.Sprintf("histogram with the x-axis %s", spec.X)
	case Violin:
		if spec.GroupBy != "" {
			return fmt.Sprintf("violin chart with the x-axis %s, grouped by %s", spec.X, spec.GroupBy)
		}
		return fmt.Sprintf("violin chart with the x-axis %s", spec.X)
	case Bubble:
		extra := ""
		if spec.SizeBy != "" {
			extra += ", sized using: " + spec.SizeBy
		}
		if spec.ColorBy != "" {
			extra += ", colored using: " + spec.ColorBy
		}
		return fmt.Sprintf("bubble chart of %s vs. %s%s", spec.X, spec.Y, extra)
	case Heatmap:
		return fmt.Sprintf("heatmap of %s vs. %s", spec.X, spec.Y)
	case Line:
		if spec.GroupBy != "" {
			return fmt.Sprintf("line chart with the x-axis %s, the y-axis %s, for each %s", spec.X, spec.Y, spec.GroupBy)
		}
		return fmt.Sprintf("line chart with the x-axis %s, the y-axis %s", spec.X, spec.Y)
	default:
		return fmt.Sprintf("%s chart of %s vs. %s", spec.Type, spec.X, spec.Y)
	}
}

// columnKind classifies a column for auto-chart selection.
type columnKind int

const (
	kindCategorical columnKind = iota
	kindNumeric
	kindTemporal
)

func classify(c *dataset.Column) columnKind {
	switch c.Type() {
	case dataset.TypeInt, dataset.TypeFloat:
		// Low-cardinality ints behave like categories.
		if ints, nulls, ok := c.Ints(); ok {
			distinct := map[int64]bool{}
			for i := 0; i < len(ints) && len(distinct) <= 12; i++ {
				if nulls == nil || !nulls[i] {
					distinct[ints[i]] = true
				}
			}
			if len(distinct) <= 12 {
				return kindCategorical
			}
		}
		return kindNumeric
	case dataset.TypeTime:
		return kindTemporal
	default:
		return kindCategorical
	}
}

// AutoCharts implements the Visualize skill's chart fan-out: given a KPI
// column and grouping columns it returns the chart specs DataChat would
// offer — the behaviour in Figure 1 where "Visualize at_fault by party_age,
// party_sex, cellphone_in_use" yields six charts.
func AutoCharts(t *dataset.Table, kpi string, by []string) ([]Spec, error) {
	kpiCol, err := t.Column(kpi)
	if err != nil {
		return nil, err
	}
	var specs []Spec
	// 1. The KPI alone: donut for categories, histogram for numbers.
	switch classify(kpiCol) {
	case kindNumeric:
		specs = append(specs, Spec{Type: Histogram, X: kpi, Title: "Distribution of " + kpi})
	default:
		specs = append(specs, Spec{Type: Donut, X: kpi, Title: "Share of " + kpi})
	}
	// 2. KPI against each grouping column.
	for _, g := range by {
		gCol, err := t.Column(g)
		if err != nil {
			return nil, err
		}
		switch {
		case classify(gCol) == kindNumeric && classify(kpiCol) == kindCategorical:
			specs = append(specs, Spec{Type: Violin, X: g, GroupBy: kpi,
				Title: fmt.Sprintf("%s by %s", g, kpi)})
		case classify(gCol) == kindTemporal:
			specs = append(specs, Spec{Type: Line, X: g, Y: kpi,
				Title: fmt.Sprintf("%s over %s", kpi, g)})
		case classify(kpiCol) == kindNumeric:
			specs = append(specs, Spec{Type: Bar, X: g, Y: kpi,
				Title: fmt.Sprintf("%s by %s", kpi, g)})
		default:
			specs = append(specs, Spec{Type: Donut, X: g, GroupBy: kpi,
				Title: fmt.Sprintf("%s split by %s", kpi, g)})
		}
	}
	// 3. Pairwise grouping columns as bubble grids, colored by the KPI.
	// The fan-out is capped at six charts, matching the Figure 1 behaviour
	// ("Here are 6 charts to visualize the data").
	const maxCharts = 6
	for i := 0; i < len(by) && len(specs) < maxCharts; i++ {
		for j := i + 1; j < len(by) && len(specs) < maxCharts; j++ {
			specs = append(specs, Spec{Type: Bubble, X: by[i], Y: by[j], ColorBy: kpi,
				Title: fmt.Sprintf("%s vs. %s, colored using: %s", by[i], by[j], kpi)})
		}
	}
	if len(specs) > maxCharts {
		specs = specs[:maxCharts]
	}
	return specs, nil
}
