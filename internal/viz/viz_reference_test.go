package viz

// The chart builders as they were before each chart became a statement
// (DESIGN §16), frozen as the oracle TestBuildMatchesReference diffs Build
// against. Each walks the table's boxed cells with its own maps. Do not
// edit: the reference is only useful while it stays what it was.

import (
	"fmt"
	"math"
	"sort"

	"datachat/internal/dataset"
)

// refBuild binds a spec to a table, computing the series data.
func refBuild(t *dataset.Table, spec Spec) (*Chart, error) {
	switch spec.Type {
	case Bar, Donut:
		return refBuildCategorical(t, spec)
	case Histogram:
		return refBuildHistogram(t, spec)
	case Line, Scatter:
		return refBuildXY(t, spec)
	case Violin:
		return refBuildViolin(t, spec)
	case Bubble, Heatmap:
		return refBuildGrid(t, spec)
	default:
		return nil, fmt.Errorf("viz: unsupported chart type %v", spec.Type)
	}
}

// refBuildCategorical aggregates a measure (or record count) per category of X.
func refBuildCategorical(t *dataset.Table, spec Spec) (*Chart, error) {
	xCol, err := t.Column(spec.X)
	if err != nil {
		return nil, err
	}
	var yCol *dataset.Column
	if spec.Y != "" {
		if yCol, err = t.Column(spec.Y); err != nil {
			return nil, err
		}
	}
	sums := map[string]float64{}
	var order []string
	used := 0
	for i := 0; i < xCol.Len(); i++ {
		label := xCol.Value(i).String()
		if _, seen := sums[label]; !seen {
			order = append(order, label)
		}
		if yCol == nil {
			sums[label]++
			used++
			continue
		}
		if f, ok := yCol.Value(i).AsFloat(); ok {
			sums[label] += f
			used++
		} else if _, seen := sums[label]; !seen {
			sums[label] = 0
		}
	}
	sort.Strings(order)
	s := Series{Name: spec.X}
	for _, label := range order {
		s.Labels = append(s.Labels, label)
		s.Y = append(s.Y, sums[label])
	}
	return &Chart{Spec: spec, Series: []Series{s}, RowsUsed: used}, nil
}

func refBuildHistogram(t *dataset.Table, spec Spec) (*Chart, error) {
	xCol, err := t.Column(spec.X)
	if err != nil {
		return nil, err
	}
	vals, valid := xCol.Floats()
	var xs []float64
	for i, v := range vals {
		if valid[i] {
			xs = append(xs, v)
		}
	}
	if len(xs) == 0 {
		return nil, fmt.Errorf("viz: histogram over %q has no numeric values", spec.X)
	}
	bins := spec.Bins
	if bins <= 0 {
		bins = int(math.Ceil(math.Sqrt(float64(len(xs)))))
		if bins > 20 {
			bins = 20
		}
		if bins < 1 {
			bins = 1
		}
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	width := (hi - lo) / float64(bins)
	if width == 0 {
		width = 1
	}
	counts := make([]float64, bins)
	edges := make([]float64, bins)
	for b := range edges {
		edges[b] = lo + width*float64(b)
	}
	for _, x := range xs {
		b := int((x - lo) / width)
		if b >= bins {
			b = bins - 1
		}
		counts[b]++
	}
	s := Series{Name: spec.X, X: edges, Y: counts}
	for b := range edges {
		s.Labels = append(s.Labels, fmt.Sprintf("[%.4g, %.4g)", edges[b], edges[b]+width))
	}
	return &Chart{Spec: spec, Series: []Series{s}, RowsUsed: len(xs)}, nil
}

func refBuildXY(t *dataset.Table, spec Spec) (*Chart, error) {
	xCol, err := t.Column(spec.X)
	if err != nil {
		return nil, err
	}
	yCol, err := t.Column(spec.Y)
	if err != nil {
		return nil, err
	}
	var groupCol *dataset.Column
	if spec.GroupBy != "" {
		if groupCol, err = t.Column(spec.GroupBy); err != nil {
			return nil, err
		}
	}
	bySeries := map[string]*Series{}
	var order []string
	used := 0
	for i := 0; i < xCol.Len(); i++ {
		x, okX := refNumericOrTime(xCol.Value(i))
		y, okY := yCol.Value(i).AsFloat()
		if !okX || !okY {
			continue
		}
		name := spec.Y
		if groupCol != nil {
			name = groupCol.Value(i).String()
		}
		s, seen := bySeries[name]
		if !seen {
			s = &Series{Name: name}
			bySeries[name] = s
			order = append(order, name)
		}
		s.X = append(s.X, x)
		s.Y = append(s.Y, y)
		s.Labels = append(s.Labels, xCol.Value(i).String())
		used++
	}
	sort.Strings(order)
	chart := &Chart{Spec: spec, RowsUsed: used}
	for _, name := range order {
		s := bySeries[name]
		if spec.Type == Line {
			refSortSeriesByX(s)
		}
		chart.Series = append(chart.Series, *s)
	}
	if len(chart.Series) == 0 {
		return nil, fmt.Errorf("viz: no plottable rows for %s vs %s", spec.X, spec.Y)
	}
	return chart, nil
}

func refSortSeriesByX(s *Series) {
	idx := make([]int, len(s.X))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return s.X[idx[a]] < s.X[idx[b]] })
	x := make([]float64, len(idx))
	y := make([]float64, len(idx))
	labels := make([]string, len(idx))
	for i, j := range idx {
		x[i], y[i], labels[i] = s.X[j], s.Y[j], s.Labels[j]
	}
	s.X, s.Y, s.Labels = x, y, labels
}

func refNumericOrTime(v dataset.Value) (float64, bool) {
	if v.Type == dataset.TypeTime {
		return float64(v.T.Unix()), true
	}
	return v.AsFloat()
}

// refBuildViolin summarizes the distribution of numeric X per category of
// GroupBy (or overall): min, q1, median, q3, max per series.
func refBuildViolin(t *dataset.Table, spec Spec) (*Chart, error) {
	xCol, err := t.Column(spec.X)
	if err != nil {
		return nil, err
	}
	var groupCol *dataset.Column
	if spec.GroupBy != "" {
		if groupCol, err = t.Column(spec.GroupBy); err != nil {
			return nil, err
		}
	}
	groups := map[string][]float64{}
	var order []string
	used := 0
	for i := 0; i < xCol.Len(); i++ {
		v, ok := xCol.Value(i).AsFloat()
		if !ok {
			continue
		}
		name := spec.X
		if groupCol != nil {
			name = groupCol.Value(i).String()
		}
		if _, seen := groups[name]; !seen {
			order = append(order, name)
		}
		groups[name] = append(groups[name], v)
		used++
	}
	if used == 0 {
		return nil, fmt.Errorf("viz: violin over %q has no numeric values", spec.X)
	}
	sort.Strings(order)
	chart := &Chart{Spec: spec, RowsUsed: used}
	for _, name := range order {
		xs := groups[name]
		sort.Float64s(xs)
		s := Series{
			Name:   name,
			Labels: []string{"min", "q1", "median", "q3", "max"},
			Y: []float64{
				xs[0],
				refQuantileSorted(xs, 0.25),
				refQuantileSorted(xs, 0.5),
				refQuantileSorted(xs, 0.75),
				xs[len(xs)-1],
			},
		}
		chart.Series = append(chart.Series, s)
	}
	return chart, nil
}

// refBuildGrid bins rows by (X category, Y category) for bubble and heatmap
// charts: one series per X category, Y holds the measure per Y category,
// Size the record count (bubble size in Figure 1).
func refBuildGrid(t *dataset.Table, spec Spec) (*Chart, error) {
	xCol, err := t.Column(spec.X)
	if err != nil {
		return nil, err
	}
	yCol, err := t.Column(spec.Y)
	if err != nil {
		return nil, err
	}
	var sizeCol *dataset.Column
	if spec.SizeBy != "" {
		if sizeCol, err = t.Column(spec.SizeBy); err != nil {
			return nil, err
		}
	}
	type cell struct {
		count float64
		size  float64
	}
	cells := map[[2]string]*cell{}
	xSet, ySet := map[string]bool{}, map[string]bool{}
	used := 0
	for i := 0; i < xCol.Len(); i++ {
		xv := xCol.Value(i).String()
		yv := yCol.Value(i).String()
		key := [2]string{xv, yv}
		c, ok := cells[key]
		if !ok {
			c = &cell{}
			cells[key] = c
		}
		c.count++
		if sizeCol != nil {
			if f, ok := sizeCol.Value(i).AsFloat(); ok {
				c.size += f
			}
		} else {
			c.size++
		}
		xSet[xv] = true
		ySet[yv] = true
		used++
	}
	xs := refSortedKeys(xSet)
	ys := refSortedKeys(ySet)
	chart := &Chart{Spec: spec, RowsUsed: used}
	for _, xv := range xs {
		s := Series{Name: xv}
		for _, yv := range ys {
			s.Labels = append(s.Labels, yv)
			if c, ok := cells[[2]string{xv, yv}]; ok {
				s.Y = append(s.Y, c.count)
				s.Size = append(s.Size, c.size)
			} else {
				s.Y = append(s.Y, 0)
				s.Size = append(s.Size, 0)
			}
		}
		chart.Series = append(chart.Series, s)
	}
	return chart, nil
}

func refSortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func refQuantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
