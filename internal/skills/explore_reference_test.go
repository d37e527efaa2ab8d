package skills

// Describe, TopValues' counting loop and Pivot's labels as they were before
// each became one statement (DESIGN §16), frozen as the oracles
// TestExploreMatchesReference diffs the skills against. Do not edit: a
// reference is only useful while it stays what it was.

import (
	"math"
	"sort"

	"datachat/internal/dataset"
)

// refDescribe builds the DescribeColumn/DescribeDataset summary table.
func refDescribe(name string, cols []*dataset.Column) (*dataset.Table, error) {
	colName := dataset.NewColumn("column", dataset.TypeString)
	typeCol := dataset.NewColumn("type", dataset.TypeString)
	countCol := dataset.NewColumn("count", dataset.TypeInt)
	nullCol := dataset.NewColumn("nulls", dataset.TypeInt)
	distinctCol := dataset.NewColumn("distinct", dataset.TypeInt)
	minCol := dataset.NewColumn("min", dataset.TypeString)
	maxCol := dataset.NewColumn("max", dataset.TypeString)
	meanCol := dataset.NewColumn("mean", dataset.TypeFloat)
	stddevCol := dataset.NewColumn("stddev", dataset.TypeFloat)
	for _, c := range cols {
		colName.Append(dataset.Str(c.Name()))
		typeCol.Append(dataset.Str(c.Type().String()))
		countCol.Append(dataset.Int(int64(c.Len())))
		nullCol.Append(dataset.Int(int64(c.NullCount())))
		distinct := map[string]bool{}
		var minV, maxV dataset.Value
		var sum, sumSq float64
		numeric := 0
		for i := 0; i < c.Len(); i++ {
			v := c.Value(i)
			if v.IsNull() {
				continue
			}
			distinct[v.String()] = true
			if minV.IsNull() || dataset.Compare(v, minV) < 0 {
				minV = v
			}
			if maxV.IsNull() || dataset.Compare(v, maxV) > 0 {
				maxV = v
			}
			if f, ok := v.AsFloat(); ok && c.Type().Numeric() {
				sum += f
				sumSq += f * f
				numeric++
			}
		}
		distinctCol.Append(dataset.Int(int64(len(distinct))))
		if minV.IsNull() {
			minCol.Append(dataset.Null)
			maxCol.Append(dataset.Null)
		} else {
			minCol.Append(dataset.Str(minV.String()))
			maxCol.Append(dataset.Str(maxV.String()))
		}
		if numeric > 0 {
			mean := sum / float64(numeric)
			variance := sumSq/float64(numeric) - mean*mean
			if variance < 0 {
				variance = 0
			}
			meanCol.Append(dataset.Float(mean))
			stddevCol.Append(dataset.Float(math.Sqrt(variance)))
		} else {
			meanCol.Append(dataset.Null)
			stddevCol.Append(dataset.Null)
		}
	}
	return dataset.NewTable(name+"_summary",
		colName, typeCol, countCol, nullCol, distinctCol, minCol, maxCol, meanCol, stddevCol)
}

// refTopValues is TopValues' counting loop: counts keyed by each value's
// rendering, ties in first-seen order.
func refTopValues(c *dataset.Column, limit int) (*dataset.Table, error) {
	counts := map[string]int64{}
	var order []string
	for i := 0; i < c.Len(); i++ {
		key := c.Value(i).String()
		if _, seen := counts[key]; !seen {
			order = append(order, key)
		}
		counts[key]++
	}
	sort.SliceStable(order, func(a, b int) bool { return counts[order[a]] > counts[order[b]] })
	if limit > len(order) {
		limit = len(order)
	}
	valCol := dataset.NewColumn(c.Name(), dataset.TypeString)
	countCol := dataset.NewColumn("count", dataset.TypeInt)
	for _, key := range order[:limit] {
		valCol.Append(dataset.Str(key))
		countCol.Append(dataset.Int(counts[key]))
	}
	return dataset.NewTable("top_values", valCol, countCol)
}

// refLabels is Pivot's per-cell label loop: each value's rendering, "null"
// for null.
func refLabels(c *dataset.Column) []string {
	labels := make([]string, c.Len())
	for r := range labels {
		labels[r] = c.Value(r).String()
	}
	return labels
}
