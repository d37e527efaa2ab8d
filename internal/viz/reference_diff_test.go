package viz

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"datachat/internal/dataset"
)

// randomTable draws a table over every column type — i an int, f a
// quarter-step float, g an arbitrary float, s a string whose values differ
// by case, b a bool, ts a time — each column null at a rate of 0, 15, 50 or
// 100 %. Empty and single-row tables come up often.
func randomTable(rng *rand.Rand) *dataset.Table {
	n := rng.Intn(41)
	if rng.Intn(6) == 0 {
		n = rng.Intn(2)
	}
	nulls := func() []bool {
		rate := []int{0, 15, 50, 100}[rng.Intn(4)]
		b := make([]bool, n)
		for i := range b {
			b[i] = rng.Intn(100) < rate
		}
		return b
	}
	ints, qs, gs := make([]int64, n), make([]float64, n), make([]float64, n)
	strs, bools, times := make([]string, n), make([]bool, n), make([]time.Time, n)
	vocab := []string{"alpha", "beta", "Alpha", "gamma", "", "null", "7"}
	base := time.Date(2023, 5, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		ints[i] = int64(rng.Intn(35) - 5)
		qs[i] = float64(rng.Intn(81)-40) / 4
		gs[i] = rng.NormFloat64() * 1e3
		strs[i] = vocab[rng.Intn(len(vocab))]
		bools[i] = rng.Intn(2) == 0
		times[i] = base.Add(time.Duration(rng.Intn(5*24)) * time.Hour)
	}
	return dataset.MustNewTable("r",
		dataset.IntColumn("i", ints, nulls()),
		dataset.FloatColumn("f", qs, nulls()),
		dataset.FloatColumn("g", gs, nulls()),
		dataset.StringColumn("s", strs, nulls()),
		dataset.BoolColumn("b", bools, nulls()),
		dataset.TimeColumn("ts", times, nulls()),
	)
}

// chartDiff describes how got differs from want: both fail alike, or both
// build the same series.
func chartDiff(got *Chart, gotErr error, want *Chart, wantErr error) string {
	switch {
	case (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()):
		return fmt.Sprintf("error %v, want %v", gotErr, wantErr)
	case gotErr != nil:
		return ""
	case got.RowsUsed != want.RowsUsed:
		return fmt.Sprintf("rows used %d, want %d", got.RowsUsed, want.RowsUsed)
	case len(got.Series) != len(want.Series):
		return fmt.Sprintf("%d series, want %d", len(got.Series), len(want.Series))
	}
	same := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
				return false
			}
		}
		return true
	}
	for i, g := range got.Series {
		w := want.Series[i]
		if g.Name != w.Name || strings.Join(g.Labels, "\x00") != strings.Join(w.Labels, "\x00") ||
			len(g.Labels) != len(w.Labels) || !same(g.X, w.X) || !same(g.Y, w.Y) || !same(g.Size, w.Size) {
			return fmt.Sprintf("series %d is %+v, want %+v", i, g, w)
		}
	}
	return ""
}

// TestBuildMatchesReference diffs every chart family against the frozen
// builders (viz_reference_test.go) on 2 000 random tables. The one
// documented difference it meets (DESIGN §16): a measure is the engine's
// SUM, so a bar's Y or a bubble's SizeBy holding a string or a time fails
// where the reference summed nothing.
func TestBuildMatchesReference(t *testing.T) {
	names := []string{"i", "f", "g", "s", "b", "ts"}
	types := []ChartType{Bar, Donut, Histogram, Line, Scatter, Violin, Bubble, Heatmap}
	specs, built := 0, 0
	for seed := int64(1); seed <= 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tbl := randomTable(rng)
		pick := func(optional bool) string {
			switch {
			case optional && rng.Intn(3) == 0:
				return ""
			case rng.Intn(60) == 0:
				return "ghost"
			}
			return names[rng.Intn(len(names))]
		}
		for _, typ := range types {
			spec := Spec{Type: typ, X: pick(false), Y: pick(typ == Bar || typ == Donut),
				GroupBy: pick(true), SizeBy: pick(true), Bins: []int{0, 0, 1, 3, 7, 25}[rng.Intn(6)]}
			got, gotErr := Build(tbl, spec)
			want, wantErr := refBuild(tbl, spec)
			if gotErr != nil && wantErr == nil && sumsNonNumeric(tbl, spec) {
				continue
			}
			specs++
			if gotErr == nil {
				built++
			}
			if d := chartDiff(got, gotErr, want, wantErr); d != "" {
				t.Fatalf("seed %d, %d rows, %+v: %s", seed, tbl.NumRows(), spec, d)
			}
		}
	}
	if specs < 12_000 || built < specs/2 {
		t.Errorf("%d specs compared, %d of them built", specs, built)
	}
}

// sumsNonNumeric reports whether spec sums a column holding a string or a
// time: the measure of a bar or donut, or the size of a bubble or heatmap.
func sumsNonNumeric(t *dataset.Table, spec Spec) bool {
	name := spec.Y
	if spec.Type == Bubble || spec.Type == Heatmap {
		name = spec.SizeBy
	}
	c, err := t.Column(name)
	return err == nil && !numeric(c.Type()) && c.NullCount() < c.Len()
}
