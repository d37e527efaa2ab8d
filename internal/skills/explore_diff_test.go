package skills

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"datachat/internal/dataset"
	"datachat/internal/sqlengine"
)

// randomExploreTable draws a table over every column type — i an int, f a
// quarter-step float, g an arbitrary float now and then NaN, ±Inf or -0, s
// a string whose values differ by case, b a bool, ts a time — each column
// null at a rate of 0, 15, 50 or 100 %. Empty and single-row tables come up
// often.
func randomExploreTable(rng *rand.Rand) *dataset.Table {
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
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e21, 0.1}
	ints, qs, gs := make([]int64, n), make([]float64, n), make([]float64, n)
	strs, bools, times := make([]string, n), make([]bool, n), make([]time.Time, n)
	vocab := []string{"alpha", "beta", "Alpha", "gamma", "", "null", "7"}
	base := time.Date(2023, 5, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		ints[i] = int64(rng.Intn(35) - 5)
		qs[i] = float64(rng.Intn(81)-40) / 4
		gs[i] = rng.NormFloat64() * 1e3
		if rng.Intn(40) == 0 {
			gs[i] = specials[rng.Intn(len(specials))]
		}
		strs[i] = vocab[rng.Intn(len(vocab))]
		bools[i] = rng.Intn(2) == 0
		times[i] = base.Add(time.Duration(rng.Intn(5*24*3600)) * time.Second)
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

// twoPassStddev is the population standard deviation of a column's
// non-null values, the mean taken first; null when there are none.
func twoPassStddev(c *dataset.Column) dataset.Value {
	vals, valid := c.Floats()
	var xs []float64
	for i, ok := range valid {
		if ok {
			xs = append(xs, vals[i])
		}
	}
	if len(xs) == 0 {
		return dataset.Null
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	ss := 0.0
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return dataset.Float(math.Sqrt(ss / float64(len(xs))))
}

// within reports whether got is want to 1e-9 relative (both null, or both
// NaN, or equal infinities, count as within).
func within(got, want dataset.Value) bool {
	if got.IsNull() || want.IsNull() {
		return got.IsNull() == want.IsNull()
	}
	g, w := got.F, want.F
	switch {
	case math.IsNaN(g) || math.IsNaN(w):
		return math.IsNaN(g) && math.IsNaN(w)
	case math.IsInf(w, 0):
		return g == w
	}
	return math.Abs(g-w) <= 1e-9*math.Max(math.Abs(w), 1e-300)
}

// TestExploreMatchesReference diffs DescribeDataset, DescribeColumn,
// TopValues and the category label against the frozen loops
// (explore_reference_test.go) on 2 000 random tables. The documented
// differences (DESIGN §16): stddev is STDDEV's two-pass figure, checked
// against a two-pass reference to 1e-9 relative rather than against the
// reference's one-pass one; TopValues breaks count ties by label, not by
// first appearance.
func TestExploreMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := randomExploreTable(rng)
		ctx := NewContext()
		ctx.Datasets["r"] = in
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d, %d rows: %s", seed, in.NumRows(), fmt.Sprintf(format, args...))
		}

		res, err := reg.Execute(ctx, Invocation{Skill: "DescribeDataset", Inputs: []string{"r"}})
		if err != nil {
			fail("DescribeDataset: %v", err)
		}
		want, err := refDescribe("r", in.Columns())
		if err != nil {
			t.Fatal(err)
		}
		got := res.Table
		if got.Name() != want.Name() || strings.Join(got.ColumnNames(), ",") != strings.Join(want.ColumnNames(), ",") {
			fail("summary %s %v, want %s %v", got.Name(), got.ColumnNames(), want.Name(), want.ColumnNames())
		}
		for j, gc := range got.Columns() {
			wc := want.Columns()[j]
			if gc.Type() != wc.Type() || gc.Len() != wc.Len() {
				fail("column %s is %s × %d, want %s × %d", gc.Name(), gc.Type(), gc.Len(), wc.Type(), wc.Len())
			}
			for r := 0; r < gc.Len(); r++ {
				if gc.Name() == "stddev" {
					if w := twoPassStddev(in.Columns()[r]); in.Columns()[r].Type().Numeric() && !within(gc.Value(r), w) {
						fail("stddev of %s is %v, want %v", in.Columns()[r].Name(), gc.Value(r), w)
					}
					continue
				}
				if gc.IsNull(r) != wc.IsNull(r) || gc.Value(r).String() != wc.Value(r).String() {
					fail("%s of %s is %v, want %v", gc.Name(), in.Columns()[r].Name(), gc.Value(r), wc.Value(r))
				}
			}
		}

		c := in.Columns()[rng.Intn(in.NumCols())]
		one, err := reg.Execute(ctx, Invocation{Skill: "DescribeColumn", Inputs: []string{"r"}, Args: Args{"column": c.Name()}})
		if err != nil {
			fail("DescribeColumn: %v", err)
		}
		if row := one.Table.Row(0); fmt.Sprint(row[:8]) != fmt.Sprint(got.Row(slices.Index(in.ColumnNames(), c.Name()))[:8]) {
			fail("DescribeColumn %s row %v differs from DescribeDataset's", c.Name(), row)
		}

		k := rng.Intn(12)
		top, err := reg.Execute(ctx, Invocation{Skill: "TopValues", Inputs: []string{"r"}, Args: Args{"column": c.Name(), "count": k}})
		if err != nil {
			fail("TopValues: %v", err)
		}
		all, err := refTopValues(c, c.Len())
		if err != nil {
			t.Fatal(err)
		}
		type entry struct {
			label string
			n     int64
		}
		var ranked []entry
		for r := 0; r < all.NumRows(); r++ {
			ranked = append(ranked, entry{all.Columns()[0].Value(r).S, all.Columns()[1].Value(r).I})
		}
		slices.SortFunc(ranked, func(a, b entry) int {
			if a.n != b.n {
				return int(b.n - a.n)
			}
			return strings.Compare(a.label, b.label)
		})
		ranked = ranked[:min(k, len(ranked))]
		tt := top.Table
		if strings.Join(tt.ColumnNames(), ",") != c.Name()+",count" || tt.Columns()[0].Type() != dataset.TypeString ||
			tt.Columns()[1].Type() != dataset.TypeInt || tt.NumRows() != len(ranked) {
			fail("TopValues %s k=%d: %v", c.Name(), k, tt)
		}
		for r, e := range ranked {
			if tt.Columns()[0].Value(r).S != e.label || tt.Columns()[1].Value(r).I != e.n {
				fail("TopValues %s k=%d row %d: %v, want %v", c.Name(), k, r, tt.Row(r), e)
			}
		}

		for j, col := range in.Columns() {
			bound, stmt, err := sqlengine.Bind("r", in.Columns()...)
			if err != nil {
				t.Fatal(err)
			}
			stmt.Items = []sqlengine.SelectItem{{Expr: sqlengine.Label(bound, j)}}
			labels, err := sqlengine.ExecOn(bound, stmt)
			if err != nil {
				fail("label of %s: %v", col.Name(), err)
			}
			got, _, _ := labels.Columns()[0].Strs()
			if want := refLabels(col); !slices.Equal(got, want) {
				fail("labels of %s are %q, want %q", col.Name(), got, want)
			}
		}
	}
}

// TestDescribeStddevIsTwoPass pins the cancellation the one-pass formula
// suffered: three values a billion apart from zero and one apart from each
// other.
func TestDescribeStddevIsTwoPass(t *testing.T) {
	ctx := NewContext()
	ctx.Datasets["big"] = dataset.MustNewTable("big",
		dataset.FloatColumn("v", []float64{1e9, 1e9 + 1, 1e9 + 2}, nil))
	res := run(t, ctx, Invocation{Skill: "DescribeColumn", Inputs: []string{"big"}, Args: Args{"column": "v"}})
	sd, _ := res.Table.Columns()[8].Value(0).AsFloat()
	if math.Abs(sd-math.Sqrt(2.0/3)) > 1e-4 {
		t.Errorf("stddev = %v, want 0.8165", sd)
	}
}
