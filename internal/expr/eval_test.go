package expr

import (
	"math/rand"
	"testing"

	"datachat/internal/dataset"
)

// evalTable is n rows of an int i, a float f (quarter steps), a bool b and a
// string s, each about 10% null.
func evalTable(n int) *dataset.Table {
	rng := rand.New(rand.NewSource(1))
	is, fs := make([]int64, n), make([]float64, n)
	bs, ss := make([]bool, n), make([]string, n)
	nulls := func() []bool {
		m := make([]bool, n)
		for r := range m {
			m[r] = rng.Intn(10) == 0
		}
		return m
	}
	words := []string{"alpha", "beta", "gamma"}
	for r := 0; r < n; r++ {
		is[r], fs[r] = int64(rng.Intn(100)-50), float64(rng.Intn(400)-200)/4
		bs[r], ss[r] = rng.Intn(2) == 0, words[rng.Intn(len(words))]
	}
	return dataset.MustNewTable("t",
		dataset.IntColumn("i", is, nulls()), dataset.FloatColumn("f", fs, nulls()),
		dataset.BoolColumn("b", bs, nulls()), dataset.StringColumn("s", ss, nulls()))
}

var (
	typedExpr = Bin(OpAdd, Bin(OpMul, Column("i"), Lit(dataset.Int(2))), Column("f"))
	floorExpr = Bin(OpMul, Func("FLOOR", Bin(OpDiv, Column("f"), Lit(dataset.Float(2.5)))), Lit(dataset.Float(2.5)))
	mixedExpr = Func("IF", Column("b"), Column("i"), Column("s"))
)

// TestEvalMatchesRows: Eval gives every row the value Expr.Eval gives it —
// through a kernel or row by row — typed by its non-null values, with values
// of several types kept as they are until they become a column.
func TestEvalMatchesRows(t *testing.T) {
	tbl := evalTable(500)
	b := TableBatch(tbl)
	for _, tc := range []struct {
		e     Expr
		typ   dataset.Type
		boxed bool
	}{
		{typedExpr, dataset.TypeFloat, false},
		{floorExpr, dataset.TypeFloat, false},
		{mixedExpr, dataset.TypeString, true},
		{Func("NULLIF", Column("i"), Column("i")), dataset.TypeNull, false},
		{Func("UPPER", Column("s")), dataset.TypeString, false},
	} {
		v, err := Eval(tc.e, b)
		if err != nil {
			t.Fatalf("%s: %v", tc.e, err)
		}
		if v.Type != tc.typ || (v.V != nil) != tc.boxed || v.N != tbl.NumRows() {
			t.Fatalf("%s: vec of %v × %d (boxed %v), want %v (boxed %v)", tc.e, v.Type, v.N, v.V != nil, tc.typ, tc.boxed)
		}
		col := v.Column("x")
		for r := 0; r < tbl.NumRows(); r++ {
			want, err := tc.e.Eval(b.Row(r))
			if err != nil {
				t.Fatal(err)
			}
			if got := v.ValueAt(r); got.Type != want.Type || got.String() != want.String() {
				t.Fatalf("%s row %d: %v %v, want %v %v", tc.e, r, got.Type, got, want.Type, want)
			}
			if coerced, _ := dataset.Coerce(want, col.Type()); !want.IsNull() && col.Value(r) != coerced {
				t.Fatalf("%s row %d: column holds %v, want %v", tc.e, r, col.Value(r), coerced)
			}
		}
	}
}

// TestSelectStopsAtLimit: a row-evaluated predicate is evaluated up to its
// limit-th survivor and no further, so a row past it cannot fail the call.
func TestSelectStopsAtLimit(t *testing.T) {
	tbl := dataset.MustNewTable("t",
		dataset.IntColumn("n", []int64{1, 2, 3, 4}, nil),
		dataset.StringColumn("s", []string{"a", "b", "c", "d"}, nil))
	// n - 1 for the first three rows, s - 1 (an error) for the fourth.
	pred := Bin(OpGe, Bin(OpSub, Func("IF", Bin(OpLt, Column("n"), Lit(dataset.Int(4))), Column("n"), Column("s")), Lit(dataset.Int(1))), Lit(dataset.Int(0)))
	got, err := Select(pred, TableBatch(tbl), 3)
	if err != nil || len(got) != 3 {
		t.Fatalf("Select with limit 3 = %v, %v; want rows 0-2", got, err)
	}
	if _, err := Select(pred, TableBatch(tbl), -1); err == nil {
		t.Fatal("Select without a limit reached the failing row and did not fail")
	}
}

// BenchmarkEvalBatch evaluates three expressions over 50 000 rows: one the
// kernel compiler accepts, and two it refuses — a scalar function, and an IF
// whose values mix ints and strings — that run row by row.
func BenchmarkEvalBatch(b *testing.B) {
	batch := TableBatch(evalTable(50_000))
	for _, bc := range []struct {
		name string
		e    Expr
	}{{"typed", typedExpr}, {"floor", floorExpr}, {"mixed", mixedExpr}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if _, err := Eval(bc.e, batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
