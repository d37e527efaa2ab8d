package dataset

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
	"time"
)

func TestValueConstructorsAndString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "null"},
		{Int(42), "42"},
		{Float(3.5), "3.5"},
		{Str("hello"), "hello"},
		{Bool(true), "true"},
		{Time(time.Date(2020, 1, 2, 0, 0, 0, 0, time.UTC)), "2020-01-02"},
		{Time(time.Date(2020, 1, 2, 13, 4, 5, 0, time.UTC)), "2020-01-02 13:04:05"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestValueAsFloat(t *testing.T) {
	if f, ok := Int(7).AsFloat(); !ok || f != 7 {
		t.Errorf("Int(7).AsFloat() = %v, %v", f, ok)
	}
	if f, ok := Bool(true).AsFloat(); !ok || f != 1 {
		t.Errorf("Bool(true).AsFloat() = %v, %v", f, ok)
	}
	if _, ok := Str("x").AsFloat(); ok {
		t.Error("Str.AsFloat() should fail")
	}
	if _, ok := Null.AsFloat(); ok {
		t.Error("Null.AsFloat() should fail")
	}
}

func TestCompareOrdering(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Null, Null, 0},
		{Null, Int(0), -1},
		{Int(0), Null, 1},
		{Int(1), Int(2), -1},
		{Float(2.5), Int(2), 1},
		{Int(3), Float(3.0), 0},
		{Str("a"), Str("b"), -1},
		{Bool(false), Bool(true), -1},
		{Time(time.Unix(0, 0)), Time(time.Unix(1, 0)), -1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		return Compare(Int(a), Int(b)) == -Compare(Int(b), Int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		return Compare(Float(a), Float(b)) == -Compare(Float(b), Float(a))
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestParseValue(t *testing.T) {
	cases := []struct {
		in   string
		want Type
	}{
		{"", TypeNull},
		{"null", TypeNull},
		{"NULL", TypeNull},
		{"42", TypeInt},
		{"-7", TypeInt},
		{"3.14", TypeFloat},
		{"1e3", TypeFloat},
		{"true", TypeBool},
		{"False", TypeBool},
		{"2021-06-01", TypeTime},
		{"hello world", TypeString},
	}
	for _, c := range cases {
		if got := ParseValue(c.in).Type; got != c.want {
			t.Errorf("ParseValue(%q).Type = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseTimeFormats(t *testing.T) {
	for _, in := range []string{"2020-05-06", "05-06-2020", "05/06/2020", "2020-05-06 10:11:12"} {
		tm, err := ParseTime(in)
		if err != nil {
			t.Errorf("ParseTime(%q): %v", in, err)
			continue
		}
		if tm.Year() != 2020 || tm.Month() != 5 || tm.Day() != 6 {
			t.Errorf("ParseTime(%q) = %v", in, tm)
		}
	}
	if _, err := ParseTime("not a date"); err == nil {
		t.Error("ParseTime should reject garbage")
	}
}

func TestCoerce(t *testing.T) {
	if v, ok := Coerce(Int(3), TypeFloat); !ok || v.F != 3 {
		t.Errorf("Coerce int->float = %v, %v", v, ok)
	}
	if v, ok := Coerce(Float(3.0), TypeInt); !ok || v.I != 3 {
		t.Errorf("Coerce whole float->int = %v, %v", v, ok)
	}
	if _, ok := Coerce(Float(3.5), TypeInt); ok {
		t.Error("Coerce fractional float->int should fail")
	}
	if v, ok := Coerce(Int(5), TypeString); !ok || v.S != "5" {
		t.Errorf("Coerce int->string = %v, %v", v, ok)
	}
	if v, ok := Coerce(Str("2020-01-01"), TypeTime); !ok || v.T.Year() != 2020 {
		t.Errorf("Coerce string->time = %v, %v", v, ok)
	}
	if v, ok := Coerce(Null, TypeInt); !ok || !v.IsNull() {
		t.Error("Coerce null should stay null")
	}
}

func TestCommonType(t *testing.T) {
	cases := []struct {
		a, b, want Type
	}{
		{TypeInt, TypeInt, TypeInt},
		{TypeInt, TypeFloat, TypeFloat},
		{TypeNull, TypeBool, TypeBool},
		{TypeString, TypeInt, TypeString},
		{TypeTime, TypeTime, TypeTime},
	}
	for _, c := range cases {
		if got := CommonType(c.a, c.b); got != c.want {
			t.Errorf("CommonType(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestColumnBasics(t *testing.T) {
	c := IntColumn("age", []int64{10, 20, 30}, []bool{false, true, false})
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
	if !c.IsNull(1) || c.IsNull(0) {
		t.Error("null mask wrong")
	}
	if c.NullCount() != 1 {
		t.Errorf("NullCount = %d", c.NullCount())
	}
	if got := c.Value(2); got.I != 30 {
		t.Errorf("Value(2) = %v", got)
	}
	if got := c.Value(1); !got.IsNull() {
		t.Errorf("Value(1) = %v, want null", got)
	}
}

func TestColumnAppendCoercion(t *testing.T) {
	c := NewColumn("x", TypeFloat)
	c.Append(Int(1))
	c.Append(Float(2.5))
	c.Append(Null)
	c.Append(Str("oops")) // cannot coerce -> null
	if c.Len() != 4 {
		t.Fatalf("Len = %d", c.Len())
	}
	if c.Value(0).F != 1 || c.Value(1).F != 2.5 {
		t.Error("coerced values wrong")
	}
	if !c.IsNull(2) || !c.IsNull(3) {
		t.Error("nulls wrong after append")
	}
}

func TestColumnTake(t *testing.T) {
	c := StringColumn("s", []string{"a", "b", "c"}, []bool{false, true, false})
	got := c.Take([]int{2, 0, 2})
	if got.Len() != 3 || got.Value(0).S != "c" || got.Value(1).S != "a" || got.Value(2).S != "c" {
		t.Errorf("Take = %v %v %v", got.Value(0), got.Value(1), got.Value(2))
	}
	got2 := c.Take([]int{1})
	if !got2.IsNull(0) {
		t.Error("Take should preserve nulls")
	}
}

func TestColumnFloats(t *testing.T) {
	c := IntColumn("n", []int64{1, 2, 3}, []bool{false, false, true})
	vals, valid := c.Floats()
	if !valid[0] || !valid[1] || valid[2] {
		t.Errorf("valid = %v", valid)
	}
	if vals[0] != 1 || vals[1] != 2 {
		t.Errorf("vals = %v", vals)
	}
}

func newSampleTable(t *testing.T) *Table {
	t.Helper()
	tbl, err := NewTable("people",
		StringColumn("name", []string{"ann", "bob", "carl", "dee"}, nil),
		IntColumn("age", []int64{30, 25, 40, 25}, nil),
		FloatColumn("score", []float64{1.5, 2.5, 0.5, 2.5}, []bool{false, false, true, false}),
	)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestTableBasics(t *testing.T) {
	tbl := newSampleTable(t)
	if tbl.NumRows() != 4 || tbl.NumCols() != 3 {
		t.Fatalf("shape = %d×%d", tbl.NumRows(), tbl.NumCols())
	}
	if _, err := tbl.Column("AGE"); err != nil {
		t.Errorf("case-insensitive lookup failed: %v", err)
	}
	if _, err := tbl.Column("missing"); err == nil {
		t.Error("missing column should error")
	}
	row := tbl.Row(1)
	if row[0].S != "bob" || row[1].I != 25 {
		t.Errorf("Row(1) = %v", row)
	}
}

func TestTableDuplicateColumnRejected(t *testing.T) {
	_, err := NewTable("bad",
		IntColumn("x", []int64{1}, nil),
		IntColumn("x", []int64{2}, nil),
	)
	if err == nil {
		t.Error("duplicate column names should be rejected")
	}
}

func TestTableLengthMismatchRejected(t *testing.T) {
	_, err := NewTable("bad",
		IntColumn("x", []int64{1, 2}, nil),
		IntColumn("y", []int64{1}, nil),
	)
	if err == nil {
		t.Error("length mismatch should be rejected")
	}
}

func TestTableSelectDrop(t *testing.T) {
	tbl := newSampleTable(t)
	sel, err := tbl.Select("age", "name")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(sel.ColumnNames(), ","); got != "age,name" {
		t.Errorf("Select order = %s", got)
	}
	dropped, err := tbl.Drop("score")
	if err != nil {
		t.Fatal(err)
	}
	if dropped.HasColumn("score") || dropped.NumCols() != 2 {
		t.Error("Drop failed")
	}
	if _, err := tbl.Drop("nope"); err == nil {
		t.Error("Drop missing column should error")
	}
}

func TestTableWithColumnReplace(t *testing.T) {
	tbl := newSampleTable(t)
	newAge := IntColumn("age", []int64{1, 2, 3, 4}, nil)
	out, err := tbl.WithColumn(newAge)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumCols() != 3 {
		t.Errorf("replace should not add a column: %d", out.NumCols())
	}
	c, _ := out.Column("age")
	if c.Value(0).I != 1 {
		t.Error("replacement not applied")
	}
	extra := BoolColumn("flag", []bool{true, false, true, false}, nil)
	out2, err := tbl.WithColumn(extra)
	if err != nil {
		t.Fatal(err)
	}
	if out2.NumCols() != 4 {
		t.Error("append should add a column")
	}
}

func TestTableSortBy(t *testing.T) {
	tbl := newSampleTable(t)
	sorted, err := tbl.SortBy([]string{"age", "name"}, []bool{false, true})
	if err != nil {
		t.Fatal(err)
	}
	nameCol, _ := sorted.Column("name")
	got := []string{}
	for i := 0; i < sorted.NumRows(); i++ {
		got = append(got, nameCol.Value(i).S)
	}
	want := []string{"dee", "bob", "ann", "carl"} // age 25,25 (name desc), 30, 40
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortBy order = %v, want %v", got, want)
		}
	}
}

func TestTableConcatAndDedupe(t *testing.T) {
	a := MustNewTable("a",
		IntColumn("x", []int64{1, 2}, nil),
		StringColumn("tag", []string{"p", "q"}, nil),
	)
	b := MustNewTable("b",
		IntColumn("x", []int64{2, 3}, nil),
		FloatColumn("y", []float64{0.5, 0.7}, nil),
	)
	merged := Concat([]*Table{a, b})
	if merged.NumRows() != 4 || merged.NumCols() != 3 {
		t.Fatalf("merged shape = %d×%d", merged.NumRows(), merged.NumCols())
	}
	yCol, _ := merged.Column("y")
	if !yCol.IsNull(0) || yCol.IsNull(2) {
		t.Error("null padding wrong")
	}

	c := MustNewTable("c", IntColumn("x", []int64{1, 1, 2}, nil))
	d := MustNewTable("d", IntColumn("x", []int64{2, 5}, nil))
	deduped, err := Concat([]*Table{c, d}).Distinct()
	if err != nil {
		t.Fatal(err)
	}
	if deduped.NumRows() != 3 { // 1, 2, 5
		t.Errorf("dedupe rows = %d, want 3", deduped.NumRows())
	}
}

func TestTableDistinct(t *testing.T) {
	tbl := MustNewTable("t",
		IntColumn("a", []int64{1, 1, 2, 1}, nil),
		StringColumn("b", []string{"x", "x", "y", "z"}, nil),
	)
	allDistinct, err := tbl.Distinct()
	if err != nil {
		t.Fatal(err)
	}
	if allDistinct.NumRows() != 3 {
		t.Errorf("Distinct() rows = %d, want 3", allDistinct.NumRows())
	}
	byA, err := tbl.Distinct("a")
	if err != nil {
		t.Fatal(err)
	}
	if byA.NumRows() != 2 {
		t.Errorf("Distinct(a) rows = %d, want 2", byA.NumRows())
	}
}

func TestTableWindowHead(t *testing.T) {
	tbl := newSampleTable(t)
	if got := tbl.Head(2).NumRows(); got != 2 {
		t.Errorf("Head(2) = %d rows", got)
	}
	if got := tbl.Window(-5, 100).NumRows(); got != 4 {
		t.Errorf("Window clamping failed: %d rows", got)
	}
	if got := tbl.Window(3, 1).NumRows(); got != 0 {
		t.Errorf("inverted window should be empty: %d rows", got)
	}
}

func TestTableEqual(t *testing.T) {
	a := newSampleTable(t)
	b := newSampleTable(t)
	if !a.Equal(b) {
		t.Error("identical tables should be equal")
	}
	c, _ := a.Drop("score")
	if a.Equal(c) {
		t.Error("different schemas should not be equal")
	}
	if a.Equal(nil) {
		t.Error("nil should not be equal")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	src := "name,age,score,joined,active\nann,30,1.5,2020-01-01,true\nbob,25,,2021-02-03,false\n,40,0.25,,true\n"
	tbl, err := ReadCSVString("people", src)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 3 || tbl.NumCols() != 5 {
		t.Fatalf("shape = %d×%d", tbl.NumRows(), tbl.NumCols())
	}
	wantTypes := map[string]Type{"name": TypeString, "age": TypeInt, "score": TypeFloat, "joined": TypeTime, "active": TypeBool}
	for name, want := range wantTypes {
		c, err := tbl.Column(name)
		if err != nil {
			t.Fatal(err)
		}
		if c.Type() != want {
			t.Errorf("column %s type = %v, want %v", name, c.Type(), want)
		}
	}
	scoreCol, _ := tbl.Column("score")
	if !scoreCol.IsNull(1) {
		t.Error("empty cell should be null")
	}

	var buf bytes.Buffer
	if err := WriteCSV(tbl, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSVString("people", buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Equal(back) {
		t.Errorf("csv round trip changed data:\n%s\nvs\n%s", tbl, back)
	}
}

func TestCSVMixedNumericWidens(t *testing.T) {
	tbl, err := ReadCSVString("t", "v\n1\n2.5\n3\n")
	if err != nil {
		t.Fatal(err)
	}
	c, _ := tbl.Column("v")
	if c.Type() != TypeFloat {
		t.Errorf("mixed int/float should widen to float, got %v", c.Type())
	}
	if c.Value(0).F != 1 {
		t.Errorf("widened value = %v", c.Value(0))
	}
}

func TestCSVEmptyAndErrors(t *testing.T) {
	if _, err := ReadCSVString("t", ""); err == nil {
		t.Error("empty csv should error")
	}
	boom := errors.New("boom")
	if _, err := ReadCSV("t", iotest.ErrReader(boom)); !errors.Is(err, boom) {
		t.Errorf("a failing reader gave %v, want %v", err, boom)
	}
	tbl, err := ReadCSVString("t", "a,b\n")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 0 || tbl.NumCols() != 2 {
		t.Errorf("header-only shape = %d×%d", tbl.NumRows(), tbl.NumCols())
	}
}

func TestDatesOutsideTheNanosecondRangeStayText(t *testing.T) {
	tbl, err := ReadCSVString("t", "d\n1500-01-01\n2024-05-06\n9999-12-31\n")
	if err != nil {
		t.Fatal(err)
	}
	c, _ := tbl.Column("d")
	if c.Type() != TypeString {
		t.Fatalf("column type = %v, want string", c.Type())
	}
	for i, want := range []string{"1500-01-01", "2024-05-06", "9999-12-31"} {
		if got := c.Value(i).String(); got != want {
			t.Errorf("row %d = %q, want %q", i, got, want)
		}
	}
	// A time column holds int64 unix nanoseconds: 1677-09-21 00:12:43 to
	// 2262-04-11 23:47:16 UTC.
	for in, want := range map[string]Type{
		"1677-09-21": TypeString, "1677-09-22": TypeTime, "2262-04-11": TypeTime,
		"2262-04-12": TypeString, "2262-04-11 23:59:59": TypeString, "0000-01-01": TypeString,
		"12/31/9999": TypeString, "1500-01-01T00:00:00Z": TypeString,
	} {
		if got := ParseValue(in); got.Type != want || want == TypeString && got.S != in {
			t.Errorf("ParseValue(%q) = %#v, want a %v", in, got, want)
		}
	}
	if _, err := ParseTime("1500-01-01"); err == nil {
		t.Error("ParseTime should reject a date no time column can hold")
	}
}

func TestCSVHeaderBOM(t *testing.T) {
	tbl, err := ReadCSVString("t", "\ufeffid,v\n1,2\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%q", tbl.ColumnNames()); got != `["id" "v"]` {
		t.Fatalf("columns = %s, want [\"id\" \"v\"]", got)
	}
	if c, err := tbl.Column("id"); err != nil || c.Type() != TypeInt {
		t.Errorf("column id: %v, %v", c, err)
	}
}

func TestCSVRoundTripProperty(t *testing.T) {
	// Property: any table of ints and strings survives a CSV round trip.
	f := func(ints []int64, raw []string) bool {
		n := len(ints)
		if len(raw) < n {
			n = len(raw)
		}
		if n == 0 {
			return true
		}
		strVals := make([]string, n)
		for i := 0; i < n; i++ {
			// Constrain to CSV-safe, parse-stable strings.
			s := strings.Map(func(r rune) rune {
				if r >= 'a' && r <= 'z' {
					return r
				}
				return 'x'
			}, raw[i])
			if s == "" {
				s = "s"
			}
			strVals[i] = "v" + s
		}
		tbl := MustNewTable("p",
			IntColumn("i", ints[:n], nil),
			StringColumn("s", strVals, nil),
		)
		var buf bytes.Buffer
		if err := WriteCSV(tbl, &buf); err != nil {
			return false
		}
		back, err := ReadCSVString("p", buf.String())
		if err != nil {
			return false
		}
		return tbl.Equal(back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSortStabilityProperty(t *testing.T) {
	// Property: sorting by a constant key preserves original order.
	f := func(vals []int64) bool {
		if len(vals) == 0 {
			return true
		}
		konst := make([]int64, len(vals))
		tbl := MustNewTable("t",
			IntColumn("k", konst, nil),
			IntColumn("v", vals, nil),
		)
		sorted, err := tbl.SortBy([]string{"k"}, nil)
		if err != nil {
			return false
		}
		return tbl.Equal(sorted.WithName("t"))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
