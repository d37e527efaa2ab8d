package dataset

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// referenceConcat is Concat written cell by cell from Row and Append: names in
// first-seen order, the CommonType of every table's column of that name, a
// null where a table has no such column.
func referenceConcat(tables []*Table) *Table {
	var names []string
	seen := map[string]bool{}
	for _, t := range tables {
		for _, n := range t.ColumnNames() {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	cols := make([]*Column, len(names))
	for i, name := range names {
		typ := TypeNull
		for _, t := range tables {
			if c, err := t.Column(name); err == nil {
				typ = CommonType(typ, c.Type())
			}
		}
		cols[i] = NewColumn(name, typ)
	}
	for _, t := range tables {
		at := make([]int, len(names))
		for i, name := range names {
			at[i] = -1
			for j, n := range t.ColumnNames() {
				if n == name {
					at[i] = j
				}
			}
		}
		for r := 0; r < t.NumRows(); r++ {
			row := t.Row(r)
			for i := range names {
				if at[i] < 0 {
					cols[i].Append(Null)
				} else {
					cols[i].Append(row[at[i]])
				}
			}
		}
	}
	return MustNewTable(tables[0].Name(), cols...)
}

func requireSameTable(t *testing.T, got, want *Table) {
	t.Helper()
	if got.Name() != want.Name() {
		t.Errorf("name %q, want %q", got.Name(), want.Name())
	}
	if fmt.Sprint(got.ColumnNames()) != fmt.Sprint(want.ColumnNames()) {
		t.Fatalf("columns %v, want %v", got.ColumnNames(), want.ColumnNames())
	}
	for i, c := range got.Columns() {
		w := want.Columns()[i]
		if c.Type() != w.Type() || c.Len() != w.Len() {
			t.Fatalf("column %s: %s × %d, want %s × %d", c.Name(), c.Type(), c.Len(), w.Type(), w.Len())
		}
		for r := 0; r < c.Len(); r++ {
			// Same type on both sides, so == on the rendering is cell identity.
			if c.IsNull(r) != w.IsNull(r) || c.Value(r).String() != w.Value(r).String() {
				t.Fatalf("column %s row %d: %v, want %v", c.Name(), r, c.Value(r), w.Value(r))
			}
		}
	}
}

func TestConcatMatchesReference(t *testing.T) {
	day := time.Date(2024, 1, 2, 0, 0, 0, 0, time.UTC)
	base := MustNewTable("base",
		IntColumn("i", []int64{1, 2, 3}, []bool{false, true, false}),
		FloatColumn("f", []float64{0.5, 1.5, 2.5}, nil),
		StringColumn("s", []string{"a", "b", ""}, []bool{false, false, true}),
		BoolColumn("b", []bool{true, false, true}, nil),
		TimeColumn("ts", []time.Time{day, day, day.Add(time.Hour)}, []bool{true, false, false}),
	)
	same := base.Take([]int{2, 0}).WithName("same")
	disjoint := MustNewTable("disjoint", IntColumn("x", []int64{7, 8}, nil), StringColumn("y", []string{"p", "q"}, nil))
	overlap := MustNewTable("overlap", StringColumn("s", []string{"z"}, nil), IntColumn("x", []int64{9}, nil), IntColumn("i", []int64{4}, nil))
	floatI := MustNewTable("floatI", FloatColumn("i", []float64{1.25, 7}, []bool{false, true}), IntColumn("f", []int64{3, 4}, nil))
	stringly := MustNewTable("stringly",
		StringColumn("i", []string{"one"}, nil), StringColumn("f", []string{"2.5"}, nil),
		StringColumn("b", []string{"true"}, nil), StringColumn("ts", []string{"2024-01-02"}, nil))
	boolI := MustNewTable("boolI", BoolColumn("i", []bool{true}, nil))
	untyped := MustNewTable("untyped", NewColumn("i", TypeNull).Take([]int{-1, -1}), NewColumn("n", TypeNull).Take([]int{-1, -1}))
	allNullInt := MustNewTable("allNullInt", IntColumn("b", []int64{0, 0}, []bool{true, true}))
	noRows := base.Take(nil).WithName("noRows")
	noRowsOtherType := MustNewTable("noRowsOtherType", StringColumn("i", nil, nil), IntColumn("extra", nil, nil))
	noCols := MustNewTable("noCols")

	for _, tables := range [][]*Table{
		{base},
		{base, same},
		{base, same, base, same, base},
		{base, disjoint},
		{disjoint, base, overlap},
		{base, overlap, disjoint, same, overlap},
		{base, floatI},
		{floatI, base, floatI},
		{base, stringly},
		{base, floatI, stringly},
		{base, boolI},
		{base, untyped},
		{untyped, base},
		{untyped, untyped},
		{base, allNullInt},
		{noRows, base},
		{base, noRows, noRowsOtherType},
		{noRows, noRows},
		{noCols, base},
		{base, noCols, floatI, noRows, untyped},
	} {
		names := ""
		for _, tbl := range tables {
			names += tbl.Name() + " "
		}
		t.Run(names, func(t *testing.T) {
			got, want := Concat(tables), referenceConcat(tables)
			requireSameTable(t, got, want)
			gotD, err := got.Distinct()
			if err != nil {
				t.Fatal(err)
			}
			wantD, _ := want.Distinct()
			requireSameTable(t, gotD, wantD)
		})
	}
}

// A window's capacity ends where the window does: appending to a view in the
// middle of a column must not write the parent's next row, which a concurrent
// reader of the parent may be looking at.
func TestWindowAppendLeavesParentAlone(t *testing.T) {
	day := time.Date(2024, 1, 2, 0, 0, 0, 0, time.UTC)
	parent := MustNewTable("p",
		IntColumn("i", []int64{0, 1, 2, 3, 4, 5}, nil),
		FloatColumn("f", []float64{0, 1, 2, 3, 4, 5}, nil),
		StringColumn("s", []string{"0", "1", "2", "3", "4", "5"}, []bool{false, false, false, false, true, false}),
		BoolColumn("b", []bool{false, true, false, true, false, true}, nil),
		TimeColumn("ts", []time.Time{day, day, day, day, day, day}, make([]bool, 6)),
	)
	want := parent.Take([]int{0, 1, 2, 3, 4, 5})
	view := parent.Window(1, 3)

	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for i := 0; i < 200; i++ {
			if !parent.Equal(want) {
				t.Error("parent changed under a reader")
				return
			}
		}
	}()
	for _, c := range view.Columns() {
		c.Append(Int(99))
		c.Append(Null)
	}
	reader.Wait()

	requireSameTable(t, parent, want)
	for _, c := range view.Columns() {
		if c.Len() != 4 || !c.IsNull(3) {
			t.Errorf("view column %s: %d rows after two appends", c.Name(), c.Len())
		}
	}
}
