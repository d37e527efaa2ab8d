package sqlengine

import (
	"strconv"

	"datachat/internal/dataset"
	"datachat/internal/expr"
)

// ExecOn runs stmt over t, the one table its FROM names.
func ExecOn(t *dataset.Table, stmt *SelectStmt) (*dataset.Table, error) {
	return ExecStmt(NewMapCatalog(map[string]*dataset.Table{t.Name(): t}), stmt)
}

// Bind returns cols as the columns of one table, the i-th named as Col(i)
// reads it, and an unlimited SELECT from that table with no items yet. A
// statement built in Go over a skill's columns names them by position, so
// it reads them whatever they are called: a dot, or a case-insensitive
// twin, in a name would not resolve.
func Bind(name string, cols ...*dataset.Column) (*dataset.Table, *SelectStmt, error) {
	bound := make([]*dataset.Column, len(cols))
	for i, c := range cols {
		bound[i] = c.Rename(Col(i).Name)
	}
	t, err := dataset.NewTable(name, bound...)
	if err != nil {
		return nil, nil, err
	}
	return t, &SelectStmt{From: &BaseTable{Name: name, Alias: name}, Limit: -1}, nil
}

// Col is the column Bind binds cols[i] as.
func Col(i int) *expr.Col { return expr.Column("c" + strconv.Itoa(i)) }

// Label is column i of a table Bind built rendered as its value's String,
// "null" for null: the one category label of TopValues, Pivot and the
// charts, so values that render alike share a label. A string column with
// no null is its own rendering and is read as it is.
func Label(t *dataset.Table, i int) expr.Expr {
	if c := t.Columns()[i]; c.Type() == dataset.TypeString && c.NullCount() == 0 {
		return Col(i)
	}
	return expr.Func("COALESCE", expr.Func("CAST", Col(i), expr.Lit(dataset.Str("string"))), expr.Lit(dataset.Str("null")))
}
