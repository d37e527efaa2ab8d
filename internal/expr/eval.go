package expr

import "datachat/internal/dataset"

// Batch is a set of rows an expression is evaluated over. It exposes each
// column twice, and both views must resolve a name to the same values: as a
// Vec over every row, which the kernel compiler binds, and as the Env of one
// row, which the row evaluator reads.
type Batch interface {
	// Len returns the number of rows.
	Len() int
	// Vec returns the named column over every row.
	Vec(name string) (*Vec, error)
	// Row returns the Env that resolves names for row i.
	Row(i int) Env
}

// Eval evaluates e over every row of b. A tree the kernel compiler accepts
// runs as one typed kernel; any other runs whole, row by row, through
// Expr.Eval — so AND/OR short-circuits, cross-type comparisons and error
// text are the row evaluator's. A row-evaluated result is typed by its
// non-null values (TypeNull when it has none), and values of several types
// stay boxed in V.
func Eval(e Expr, b Batch) (*Vec, error) {
	if k, ok := compile(e, b); ok {
		return k()
	}
	vals := make([]dataset.Value, b.Len())
	for i := range vals {
		x, err := e.Eval(b.Row(i))
		if err != nil {
			return nil, err
		}
		vals[i] = x
	}
	return VecOf(vals), nil
}

// Select returns, in row order, the indexes of the rows of b that predicate e
// accepts (EvalBool's rule: null and false reject), at most limit of them
// (< 0 means no cap). Row by row it stops at the limit-th survivor, so rows
// past it are never evaluated.
func Select(e Expr, b Batch, limit int) ([]int, error) {
	if k, ok := compile(e, b); ok {
		v, err := k()
		if err != nil {
			return nil, err
		}
		return v.selectTrue(limit), nil
	}
	n := b.Len()
	keep := make([]int, 0, n)
	for i := 0; i < n && len(keep) != limit; i++ {
		ok, err := EvalBool(e, b.Row(i))
		if err != nil {
			return nil, err
		}
		if ok {
			keep = append(keep, i)
		}
	}
	return keep, nil
}

// VecOf is the vec of vals typed by their non-null values: TypeNull when
// there is none, vals kept boxed in V when they are of several types.
func VecOf(vals []dataset.Value) *Vec {
	typ, mixed := dataset.TypeNull, false
	for _, x := range vals {
		if !x.IsNull() {
			mixed = mixed || (typ != dataset.TypeNull && x.Type != typ)
			typ = dataset.CommonType(typ, x.Type)
		}
	}
	switch {
	case mixed:
		return &Vec{Type: typ, V: vals, N: len(vals)}
	case typ == dataset.TypeNull:
		return &Vec{Type: typ, N: len(vals)}
	}
	c := dataset.NewColumn("", typ)
	for _, x := range vals {
		c.Append(x)
	}
	return ColumnVec(c)
}

// TableBatch is the Batch of every row of t; names resolve through
// Table.Column.
func TableBatch(t *dataset.Table) Batch { return tableBatch{t} }

type tableBatch struct{ t *dataset.Table }

func (b tableBatch) Len() int { return b.t.NumRows() }

func (b tableBatch) Vec(name string) (*Vec, error) {
	c, err := b.t.Column(name)
	if err != nil {
		return nil, err
	}
	return ColumnVec(c), nil
}

func (b tableBatch) Row(i int) Env { return tableRow{b.t, i} }

// tableRow is one row of a table as an Env.
type tableRow struct {
	t   *dataset.Table
	row int
}

// Lookup implements Env.
func (r tableRow) Lookup(name string) (dataset.Value, error) {
	c, err := r.t.Column(name)
	if err != nil {
		return dataset.Null, err
	}
	return c.Value(r.row), nil
}
