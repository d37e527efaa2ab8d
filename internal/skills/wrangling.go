package skills

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"datachat/internal/dataset"
	"datachat/internal/expr"
	"datachat/internal/sqlengine"
)

// tableEnv adapts one table row to expr.Env.
type tableEnv struct {
	t   *dataset.Table
	row int
}

// Lookup implements expr.Env.
func (e tableEnv) Lookup(name string) (dataset.Value, error) {
	c, err := e.t.Column(name)
	if err != nil {
		return dataset.Null, err
	}
	return c.Value(e.row), nil
}

// parseCondition parses a GEL/SQL condition expression.
func parseCondition(s string) (expr.Expr, error) {
	cond, err := sqlengine.ParseExpr(s)
	if err != nil {
		return nil, fmt.Errorf("skills: invalid condition %q: %w", s, err)
	}
	return cond, nil
}

// tableBinder resolves kernel column references the way tableEnv.Lookup
// resolves them for a row.
type tableBinder struct{ t *dataset.Table }

// BindColumn implements expr.ColumnBinder.
func (b tableBinder) BindColumn(name string) (*dataset.Column, error) { return b.t.Column(name) }

// evalKernel evaluates e over every row of t in one typed kernel pass. ok is
// false when the expression does not compile or its kernel fails; the caller
// then runs evalRows, whose results and error text are authoritative.
func evalKernel(t *dataset.Table, e expr.Expr) (v *expr.Vec, ok bool) {
	k, compiled := expr.Compile(e, tableBinder{t}, t.NumRows())
	if !compiled {
		return nil, false
	}
	v, err := k()
	return v, err == nil
}

// evalRows evaluates e one row at a time — the fallback under evalKernel and
// the only row loop the direct skills' filters and computed columns have.
func evalRows(t *dataset.Table, e expr.Expr) ([]dataset.Value, error) {
	vals := make([]dataset.Value, t.NumRows())
	for i := range vals {
		v, err := e.Eval(tableEnv{t, i})
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vals, nil
}

// filterTable returns the rows of t satisfying cond: null and false reject,
// as expr.EvalBool has it.
func filterTable(t *dataset.Table, cond expr.Expr) (*dataset.Table, error) {
	if v, ok := evalKernel(t, cond); ok {
		return t.Take(v.SelectTrue(-1)), nil
	}
	vals, err := evalRows(t, cond)
	if err != nil {
		return nil, err
	}
	keep := make([]int, 0, len(vals))
	for i, v := range vals {
		if f, ok := v.AsFloat(); ok && f != 0 {
			keep = append(keep, i)
		}
	}
	return t.Take(keep), nil
}

// evalColumn evaluates an expression for every row, producing a new column
// typed by its non-null values; a column that never sees one is a string
// column.
func evalColumn(t *dataset.Table, name string, e expr.Expr) (*dataset.Column, error) {
	if v, ok := evalKernel(t, e); ok {
		if c := v.Column(name); c.NullCount() < c.Len() {
			return c, nil
		}
		return (&expr.Vec{Type: dataset.TypeNull, N: v.N}).Column(name), nil
	}
	vals, err := evalRows(t, e)
	if err != nil {
		return nil, err
	}
	typ := dataset.TypeNull
	for _, v := range vals {
		if !v.IsNull() {
			typ = dataset.CommonType(typ, v.Type)
		}
	}
	if typ == dataset.TypeNull {
		typ = dataset.TypeString
	}
	col := dataset.NewColumn(name, typ)
	for _, v := range vals {
		col.Append(v)
	}
	return col, nil
}

func wranglingSkills() []*Definition {
	return []*Definition{
		{
			Name:     "KeepRows",
			Category: DataWrangling,
			Summary:  "Keep only the rows matching a condition",
			Params: []ParamSpec{
				{"condition", "expression", true, "boolean expression rows must satisfy"},
			},
			GEL:        "Keep the rows where {condition}",
			Relational: true,
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				t, err := singleInput(ctx, inv)
				if err != nil {
					return nil, err
				}
				condStr, err := inv.Args.String("condition")
				if err != nil {
					return nil, err
				}
				cond, err := parseCondition(condStr)
				if err != nil {
					return nil, err
				}
				out, err := filterTable(t, cond)
				if err != nil {
					return nil, err
				}
				return &Result{Table: out, Message: fmt.Sprintf("Kept %d of %d rows", out.NumRows(), t.NumRows())}, nil
			},
			MergeSQL: func(b *QueryBuilder, inv Invocation) error {
				condStr, err := inv.Args.String("condition")
				if err != nil {
					return err
				}
				cond, err := parseCondition(condStr)
				if err != nil {
					return err
				}
				b.Where(cond)
				return nil
			},
		},
		{
			Name:     "DropRows",
			Category: DataWrangling,
			Summary:  "Remove the rows matching a condition",
			Params: []ParamSpec{
				{"condition", "expression", true, "boolean expression of rows to remove"},
			},
			GEL:        "Drop the rows where {condition}",
			Relational: true,
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				t, err := singleInput(ctx, inv)
				if err != nil {
					return nil, err
				}
				condStr, err := inv.Args.String("condition")
				if err != nil {
					return nil, err
				}
				cond, err := parseCondition(condStr)
				if err != nil {
					return nil, err
				}
				out, err := filterTable(t, expr.Not(cond))
				if err != nil {
					return nil, err
				}
				return &Result{Table: out, Message: fmt.Sprintf("Dropped %d rows", t.NumRows()-out.NumRows())}, nil
			},
			MergeSQL: func(b *QueryBuilder, inv Invocation) error {
				condStr, err := inv.Args.String("condition")
				if err != nil {
					return err
				}
				cond, err := parseCondition(condStr)
				if err != nil {
					return err
				}
				b.Where(expr.Not(cond))
				return nil
			},
		},
		{
			Name:     "KeepColumns",
			Category: DataWrangling,
			Summary:  "Keep only the named columns, in order",
			Params: []ParamSpec{
				{"columns", "columns", true, "columns to keep"},
			},
			GEL:        "Keep the columns {columns}",
			Relational: true,
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				t, err := singleInput(ctx, inv)
				if err != nil {
					return nil, err
				}
				cols, err := inv.Args.StringList("columns")
				if err != nil {
					return nil, err
				}
				out, err := t.Select(cols...)
				if err != nil {
					return nil, err
				}
				return &Result{Table: out}, nil
			},
			MergeSQL: func(b *QueryBuilder, inv Invocation) error {
				cols, err := inv.Args.StringList("columns")
				if err != nil {
					return err
				}
				b.Project(cols)
				return nil
			},
		},
		{
			Name:     "DropColumns",
			Category: DataWrangling,
			Summary:  "Remove the named columns",
			Params: []ParamSpec{
				{"columns", "columns", true, "columns to remove"},
			},
			GEL: "Drop the columns {columns}",
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				t, err := singleInput(ctx, inv)
				if err != nil {
					return nil, err
				}
				cols, err := inv.Args.StringList("columns")
				if err != nil {
					return nil, err
				}
				out, err := t.Drop(cols...)
				if err != nil {
					return nil, err
				}
				return &Result{Table: out}, nil
			},
		},
		{
			Name:     "RenameColumn",
			Category: DataWrangling,
			Summary:  "Rename a column",
			Params: []ParamSpec{
				{"column", "column", true, "existing column name"},
				{"to", "string", true, "new column name"},
			},
			GEL: "Rename the column {column} to {to}",
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				t, err := singleInput(ctx, inv)
				if err != nil {
					return nil, err
				}
				from, err := inv.Args.String("column")
				if err != nil {
					return nil, err
				}
				to, err := inv.Args.String("to")
				if err != nil {
					return nil, err
				}
				c, err := t.Column(from)
				if err != nil {
					return nil, err
				}
				if t.HasColumn(to) {
					return nil, fmt.Errorf("skills: column %q already exists", to)
				}
				cols := make([]*dataset.Column, 0, t.NumCols())
				for _, existing := range t.Columns() {
					if existing == c {
						cols = append(cols, c.Rename(to))
					} else {
						cols = append(cols, existing)
					}
				}
				out, err := dataset.NewTable(t.Name(), cols...)
				if err != nil {
					return nil, err
				}
				return &Result{Table: out}, nil
			},
		},
		{
			Name:     "NewColumn",
			Category: DataWrangling,
			Summary:  "Create a new column from a formula or constant text",
			Params: []ParamSpec{
				{"name", "string", true, "new column name"},
				{"formula", "expression", false, "expression computed per row"},
				{"text", "string", false, "constant text value"},
			},
			GEL:        "Create a new column {name} with {formula}",
			Relational: true,
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				t, err := singleInput(ctx, inv)
				if err != nil {
					return nil, err
				}
				name, err := inv.Args.String("name")
				if err != nil {
					return nil, err
				}
				e, err := newColumnExpr(inv.Args)
				if err != nil {
					return nil, err
				}
				col, err := evalColumn(t, name, e)
				if err != nil {
					return nil, err
				}
				out, err := t.WithColumn(col)
				if err != nil {
					return nil, err
				}
				return &Result{Table: out}, nil
			},
			MergeSQL: func(b *QueryBuilder, inv Invocation) error {
				name, err := inv.Args.String("name")
				if err != nil {
					return err
				}
				e, err := newColumnExpr(inv.Args)
				if err != nil {
					return err
				}
				b.AddColumn(name, e)
				return nil
			},
		},
		{
			Name:     "ChangeType",
			Category: DataWrangling,
			Summary:  "Convert a column to another type",
			Params: []ParamSpec{
				{"column", "column", true, "column to convert"},
				{"type", "string", true, "target type: int, float, string, bool, or time"},
			},
			GEL: "Change the type of {column} to {type}",
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				t, err := singleInput(ctx, inv)
				if err != nil {
					return nil, err
				}
				colName, err := inv.Args.String("column")
				if err != nil {
					return nil, err
				}
				e := expr.Func("CAST", expr.Column(colName), expr.Lit(dataset.Str(inv.Args.StringOr("type", "string"))))
				col, err := evalColumn(t, colName, e)
				if err != nil {
					return nil, err
				}
				out, err := t.WithColumn(col)
				if err != nil {
					return nil, err
				}
				return &Result{Table: out}, nil
			},
		},
		{
			Name:     "FillNull",
			Category: DataWrangling,
			Summary:  "Replace null values in a column with a constant",
			Params: []ParamSpec{
				{"column", "column", true, "column to fill"},
				{"value", "string", true, "replacement value"},
			},
			GEL: "Fill the null values in {column} with {value}",
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				t, err := singleInput(ctx, inv)
				if err != nil {
					return nil, err
				}
				colName, err := inv.Args.String("column")
				if err != nil {
					return nil, err
				}
				valueStr, err := inv.Args.String("value")
				if err != nil {
					return nil, err
				}
				e := expr.Func("COALESCE", expr.Column(colName), expr.Lit(dataset.ParseValue(valueStr)))
				col, err := evalColumn(t, colName, e)
				if err != nil {
					return nil, err
				}
				out, err := t.WithColumn(col)
				if err != nil {
					return nil, err
				}
				return &Result{Table: out}, nil
			},
		},
		{
			Name:     "ReplaceValues",
			Category: DataWrangling,
			Summary:  "Replace every occurrence of a value in a column",
			Params: []ParamSpec{
				{"column", "column", true, "column to rewrite"},
				{"from", "string", true, "value to replace"},
				{"to", "string", true, "replacement value"},
			},
			GEL: "Replace {from} with {to} in the column {column}",
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				t, err := singleInput(ctx, inv)
				if err != nil {
					return nil, err
				}
				colName, err := inv.Args.String("column")
				if err != nil {
					return nil, err
				}
				fromStr, err := inv.Args.String("from")
				if err != nil {
					return nil, err
				}
				toStr, err := inv.Args.String("to")
				if err != nil {
					return nil, err
				}
				c, err := t.Column(colName)
				if err != nil {
					return nil, err
				}
				from := dataset.ParseValue(fromStr)
				to := dataset.ParseValue(toStr)
				out := dataset.NewColumn(c.Name(), dataset.CommonType(c.Type(), to.Type))
				for i := 0; i < c.Len(); i++ {
					v := c.Value(i)
					if !v.IsNull() && dataset.Equal(v, from) {
						out.Append(to)
					} else {
						out.Append(v)
					}
				}
				table, err := t.WithColumn(out)
				if err != nil {
					return nil, err
				}
				return &Result{Table: table}, nil
			},
		},
		{
			Name:     "SortRows",
			Category: DataWrangling,
			Summary:  "Sort rows by one or more columns",
			Params: []ParamSpec{
				{"columns", "columns", true, "sort keys, most significant first"},
				{"descending", "bool", false, "sort in descending order"},
			},
			GEL:        "Sort the rows by {columns}",
			Relational: true,
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				t, err := singleInput(ctx, inv)
				if err != nil {
					return nil, err
				}
				cols, err := inv.Args.StringList("columns")
				if err != nil {
					return nil, err
				}
				desc := make([]bool, len(cols))
				if inv.Args.Bool("descending") {
					for i := range desc {
						desc[i] = true
					}
				}
				out, err := t.SortBy(cols, desc)
				if err != nil {
					return nil, err
				}
				return &Result{Table: out}, nil
			},
			MergeSQL: func(b *QueryBuilder, inv Invocation) error {
				cols, err := inv.Args.StringList("columns")
				if err != nil {
					return err
				}
				desc := make([]bool, len(cols))
				if inv.Args.Bool("descending") {
					for i := range desc {
						desc[i] = true
					}
				}
				b.OrderBy(cols, desc)
				return nil
			},
		},
		{
			Name:     "LimitRows",
			Category: DataWrangling,
			Summary:  "Keep only the first N rows",
			Params: []ParamSpec{
				{"count", "number", true, "maximum rows to keep"},
			},
			GEL:        "Limit the data to {count} rows",
			Relational: true,
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				t, err := singleInput(ctx, inv)
				if err != nil {
					return nil, err
				}
				n, err := inv.Args.Int("count")
				if err != nil {
					return nil, err
				}
				if n < 0 {
					return nil, fmt.Errorf("skills: limit must be non-negative, got %d", n)
				}
				return &Result{Table: t.Head(n)}, nil
			},
			MergeSQL: func(b *QueryBuilder, inv Invocation) error {
				n, err := inv.Args.Int("count")
				if err != nil {
					return err
				}
				if n < 0 {
					return fmt.Errorf("skills: limit must be non-negative, got %d", n)
				}
				b.Limit(n)
				return nil
			},
		},
		{
			Name:     "SampleRows",
			Category: DataWrangling,
			Summary:  "Keep a random fraction of the rows",
			Params: []ParamSpec{
				{"fraction", "number", true, "fraction of rows to keep, in (0, 1]"},
			},
			GEL: "Sample {fraction} of the rows",
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				t, err := singleInput(ctx, inv)
				if err != nil {
					return nil, err
				}
				frac, err := inv.Args.Float("fraction")
				if err != nil {
					return nil, err
				}
				if frac <= 0 || frac > 1 {
					return nil, fmt.Errorf("skills: sample fraction %v out of range (0, 1]", frac)
				}
				rng := rand.New(rand.NewSource(ctx.Seed))
				keep := make([]int, 0, int(float64(t.NumRows())*frac)+1)
				for i := 0; i < t.NumRows(); i++ {
					if rng.Float64() < frac {
						keep = append(keep, i)
					}
				}
				return &Result{Table: t.Take(keep)}, nil
			},
		},
		{
			Name:     "DistinctRows",
			Category: DataWrangling,
			Summary:  "Remove duplicate rows",
			Params: []ParamSpec{
				{"columns", "columns", false, "columns to deduplicate on (all when omitted)"},
			},
			GEL:        "Remove duplicate rows",
			Relational: true,
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				t, err := singleInput(ctx, inv)
				if err != nil {
					return nil, err
				}
				// With explicit columns the result is the distinct
				// combinations of those columns (matching SELECT DISTINCT
				// cols); without, whole duplicate rows are removed.
				if cols := inv.Args.StringListOr("columns"); len(cols) > 0 {
					projected, err := t.Select(cols...)
					if err != nil {
						return nil, err
					}
					t = projected
				}
				out, err := t.Distinct()
				if err != nil {
					return nil, err
				}
				return &Result{Table: out}, nil
			},
			MergeSQL: func(b *QueryBuilder, inv Invocation) error {
				if cols := inv.Args.StringListOr("columns"); len(cols) > 0 {
					b.Project(cols)
				}
				b.Distinct()
				return nil
			},
		},
		{
			Name:     "Concatenate",
			Category: DataWrangling,
			Summary:  "Append one dataset to another, matching columns by name",
			Params: []ParamSpec{
				{"dedupe", "bool", false, "remove duplicate rows after concatenating"},
			},
			GEL: "Concatenate the datasets {inputs}",
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				if len(inv.Inputs) < 2 {
					return nil, fmt.Errorf("skills: Concatenate needs at least two input datasets")
				}
				inputs := make([]*dataset.Table, len(inv.Inputs))
				for i, name := range inv.Inputs {
					var err error
					if inputs[i], err = ctx.Dataset(name); err != nil {
						return nil, err
					}
				}
				out := dataset.Concat(inputs)
				if inv.Args.Bool("dedupe") {
					var err error
					if out, err = out.Distinct(); err != nil {
						return nil, err
					}
				}
				return &Result{Table: out}, nil
			},
		},
		{
			Name:     "JoinDatasets",
			Category: DataWrangling,
			Summary:  "Join two datasets on matching key columns",
			Params: []ParamSpec{
				{"on", "string", true, "join condition, e.g. left.id = right.person_id"},
				{"kind", "string", false, "inner (default), left, or cross"},
				{"columns", "columns", false, "output column order (plan join reordering)"},
			},
			GEL: "Join the datasets {inputs} on {on}",
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				if len(inv.Inputs) != 2 {
					return nil, fmt.Errorf("skills: JoinDatasets needs exactly two input datasets")
				}
				project := func(res *Result, err error) (*Result, error) {
					// The join-reorder pass permutes probe sides and pins the
					// original output column order back with "columns".
					cols := inv.Args.StringListOr("columns")
					if err != nil || len(cols) == 0 {
						return res, err
					}
					t, serr := res.Table.Select(cols...)
					if serr != nil {
						return nil, serr
					}
					return &Result{Table: t, Message: res.Message, Degraded: res.Degraded, DegradedNote: res.DegradedNote}, nil
				}
				left, err := ctx.Dataset(inv.Inputs[0])
				if err != nil {
					return nil, err
				}
				right, err := ctx.Dataset(inv.Inputs[1])
				if err != nil {
					return nil, err
				}
				on, err := inv.Args.String("on")
				if err != nil {
					return nil, err
				}
				lName, rName := inv.Inputs[0], inv.Inputs[1]
				tables := map[string]*dataset.Table{lName: left, rName: right}
				kindWord := strings.ToUpper(inv.Args.StringOr("kind", "inner"))
				var joinSQL string
				switch kindWord {
				case "INNER":
					joinSQL = "JOIN"
				case "LEFT":
					joinSQL = "LEFT JOIN"
				case "CROSS":
					res, err := sqlOverTables(tables,
						fmt.Sprintf("SELECT * FROM %s CROSS JOIN %s", lName, rName))
					return project(res, err)
				default:
					return nil, fmt.Errorf("skills: unknown join kind %q", kindWord)
				}
				query := fmt.Sprintf("SELECT * FROM %s %s %s ON %s", lName, joinSQL, rName, on)
				res, err := sqlOverTables(tables, query)
				return project(res, err)
			},
		},
		{
			Name:     "Compute",
			Category: DataWrangling,
			Summary:  "Compute aggregates, optionally grouped",
			Params: []ParamSpec{
				{"aggregates", "aggregates", true, "aggregates like 'count of case_id as NumberOfCases'"},
				{"for_each", "columns", false, "grouping columns"},
			},
			GEL:        "Compute the {aggregates} for each {for_each}",
			PyName:     "compute",
			Relational: true,
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				t, err := singleInput(ctx, inv)
				if err != nil {
					return nil, err
				}
				aggs, err := inv.Args.AggSpecs("aggregates")
				if err != nil {
					return nil, err
				}
				keys := inv.Args.StringListOr("for_each")
				out, err := computeGrouped(t, aggs, keys)
				if err != nil {
					return nil, err
				}
				return &Result{Table: out}, nil
			},
			MergeSQL: func(b *QueryBuilder, inv Invocation) error {
				aggs, err := inv.Args.AggSpecs("aggregates")
				if err != nil {
					return err
				}
				return b.GroupBy(aggs, inv.Args.StringListOr("for_each"))
			},
		},
		{
			Name:     "Pivot",
			Category: DataWrangling,
			Summary:  "Pivot a category column into one measure column per category",
			Params: []ParamSpec{
				{"rows", "column", true, "column whose values become output rows"},
				{"columns", "column", true, "column whose values become output columns"},
				{"measure", "aggregates", true, "aggregate applied per cell, e.g. 'sum of amount'"},
			},
			GEL: "Pivot {columns} against {rows} computing {measure}",
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				t, err := singleInput(ctx, inv)
				if err != nil {
					return nil, err
				}
				return applyPivot(t, inv.Args)
			},
		},
		{
			Name:     "Bin",
			Category: DataWrangling,
			Summary:  "Bucket a numeric column into fixed-width bins",
			Params: []ParamSpec{
				{"column", "column", true, "numeric column to bin"},
				{"size", "number", true, "bin width"},
				{"name", "string", false, "output column name (defaults to <column>Int<size>)"},
			},
			GEL:        "Create bins of size {size} on {column}",
			Relational: true,
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				t, err := singleInput(ctx, inv)
				if err != nil {
					return nil, err
				}
				name, e, err := binExpr(inv.Args)
				if err != nil {
					return nil, err
				}
				col, err := evalColumn(t, name, e)
				if err != nil {
					return nil, err
				}
				out, err := t.WithColumn(col)
				if err != nil {
					return nil, err
				}
				return &Result{Table: out}, nil
			},
			MergeSQL: func(b *QueryBuilder, inv Invocation) error {
				name, e, err := binExpr(inv.Args)
				if err != nil {
					return err
				}
				b.AddColumn(name, e)
				return nil
			},
		},
		{
			Name:     "ExtractDatePart",
			Category: DataWrangling,
			Summary:  "Extract the year, month, or day from a date column",
			Params: []ParamSpec{
				{"column", "column", true, "date column"},
				{"part", "string", true, "year, month, or day"},
				{"name", "string", false, "output column name"},
			},
			GEL:        "Extract the {part} from {column}",
			Relational: true,
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				t, err := singleInput(ctx, inv)
				if err != nil {
					return nil, err
				}
				name, e, err := datePartExpr(inv.Args)
				if err != nil {
					return nil, err
				}
				col, err := evalColumn(t, name, e)
				if err != nil {
					return nil, err
				}
				out, err := t.WithColumn(col)
				if err != nil {
					return nil, err
				}
				return &Result{Table: out}, nil
			},
			MergeSQL: func(b *QueryBuilder, inv Invocation) error {
				name, e, err := datePartExpr(inv.Args)
				if err != nil {
					return err
				}
				b.AddColumn(name, e)
				return nil
			},
		},
	}
}

func newColumnExpr(args Args) (expr.Expr, error) {
	if text, err := args.String("text"); err == nil {
		return expr.Lit(dataset.Str(text)), nil
	}
	formula, err := args.String("formula")
	if err != nil {
		return nil, fmt.Errorf("skills: NewColumn needs either a formula or text parameter")
	}
	return parseCondition(formula)
}

func binExpr(args Args) (string, expr.Expr, error) {
	colName, err := args.String("column")
	if err != nil {
		return "", nil, err
	}
	size, err := args.Float("size")
	if err != nil {
		return "", nil, err
	}
	if size <= 0 {
		return "", nil, fmt.Errorf("skills: bin size must be positive, got %v", size)
	}
	name := args.StringOr("name", fmt.Sprintf("%sInt%d", colName, int(size)))
	// FLOOR(col / size) * size
	e := expr.Bin(expr.OpMul,
		expr.Func("FLOOR", expr.Bin(expr.OpDiv, expr.Column(colName), expr.Lit(dataset.Float(size)))),
		expr.Lit(dataset.Float(size)))
	return name, e, nil
}

func datePartExpr(args Args) (string, expr.Expr, error) {
	colName, err := args.String("column")
	if err != nil {
		return "", nil, err
	}
	part := strings.ToUpper(args.StringOr("part", ""))
	switch part {
	case "YEAR", "MONTH", "DAY":
	default:
		return "", nil, fmt.Errorf("skills: date part must be year, month, or day; got %q", part)
	}
	name := args.StringOr("name", colName+"_"+strings.ToLower(part))
	return name, expr.Func(part, expr.Column(colName)), nil
}

// sqlOverTables executes a query against an ad-hoc catalog; the helper the
// direct path uses for joins and pivots.
func sqlOverTables(tables map[string]*dataset.Table, query string) (*Result, error) {
	out, err := sqlengine.Exec(sqlengine.NewMapCatalog(tables), query)
	if err != nil {
		return nil, err
	}
	return &Result{Table: out}, nil
}

// computeGrouped is the direct (non-SQL) implementation of Compute.
func computeGrouped(t *dataset.Table, aggs []AggSpec, keys []string) (*dataset.Table, error) {
	keyCols := make([]*dataset.Column, len(keys))
	for i, k := range keys {
		c, err := t.Column(k)
		if err != nil {
			return nil, err
		}
		keyCols[i] = c
	}
	type group struct {
		first int
		rows  []int
	}
	groups := map[string]*group{}
	var order []string
	for r := 0; r < t.NumRows(); r++ {
		var kb strings.Builder
		for _, c := range keyCols {
			v := c.Value(r)
			kb.WriteString(v.Type.String())
			kb.WriteByte(':')
			kb.WriteString(v.String())
			kb.WriteByte('\x00')
		}
		key := kb.String()
		g, ok := groups[key]
		if !ok {
			g = &group{first: r}
			groups[key] = g
			order = append(order, key)
		}
		g.rows = append(g.rows, r)
	}
	if len(keys) == 0 && len(order) == 0 {
		// Aggregate over an empty ungrouped table still yields one row.
		groups[""] = &group{first: -1}
		order = append(order, "")
	}
	// Resolve aggregate input columns once.
	aggCols := make([]*dataset.Column, len(aggs))
	for i, a := range aggs {
		if a.Column == "*" || a.Column == "" {
			continue
		}
		c, err := t.Column(a.Column)
		if err != nil {
			return nil, err
		}
		aggCols[i] = c
	}
	outCols := make([]*dataset.Column, 0, len(keys)+len(aggs))
	for i, k := range keys {
		_ = k
		outCols = append(outCols, dataset.NewColumn(keyCols[i].Name(), keyCols[i].Type()))
	}
	aggBuilders := make([][]dataset.Value, len(aggs))
	for _, key := range order {
		g := groups[key]
		for i := range keys {
			if g.first >= 0 {
				outCols[i].Append(keyCols[i].Value(g.first))
			} else {
				outCols[i].Append(dataset.Null)
			}
		}
		for ai, a := range aggs {
			v, err := directAgg(a, aggCols[ai], g.rows)
			if err != nil {
				return nil, err
			}
			aggBuilders[ai] = append(aggBuilders[ai], v)
		}
	}
	for ai, a := range aggs {
		typ := dataset.TypeNull
		for _, v := range aggBuilders[ai] {
			if !v.IsNull() {
				typ = dataset.CommonType(typ, v.Type)
			}
		}
		if typ == dataset.TypeNull {
			typ = dataset.TypeFloat
		}
		col := dataset.NewColumn(a.OutName(), typ)
		for _, v := range aggBuilders[ai] {
			col.Append(v)
		}
		outCols = append(outCols, col)
	}
	out, err := dataset.NewTable(t.Name(), outCols...)
	if err != nil {
		return nil, err
	}
	// Deterministic output order: sort by the group keys.
	if len(keys) > 0 {
		return out.SortBy(keys, nil)
	}
	return out, nil
}

func directAgg(a AggSpec, col *dataset.Column, rows []int) (dataset.Value, error) {
	if a.Column == "*" || a.Column == "" {
		if strings.ToLower(a.Func) != "count" {
			return dataset.Null, fmt.Errorf("skills: %s requires a column", a.Func)
		}
		return dataset.Int(int64(len(rows))), nil
	}
	var vals []dataset.Value
	seen := map[string]bool{}
	distinct := strings.ToLower(a.Func) == "count_distinct"
	for _, r := range rows {
		v := col.Value(r)
		if v.IsNull() {
			continue
		}
		if distinct {
			key := v.Type.String() + ":" + v.String()
			if seen[key] {
				continue
			}
			seen[key] = true
		}
		vals = append(vals, v)
	}
	switch strings.ToLower(a.Func) {
	case "count", "count_distinct":
		return dataset.Int(int64(len(vals))), nil
	case "min", "max":
		if len(vals) == 0 {
			return dataset.Null, nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			cmp := dataset.Compare(v, best)
			if (strings.EqualFold(a.Func, "min") && cmp < 0) || (strings.EqualFold(a.Func, "max") && cmp > 0) {
				best = v
			}
		}
		return best, nil
	case "sum", "avg", "average", "median", "stddev":
		if len(vals) == 0 {
			return dataset.Null, nil
		}
		nums := make([]float64, 0, len(vals))
		allInt := true
		for _, v := range vals {
			f, ok := v.AsFloat()
			if !ok {
				return dataset.Null, fmt.Errorf("skills: %s over non-numeric column %q", a.Func, a.Column)
			}
			if v.Type != dataset.TypeInt {
				allInt = false
			}
			nums = append(nums, f)
		}
		switch strings.ToLower(a.Func) {
		case "sum":
			if allInt {
				// Exact in int64, as the SQL engine sums ints.
				var total int64
				for _, v := range vals {
					next := total + v.I
					if (total^next)&(v.I^next) < 0 {
						return dataset.Null, fmt.Errorf("skills: %s of %q overflows int64", a.Func, a.Column)
					}
					total = next
				}
				return dataset.Int(total), nil
			}
			total := 0.0
			for _, f := range nums {
				total += f
			}
			return dataset.Float(total), nil
		case "avg", "average":
			total := 0.0
			for _, f := range nums {
				total += f
			}
			return dataset.Float(total / float64(len(nums))), nil
		case "median":
			sort.Float64s(nums)
			mid := len(nums) / 2
			if len(nums)%2 == 1 {
				return dataset.Float(nums[mid]), nil
			}
			return dataset.Float((nums[mid-1] + nums[mid]) / 2), nil
		default: // stddev (population)
			mean := 0.0
			for _, f := range nums {
				mean += f
			}
			mean /= float64(len(nums))
			ss := 0.0
			for _, f := range nums {
				ss += (f - mean) * (f - mean)
			}
			return dataset.Float(sqrt(ss / float64(len(nums)))), nil
		}
	default:
		return dataset.Null, fmt.Errorf("skills: unknown aggregate function %q", a.Func)
	}
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	// Newton's method; avoids importing math for one call site.
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}

func applyPivot(t *dataset.Table, args Args) (*Result, error) {
	rowsCol, err := args.String("rows")
	if err != nil {
		return nil, err
	}
	colsName, err := args.String("columns")
	if err != nil {
		return nil, err
	}
	measures, err := args.AggSpecs("measure")
	if err != nil {
		return nil, err
	}
	if len(measures) != 1 {
		return nil, fmt.Errorf("skills: Pivot takes exactly one measure, got %d", len(measures))
	}
	measure := measures[0]
	rc, err := t.Column(rowsCol)
	if err != nil {
		return nil, err
	}
	cc, err := t.Column(colsName)
	if err != nil {
		return nil, err
	}
	var mc *dataset.Column
	if measure.Column != "*" && measure.Column != "" {
		if mc, err = t.Column(measure.Column); err != nil {
			return nil, err
		}
	}
	rowKeys, colKeys := map[string]int{}, map[string]int{}
	var rowOrder, colOrder []string
	cells := map[[2]string][]int{}
	for r := 0; r < t.NumRows(); r++ {
		rv := rc.Value(r).String()
		cv := cc.Value(r).String()
		if _, ok := rowKeys[rv]; !ok {
			rowKeys[rv] = len(rowOrder)
			rowOrder = append(rowOrder, rv)
		}
		if _, ok := colKeys[cv]; !ok {
			colKeys[cv] = len(colOrder)
			colOrder = append(colOrder, cv)
		}
		key := [2]string{rv, cv}
		cells[key] = append(cells[key], r)
	}
	sort.Strings(rowOrder)
	sort.Strings(colOrder)
	outCols := make([]*dataset.Column, 0, 1+len(colOrder))
	labelCol := dataset.NewColumn(rowsCol, dataset.TypeString)
	for _, rv := range rowOrder {
		labelCol.Append(dataset.Str(rv))
	}
	outCols = append(outCols, labelCol)
	for _, cv := range colOrder {
		col := dataset.NewColumn(cv, dataset.TypeFloat)
		for _, rv := range rowOrder {
			rows := cells[[2]string{rv, cv}]
			if len(rows) == 0 {
				col.Append(dataset.Null)
				continue
			}
			v, err := directAgg(measure, mc, rows)
			if err != nil {
				return nil, err
			}
			col.Append(v)
		}
		outCols = append(outCols, col)
	}
	out, err := dataset.NewTable(t.Name()+"_pivot", outCols...)
	if err != nil {
		return nil, err
	}
	return &Result{Table: out}, nil
}
