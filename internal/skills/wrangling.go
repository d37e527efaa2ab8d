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

// parseCondition parses a GEL/SQL condition expression.
func parseCondition(s string) (expr.Expr, error) {
	cond, err := sqlengine.ParseExpr(s)
	if err != nil {
		return nil, fmt.Errorf("skills: invalid condition %q: %w", s, err)
	}
	return cond, nil
}

// evalColumn evaluates an expression for every row, producing a new column
// typed by its non-null values; a column that never sees one is a string
// column.
func evalColumn(t *dataset.Table, name string, e expr.Expr) (*dataset.Column, error) {
	v, err := expr.Eval(e, expr.TableBatch(t))
	if err != nil {
		return nil, err
	}
	if c := v.Column(name); c.NullCount() < c.Len() {
		return c, nil
	}
	return (&expr.Vec{Type: dataset.TypeNull, N: v.N}).Column(name), nil
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
			GEL: sentences("Keep the rows where {condition:rest}"),
			MergeSQL: func(b *QueryBuilder, inv Invocation) error {
				return where(b, inv.Args, "condition", false)
			},
		},
		{
			Name:     "DropRows",
			Category: DataWrangling,
			Summary:  "Remove the rows matching a condition",
			Params: []ParamSpec{
				{"condition", "expression", true, "boolean expression of rows to remove"},
			},
			GEL: sentences("Drop the rows where {condition:rest}"),
			MergeSQL: func(b *QueryBuilder, inv Invocation) error {
				return where(b, inv.Args, "condition", true)
			},
		},
		{
			Name:     "KeepColumns",
			Category: DataWrangling,
			Summary:  "Keep only the named columns, in order",
			Params: []ParamSpec{
				{"columns", "columns", true, "columns to keep"},
			},
			GEL:      sentences("Keep the columns {columns:list}"),
			MergeSQL: keepColumns,
		},
		{
			Name:     "DropColumns",
			Category: DataWrangling,
			Summary:  "Remove the named columns",
			Params: []ParamSpec{
				{"columns", "columns", true, "columns to remove"},
			},
			GEL: sentences("Drop the columns {columns:list}"),
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
			GEL: sentences("Rename the column {column} to {to}"),
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
			GEL: sentences(
				"Create a new column {name} with text {text:rest}",
				"Create a new column {name} as {formula:rest}",
				"Create a new column {name} with {formula:rest}"),
			MergeSQL: addColumn(newColumnExpr),
		},
		{
			Name:     "ChangeType",
			Category: DataWrangling,
			Summary:  "Convert a column to another type",
			Params: []ParamSpec{
				{"column", "column", true, "column to convert"},
				{"type", "string", true, "target type: int, float, string, bool, or time"},
			},
			GEL: sentences("Change the type of {column} to {type}"),
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
			GEL: sentences("Fill the null values in {column} with {value}"),
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
			GEL: sentences("Replace {from} with {to} in the column {column}"),
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
			GEL: []Form{
				{Template: "Sort the rows by {columns:list} in descending order", Implies: Args{"descending": true}},
				{Template: "Sort the rows by {columns:list}"},
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
			GEL: sentences("Limit the data to {count:number} rows"),
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
			GEL: sentences("Sample {fraction:number} of the rows"),
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
			GEL: sentences("Remove duplicate rows over {columns:list}", "Remove duplicate rows"),
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
			GEL: []Form{
				{Template: "Concatenate the datasets {inputs:list} remove all duplicates", Implies: Args{"dedupe": true}},
				{Template: "Concatenate the datasets {inputs:list}"},
			},
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
			GEL: []Form{
				{Template: "Left join the datasets {inputs:list} on {on:rest}", Implies: Args{"kind": "left"}},
				{Template: "Cross join the datasets {inputs:list} on {on:rest}", Implies: Args{"kind": "cross"}},
				{Template: "Inner join the datasets {inputs:list} on {on:rest}", Implies: Args{"kind": "inner"}},
				{Template: "Join the datasets {inputs:list} on {on:rest}"},
			},
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
			PyName: "compute",
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
			GEL: sentences("Pivot {columns} against {rows} computing {measure:rest}"),
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
			GEL:      sentences("Create bins of size {size:number} on {column}"),
			MergeSQL: addColumn(binExpr),
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
			GEL:      sentences("Extract the {part} from {column}"),
			MergeSQL: addColumn(datePartExpr),
		},
	}
}

// where is the row filter rule over the condition in args[key]: WHERE
// condition (KeepRows), or WHERE NOT condition when negate is set (DropRows).
func where(b *QueryBuilder, args Args, key string, negate bool) error {
	src, err := args.String(key)
	if err != nil {
		return err
	}
	cond, err := parseCondition(src)
	if err != nil {
		return err
	}
	if negate {
		cond = expr.Not(cond)
	}
	b.Where(cond)
	return nil
}

// keepColumns is KeepColumns' merge rule: SELECT columns.
func keepColumns(b *QueryBuilder, inv Invocation) error {
	cols, err := inv.Args.StringList("columns")
	if err != nil {
		return err
	}
	b.Project(cols)
	return nil
}

// addColumn is the merge rule of a skill that appends one computed column.
func addColumn(column func(Args) (string, expr.Expr, error)) func(*QueryBuilder, Invocation) error {
	return func(b *QueryBuilder, inv Invocation) error {
		name, e, err := column(inv.Args)
		if err != nil {
			return err
		}
		b.AddColumn(name, e)
		return nil
	}
}

func newColumnExpr(args Args) (string, expr.Expr, error) {
	name, err := args.String("name")
	if err != nil {
		return "", nil, err
	}
	if text, err := args.String("text"); err == nil {
		return name, expr.Lit(dataset.Str(text)), nil
	}
	formula, err := args.String("formula")
	if err != nil {
		return "", nil, fmt.Errorf("skills: NewColumn needs either a formula or text parameter")
	}
	e, err := parseCondition(formula)
	return name, e, err
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

// sqlOverTables executes a query over an ad-hoc catalog: JoinDatasets' inputs.
func sqlOverTables(tables map[string]*dataset.Table, query string) (*Result, error) {
	out, err := sqlengine.Exec(sqlengine.NewMapCatalog(tables), query)
	if err != nil {
		return nil, err
	}
	return &Result{Table: out}, nil
}

// applyPivot runs Pivot as one statement (pivotStmt) and reshapes its
// result (pivotTable).
func applyPivot(t *dataset.Table, args Args) (*Result, error) {
	in, stmt, err := pivotStmt(t, args)
	if err != nil {
		return nil, err
	}
	g, err := execOn(in, stmt)
	if err != nil {
		return nil, err
	}
	out, err := pivotTable(t.Name()+"_pivot", g)
	if err != nil {
		return nil, err
	}
	return &Result{Table: out}, nil
}

// pivotStmt is Pivot's statement and the table it reads: t's rows and columns
// as labels r and c — each value's rendering, "null" for null, so values that
// render alike share a cell — beside the measure column m, grouped by r and c
// with the measure of each group.
func pivotStmt(t *dataset.Table, args Args) (*dataset.Table, *sqlengine.SelectStmt, error) {
	rowsCol, err := args.String("rows")
	if err != nil {
		return nil, nil, err
	}
	colsName, err := args.String("columns")
	if err != nil {
		return nil, nil, err
	}
	measures, err := args.AggSpecs("measure")
	if err != nil {
		return nil, nil, err
	}
	if len(measures) != 1 {
		return nil, nil, fmt.Errorf("skills: Pivot takes exactly one measure, got %d", len(measures))
	}
	var cols []*dataset.Column
	for i, name := range []string{rowsCol, colsName} {
		c, err := t.Column(name)
		if err != nil {
			return nil, nil, err
		}
		labels := make([]string, c.Len())
		for r := range labels {
			labels[r] = c.Value(r).String()
		}
		cols = append(cols, dataset.StringColumn([]string{"r", "c"}[i], labels, nil))
	}
	measure := measures[0]
	if measure.Column != "*" && measure.Column != "" {
		m, err := t.Column(measure.Column)
		if err != nil {
			return nil, nil, err
		}
		cols = append(cols, m.Rename("m"))
		measure.Column = "m"
	}
	agg, err := aggCall(measure)
	if err != nil {
		return nil, nil, err
	}
	in, err := dataset.NewTable(t.Name(), cols...)
	if err != nil {
		return nil, nil, err
	}
	return in, &sqlengine.SelectStmt{
		Items:   []sqlengine.SelectItem{{Expr: expr.Column("r"), Alias: rowsCol}, {Expr: expr.Column("c")}, {Expr: agg}},
		From:    &sqlengine.BaseTable{Name: in.Name(), Alias: in.Name()},
		GroupBy: []expr.Expr{expr.Column("r"), expr.Column("c")},
		Limit:   -1,
	}, nil
}

// pivotTable reshapes pivotStmt's groups: one row per rows label, one float
// column per columns label, both sorted as strings, null for a pair no input
// row carries.
func pivotTable(name string, g *dataset.Table) (*dataset.Table, error) {
	rc, cc, mc := g.Columns()[0], g.Columns()[1], g.Columns()[2]
	rowLabels, rowAt := sortedLabels(rc)
	colLabels, colAt := sortedLabels(cc)
	cells := make([][]dataset.Value, len(colLabels))
	for i := range cells {
		cells[i] = make([]dataset.Value, len(rowLabels)) // null until a group fills it
	}
	for r := 0; r < g.NumRows(); r++ {
		cells[colAt[cc.Value(r).S]][rowAt[rc.Value(r).S]] = mc.Value(r)
	}
	cols := []*dataset.Column{dataset.StringColumn(rc.Name(), rowLabels, nil)}
	for i, label := range colLabels {
		col := dataset.NewColumn(label, dataset.TypeFloat)
		for _, v := range cells[i] {
			col.Append(v)
		}
		cols = append(cols, col)
	}
	return dataset.NewTable(name, cols...)
}

// sortedLabels returns the distinct labels of a column, sorted, and each
// one's position among them.
func sortedLabels(c *dataset.Column) ([]string, map[string]int) {
	at := map[string]int{}
	var labels []string
	for r := 0; r < c.Len(); r++ {
		l := c.Value(r).S
		if _, seen := at[l]; !seen {
			at[l] = 0
			labels = append(labels, l)
		}
	}
	sort.Strings(labels)
	for i, l := range labels {
		at[l] = i
	}
	return labels, at
}
