package skills

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"strings"

	"datachat/internal/dataset"
	"datachat/internal/expr"
	"datachat/internal/sqlengine"
)

func ingestionSkills() []*Definition {
	return []*Definition{
		{
			Name:     "LoadData",
			Category: DataIngestion,
			Summary:  "Load a CSV file or URL into the session",
			Params: []ParamSpec{
				{"source", "string", true, "file name or URL to load"},
				{"name", "string", false, "dataset name (defaults to the file stem)"},
			},
			GEL:        sentences("Load data from the URL {source}", "Load data from the file {source}"),
			Standalone: true,
			Volatile:   true, // re-registered files must be re-read
			Replayable: true, // parsing a session file is free of cost and side effects
			// The file's content hash keys the cache, so LoadData (and its
			// descendants) cache across requests yet re-registering a file
			// with new bytes changes every downstream key. The hash was
			// taken when the file was registered (NewFile).
			SourceFingerprint: func(ctx *Context, args Args) (uint64, bool) {
				source, err := args.String("source")
				if err != nil {
					return 0, false
				}
				return ctx.FileHash(source)
			},
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				source, err := inv.Args.String("source")
				if err != nil {
					return nil, err
				}
				content, ok := ctx.File(source)
				if !ok {
					return nil, fmt.Errorf("skills: no file or URL %q is registered with the session", source)
				}
				name := inv.Args.StringOr("name", datasetNameFromSource(source))
				t, err := dataset.ReadCSVString(name, content)
				if err != nil {
					return nil, err
				}
				return &Result{Table: t, Message: fmt.Sprintf("Loaded %d rows × %d columns as %s", t.NumRows(), t.NumCols(), name)}, nil
			},
		},
		{
			Name:     "LoadTable",
			Category: DataIngestion,
			Summary:  "Load a table from a connected cloud database (full scan)",
			Params: []ParamSpec{
				{"database", "string", true, "connected database name"},
				{"table", "string", true, "table to load"},
				{"condition", "expression", false, "filter applied to the scanned rows (plan pushdown)"},
				{"columns", "columns", false, "columns to fetch (plan pushdown)"},
			},
			GEL:        sentences("Load the table {table} from the database {database}"),
			Standalone: true,
			Volatile:   true, // cloud tables change outside the DAG
			// The warehouse computes a content fingerprint at ingest and
			// serves it as free metadata (cloud.TableStats), so the scan's
			// cache key tracks the stored data: an unchanged table cache-hits
			// with zero Scan calls, a refreshed table changes every
			// downstream key. Metadata reads cost nothing and are never
			// fault-injected, so this probe cannot itself fail a run.
			SourceFingerprint: func(ctx *Context, args Args) (uint64, bool) {
				dbName, err := args.String("database")
				if err != nil {
					return 0, false
				}
				tableName, err := args.String("table")
				if err != nil {
					return 0, false
				}
				db, ok := ctx.Cloud[dbName]
				if !ok {
					return 0, false
				}
				st, err := db.Stats(tableName)
				if err != nil {
					return 0, false
				}
				h := fnv.New64a()
				io.WriteString(h, dbName)
				h.Write([]byte{0})
				io.WriteString(h, tableName)
				h.Write([]byte{0})
				var buf [8]byte
				binary.LittleEndian.PutUint64(buf[:], st.Fingerprint)
				h.Write(buf[:])
				return h.Sum64(), true
			},
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				dbName, err := inv.Args.String("database")
				if err != nil {
					return nil, err
				}
				tableName, err := inv.Args.String("table")
				if err != nil {
					return nil, err
				}
				db, ok := ctx.Cloud[dbName]
				if !ok {
					return nil, fmt.Errorf("skills: no connected database %q", dbName)
				}
				t, err := db.Scan(tableName)
				if err != nil {
					if res := degradedScan(ctx, db, tableName, err); res != nil {
						if res.Table, err = applyScanPushdown(res.Table, inv); err != nil {
							return nil, err
						}
						return res, nil
					}
					return nil, err
				}
				if t, err = applyScanPushdown(t, inv); err != nil {
					return nil, err
				}
				return &Result{Table: t}, nil
			},
		},
		{
			Name:     "UseDataset",
			Category: DataIngestion,
			Summary:  "Select an existing session dataset as the working data",
			Params: []ParamSpec{
				{"dataset", "string", true, "dataset name"},
				{"version", "number", false, "dataset version (informational)"},
			},
			GEL:        sentences("Use the dataset {dataset}, version {version:number}", "Use the dataset {dataset}"),
			Standalone: true,
			Volatile:   true, // resolves whatever the session currently holds
			// The held table's content hash keys the cache, so pipelines
			// rooted at a session dataset cache across requests, yet
			// replacing the dataset (PutDataset drops the memoized hash)
			// changes every downstream key.
			SourceFingerprint: func(ctx *Context, args Args) (uint64, bool) {
				name, err := args.String("dataset")
				if err != nil {
					return 0, false
				}
				fp, err := ctx.Fingerprint(name)
				if err != nil {
					return 0, false
				}
				return fp, true
			},
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				name, err := inv.Args.String("dataset")
				if err != nil {
					return nil, err
				}
				t, err := ctx.Dataset(name)
				if err != nil {
					return nil, err
				}
				return &Result{Table: t}, nil
			},
		},
	}
}

// applyScanPushdown applies the optional "condition" and "columns"
// parameters the plan pushdown pass injects into scan skills, so sampling
// and snapshot reads materialize fewer rows and columns (§3): they are the
// consumer's own KeepRows and KeepColumns rules, run over the scanned table —
// the filter first, then the projection.
func applyScanPushdown(t *dataset.Table, inv Invocation) (*dataset.Table, error) {
	_, cond := inv.Args["condition"]
	_, cols := inv.Args["columns"]
	if !cond && !cols {
		return t, nil
	}
	b := NewQueryBuilder(t.Name())
	if cond {
		if err := where(b, inv.Args, "condition", false); err != nil {
			return nil, err
		}
	}
	if cols {
		if err := keepColumns(b, inv); err != nil {
			return nil, err
		}
	}
	return sqlengine.ExecOn(t, b.Stmt())
}

func datasetNameFromSource(source string) string {
	name := source
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	if i := strings.IndexByte(name, '?'); i >= 0 {
		name = name[:i]
	}
	if i := strings.LastIndexByte(name, '.'); i > 0 {
		name = name[:i]
	}
	if name == "" {
		return "data"
	}
	return name
}

func costControlSkills() []*Definition {
	return []*Definition{
		{
			Name:     "SampleTable",
			Category: CostControl,
			Summary:  "Load a block-level sample of a cloud table at a fraction of the scan cost",
			Params: []ParamSpec{
				{"database", "string", true, "connected database name"},
				{"table", "string", true, "table to sample"},
				{"rate", "number", true, "sample rate in (0, 1], e.g. 0.1 for 10%"},
				{"condition", "expression", false, "filter applied to the sampled rows (plan pushdown)"},
				{"columns", "columns", false, "columns to fetch (plan pushdown)"},
			},
			GEL:        sentences("Sample {rate:number} of the table {table} from the database {database}"),
			Standalone: true,
			Volatile:   true, // cloud tables change outside the DAG
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				dbName, err := inv.Args.String("database")
				if err != nil {
					return nil, err
				}
				tableName, err := inv.Args.String("table")
				if err != nil {
					return nil, err
				}
				rate, err := inv.Args.Float("rate")
				if err != nil {
					return nil, err
				}
				db, ok := ctx.Cloud[dbName]
				if !ok {
					return nil, fmt.Errorf("skills: no connected database %q", dbName)
				}
				t, err := db.SampleBlocks(tableName, rate, ctx.Seed)
				if err != nil {
					return nil, err
				}
				sampled := t.NumRows()
				if t, err = applyScanPushdown(t, inv); err != nil {
					return nil, err
				}
				return &Result{Table: t, Message: fmt.Sprintf("Sampled %d rows at rate %v", sampled, rate)}, nil
			},
		},
		{
			Name:     "CreateSnapshot",
			Category: CostControl,
			Summary:  "Cache a cloud table (or a sample) in the fixed-cost local store",
			Params: []ParamSpec{
				{"name", "string", true, "snapshot name"},
				{"database", "string", true, "source database"},
				{"table", "string", true, "source table"},
				{"rate", "number", false, "sample rate (defaults to a full copy)"},
			},
			GEL:         sentences("Create a snapshot {name} of the table {table} from the database {database}"),
			Standalone:  true,
			Volatile:    true,
			Invalidates: true, // writes the shared snapshot store
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				if ctx.Snapshots == nil {
					return nil, fmt.Errorf("skills: no snapshot store is configured")
				}
				name, err := inv.Args.String("name")
				if err != nil {
					return nil, err
				}
				dbName, err := inv.Args.String("database")
				if err != nil {
					return nil, err
				}
				tableName, err := inv.Args.String("table")
				if err != nil {
					return nil, err
				}
				db, ok := ctx.Cloud[dbName]
				if !ok {
					return nil, fmt.Errorf("skills: no connected database %q", dbName)
				}
				rate := inv.Args.FloatOr("rate", 1)
				snap, err := ctx.Snapshots.Create(name, db, tableName, rate, ctx.Seed)
				if err != nil {
					return nil, err
				}
				return &Result{Table: snap.Data, Message: fmt.Sprintf("Snapshot %s holds %d rows", name, snap.Data.NumRows())}, nil
			},
		},
		{
			Name:     "UseSnapshot",
			Category: CostControl,
			Summary:  "Load a snapshot from the local store (free of cloud cost)",
			Params: []ParamSpec{
				{"name", "string", true, "snapshot name"},
				{"condition", "expression", false, "filter applied to the snapshot rows (plan pushdown)"},
				{"columns", "columns", false, "columns to read (plan pushdown)"},
			},
			GEL:        sentences("Use the snapshot {name}"),
			Standalone: true,
			Volatile:   true, // snapshot contents change on refresh
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				if ctx.Snapshots == nil {
					return nil, fmt.Errorf("skills: no snapshot store is configured")
				}
				name, err := inv.Args.String("name")
				if err != nil {
					return nil, err
				}
				t, err := ctx.Snapshots.Get(name)
				if err != nil {
					return nil, err
				}
				if t, err = applyScanPushdown(t, inv); err != nil {
					return nil, err
				}
				return &Result{Table: t}, nil
			},
		},
		{
			Name:     "RefreshSnapshot",
			Category: CostControl,
			Summary:  "Re-pull a snapshot from its source cloud database",
			Params: []ParamSpec{
				{"name", "string", true, "snapshot name"},
				{"database", "string", true, "source database"},
			},
			GEL:         sentences("Refresh the snapshot {name} from the database {database}"),
			Standalone:  true,
			Volatile:    true,
			Invalidates: true, // re-pulls shared source data
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				if ctx.Snapshots == nil {
					return nil, fmt.Errorf("skills: no snapshot store is configured")
				}
				name, err := inv.Args.String("name")
				if err != nil {
					return nil, err
				}
				dbName, err := inv.Args.String("database")
				if err != nil {
					return nil, err
				}
				db, ok := ctx.Cloud[dbName]
				if !ok {
					return nil, fmt.Errorf("skills: no connected database %q", dbName)
				}
				snap, err := ctx.Snapshots.Refresh(name, db)
				if err != nil {
					return nil, err
				}
				return &Result{Table: snap.Data, Message: fmt.Sprintf("Snapshot %s refreshed at %s", name, snap.RefreshedAt.Format("2006-01-02 15:04:05"))}, nil
			},
		},
	}
}

func explorationSkills() []*Definition {
	return []*Definition{
		{
			Name:     "DescribeColumn",
			Category: DataExploration,
			Summary:  "Summarize one column: type, nulls, distincts, and statistics",
			Params: []ParamSpec{
				{"column", "column", true, "column to describe"},
			},
			GEL: sentences("Describe the column {column}"),
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				t, err := singleInput(ctx, inv)
				if err != nil {
					return nil, err
				}
				colName, err := inv.Args.String("column")
				if err != nil {
					return nil, err
				}
				c, err := t.Column(colName)
				if err != nil {
					return nil, err
				}
				return describe(t.Name(), []*dataset.Column{c})
			},
		},
		{
			Name:     "DescribeDataset",
			Category: DataExploration,
			Summary:  "Summarize every column of the dataset",
			Params:   nil,
			GEL:      sentences("Describe the dataset"),
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				t, err := singleInput(ctx, inv)
				if err != nil {
					return nil, err
				}
				return describe(t.Name(), t.Columns())
			},
		},
		{
			Name:     "ShowDataset",
			Category: DataExploration,
			Summary:  "Preview the first rows of the dataset",
			Params: []ParamSpec{
				{"rows", "number", false, "rows to show (default 10)"},
			},
			GEL: sentences("Show the dataset"),
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				t, err := singleInput(ctx, inv)
				if err != nil {
					return nil, err
				}
				n := inv.Args.IntOr("rows", 10)
				if n < 0 {
					return nil, fmt.Errorf("skills: rows must be non-negative, got %d", n)
				}
				return &Result{Table: t.Head(n), Message: fmt.Sprintf("%s has %d rows × %d columns", t.Name(), t.NumRows(), t.NumCols())}, nil
			},
		},
		{
			Name:     "CountRows",
			Category: DataExploration,
			Summary:  "Count the rows in the dataset",
			Params:   nil,
			GEL:      sentences("Count the rows"),
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				t, err := singleInput(ctx, inv)
				if err != nil {
					return nil, err
				}
				out := dataset.MustNewTable("count",
					dataset.IntColumn("rows", []int64{int64(t.NumRows())}, nil))
				return &Result{Table: out}, nil
			},
		},
		{
			Name:       "ListDatasets",
			Category:   DataExploration,
			Summary:    "List the session's datasets with shapes and columns",
			Params:     nil,
			GEL:        sentences("List the datasets"),
			Standalone: true,
			Volatile:   true, // reflects live session state
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				names := ctx.DatasetNames()
				nameCol := dataset.NewColumn("DatasetName", dataset.TypeString)
				rowsCol := dataset.NewColumn("NumRows", dataset.TypeInt)
				colsCol := dataset.NewColumn("NumColumns", dataset.TypeInt)
				columnsCol := dataset.NewColumn("Columns", dataset.TypeString)
				for _, name := range names {
					t, err := ctx.Dataset(name)
					if err != nil {
						continue
					}
					nameCol.Append(dataset.Str(name))
					rowsCol.Append(dataset.Int(int64(t.NumRows())))
					colsCol.Append(dataset.Int(int64(t.NumCols())))
					columnsCol.Append(dataset.Str(strings.Join(t.ColumnNames(), ", ")))
				}
				out, err := dataset.NewTable("datasets", nameCol, rowsCol, colsCol, columnsCol)
				if err != nil {
					return nil, err
				}
				return &Result{Table: out}, nil
			},
		},
		{
			Name:     "Correlate",
			Category: DataExploration,
			Summary:  "Compute the Pearson correlation between two numeric columns",
			Params: []ParamSpec{
				{"column1", "column", true, "first numeric column"},
				{"column2", "column", true, "second numeric column"},
			},
			GEL: sentences("Correlate {column1} with {column2}"),
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				t, err := singleInput(ctx, inv)
				if err != nil {
					return nil, err
				}
				c1Name, err := inv.Args.String("column1")
				if err != nil {
					return nil, err
				}
				c2Name, err := inv.Args.String("column2")
				if err != nil {
					return nil, err
				}
				r, n, err := pearson(t, c1Name, c2Name)
				if err != nil {
					return nil, err
				}
				out := dataset.MustNewTable("correlation",
					dataset.StringColumn("columns", []string{c1Name + " ~ " + c2Name}, nil),
					dataset.FloatColumn("pearson_r", []float64{r}, nil),
					dataset.IntColumn("rows_used", []int64{int64(n)}, nil))
				return &Result{Table: out, Message: fmt.Sprintf("Pearson r = %.4f over %d rows", r, n)}, nil
			},
		},
		{
			Name:     "TopValues",
			Category: DataExploration,
			Summary:  "List the most frequent values of a column",
			Params: []ParamSpec{
				{"column", "column", true, "column to count"},
				{"count", "number", false, "values to show (default 10)"},
			},
			GEL: sentences("Show the top values of {column}"),
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				t, err := singleInput(ctx, inv)
				if err != nil {
					return nil, err
				}
				colName, err := inv.Args.String("column")
				if err != nil {
					return nil, err
				}
				c, err := t.Column(colName)
				if err != nil {
					return nil, err
				}
				k := inv.Args.IntOr("count", 10)
				if k < 0 { // a negative Limit is no limit
					return nil, fmt.Errorf("skills: count must be non-negative, got %d", k)
				}
				// The k commonest labels, ties in label order.
				in, stmt, err := sqlengine.Bind(t.Name(), c)
				if err != nil {
					return nil, err
				}
				label := sqlengine.Label(in, 0)
				stmt.Items = []sqlengine.SelectItem{{Expr: label, Alias: "l"}, {Expr: &sqlengine.AggCall{Name: "COUNT", Star: true}, Alias: "n"}}
				stmt.GroupBy = []expr.Expr{label}
				stmt.OrderBy = []sqlengine.OrderItem{{Expr: expr.Column("n"), Desc: true}, {Expr: expr.Column("l")}}
				stmt.Limit = k
				g, err := sqlengine.ExecOn(in, stmt)
				if err != nil {
					return nil, err
				}
				labels, _, _ := g.Columns()[0].Strs() // over no groups both come back empty
				counts, _, _ := g.Columns()[1].Ints()
				out, err := dataset.NewTable("top_values",
					dataset.StringColumn(colName, labels, nil), dataset.IntColumn("count", counts, nil))
				if err != nil {
					return nil, err
				}
				return &Result{Table: out}, nil
			},
		},
	}
}

// describe builds the DescribeColumn/DescribeDataset summary, one row per
// column, from one statement: COUNT(*) and, per column, COUNT, COUNT
// DISTINCT, MIN, MAX, AVG and STDDEV (the last two null unless the column is
// numeric).
func describe(name string, cols []*dataset.Column) (*Result, error) {
	in, stmt, err := sqlengine.Bind(name, cols...)
	if err != nil {
		return nil, err
	}
	stmt.Items = []sqlengine.SelectItem{{Expr: &sqlengine.AggCall{Name: "COUNT", Star: true}}}
	for i, c := range cols {
		arg := sqlengine.Col(i)
		var avg, sd expr.Expr = expr.Lit(dataset.Null), expr.Lit(dataset.Null)
		if c.Type().Numeric() {
			avg, sd = &sqlengine.AggCall{Name: "AVG", Arg: arg}, &sqlengine.AggCall{Name: "STDDEV", Arg: arg}
		}
		for _, e := range []expr.Expr{&sqlengine.AggCall{Name: "COUNT", Arg: arg}, &sqlengine.AggCall{Name: "COUNT", Arg: arg, Distinct: true},
			&sqlengine.AggCall{Name: "MIN", Arg: arg}, &sqlengine.AggCall{Name: "MAX", Arg: arg}, avg, sd} {
			stmt.Items = append(stmt.Items, sqlengine.SelectItem{Expr: e})
		}
	}
	g, err := sqlengine.ExecOn(in, stmt)
	if err != nil {
		return nil, err
	}
	summary := make([]*dataset.Column, 9)
	for j, name := range []string{"column", "type", "count", "nulls", "distinct", "min", "max", "mean", "stddev"} {
		summary[j] = dataset.NewColumn(name, []dataset.Type{dataset.TypeString, dataset.TypeString, dataset.TypeInt,
			dataset.TypeInt, dataset.TypeInt, dataset.TypeString, dataset.TypeString, dataset.TypeFloat, dataset.TypeFloat}[j])
	}
	row := g.Row(0)
	rendered := func(v dataset.Value) dataset.Value {
		if v.IsNull() {
			return v
		}
		return dataset.Str(v.String())
	}
	for i, c := range cols {
		at := row[1+6*i:] // COUNT, COUNT DISTINCT, MIN, MAX, AVG, STDDEV
		for j, v := range []dataset.Value{dataset.Str(c.Name()), dataset.Str(c.Type().String()), row[0],
			dataset.Int(row[0].I - at[0].I), at[1], rendered(at[2]), rendered(at[3]), at[4], at[5]} {
			summary[j].Append(v)
		}
	}
	out, err := dataset.NewTable(name+"_summary", summary...)
	if err != nil {
		return nil, err
	}
	return &Result{Table: out}, nil
}

func pearson(t *dataset.Table, name1, name2 string) (r float64, n int, err error) {
	c1, err := t.Column(name1)
	if err != nil {
		return 0, 0, err
	}
	c2, err := t.Column(name2)
	if err != nil {
		return 0, 0, err
	}
	v1, ok1 := c1.Floats()
	v2, ok2 := c2.Floats()
	var xs, ys []float64
	for i := range v1 {
		if ok1[i] && ok2[i] {
			xs = append(xs, v1[i])
			ys = append(ys, v2[i])
		}
	}
	if len(xs) < 2 {
		return 0, 0, fmt.Errorf("skills: not enough numeric pairs to correlate %s and %s", name1, name2)
	}
	var sumX, sumY float64
	for i := range xs {
		sumX += xs[i]
		sumY += ys[i]
	}
	meanX, meanY := sumX/float64(len(xs)), sumY/float64(len(ys))
	var cov, varX, varY float64
	for i := range xs {
		dx, dy := xs[i]-meanX, ys[i]-meanY
		cov += dx * dy
		varX += dx * dx
		varY += dy * dy
	}
	if varX == 0 || varY == 0 {
		return 0, len(xs), fmt.Errorf("skills: %s or %s is constant; correlation undefined", name1, name2)
	}
	return cov / math.Sqrt(varX*varY), len(xs), nil
}
