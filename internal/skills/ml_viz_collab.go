package skills

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"time"

	"datachat/internal/dataset"
	"datachat/internal/ml"
	"datachat/internal/sqlengine"
	"datachat/internal/viz"
)

func visualizationSkills() []*Definition {
	return []*Definition{
		{
			Name:     "PlotChart",
			Category: DataVisualization,
			Summary:  "Plot an explicit chart over the dataset",
			Params: []ParamSpec{
				{"chart", "string", true, "chart type: line, bar, scatter, histogram, donut, violin, bubble, heatmap"},
				{"x", "column", true, "x-axis column"},
				{"y", "column", false, "y-axis / measure column"},
				{"for_each", "column", false, "one series per value of this column"},
				{"size_by", "column", false, "bubble size column"},
				{"color_by", "column", false, "mark color column"},
				{"title", "string", false, "chart title"},
				{"bins", "number", false, "histogram bin count"},
			},
			GEL: sentences(
				"Plot a {chart} chart with the x-axis {x}, the y-axis {y}, for each {for_each}",
				"Plot a {chart} chart with the x-axis {x}, the y-axis {y}",
				"Plot a {chart} chart with the x-axis {x}, for each {for_each}",
				"Plot a {chart} chart with the x-axis {x}"),
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				t, err := singleInput(ctx, inv)
				if err != nil {
					return nil, err
				}
				chartName, err := inv.Args.String("chart")
				if err != nil {
					return nil, err
				}
				chartType, err := chartTypeByName(chartName)
				if err != nil {
					return nil, err
				}
				x, err := inv.Args.String("x")
				if err != nil {
					return nil, err
				}
				spec := viz.Spec{
					Type:    chartType,
					X:       x,
					Y:       inv.Args.StringOr("y", ""),
					GroupBy: inv.Args.StringOr("for_each", ""),
					SizeBy:  inv.Args.StringOr("size_by", ""),
					ColorBy: inv.Args.StringOr("color_by", ""),
					Title:   inv.Args.StringOr("title", ""),
					Bins:    inv.Args.IntOr("bins", 0),
				}
				chart, err := viz.Build(t, spec)
				if err != nil {
					return nil, err
				}
				return &Result{Charts: []*viz.Chart{chart}, Message: "Created " + chart.Describe()}, nil
			},
		},
		{
			Name:     "Visualize",
			Category: DataVisualization,
			Summary:  "Automatically chart a KPI against grouping columns (phrase-based entry)",
			Params: []ParamSpec{
				{"kpi", "column", true, "the measure or category of interest"},
				{"by", "columns", false, "grouping columns"},
				{"filter", "expression", false, "filter phrase applied before charting"},
			},
			GEL: sentences(
				"Visualize {kpi} by {by:list} where {filter:rest}",
				"Visualize {kpi} by {by:list}",
				"Visualize {kpi} where {filter:rest}",
				"Visualize {kpi}"),
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				t, err := singleInput(ctx, inv)
				if err != nil {
					return nil, err
				}
				kpi, err := inv.Args.String("kpi")
				if err != nil {
					return nil, err
				}
				if inv.Args.StringOr("filter", "") != "" {
					// The filter is KeepRows' rule, run over the input.
					b := NewQueryBuilder(t.Name())
					if err := where(b, inv.Args, "filter", false); err != nil {
						return nil, err
					}
					if t, err = sqlengine.ExecOn(t, b.Stmt()); err != nil {
						return nil, err
					}
				}
				by := inv.Args.StringListOr("by")
				specs, err := viz.AutoCharts(t, kpi, by)
				if err != nil {
					return nil, err
				}
				result := &Result{}
				var lines []string
				for i, spec := range specs {
					chart, err := viz.Build(t, spec)
					if err != nil {
						return nil, err
					}
					result.Charts = append(result.Charts, chart)
					lines = append(lines, fmt.Sprintf("%d. Chart1%c (%s)", i+1, 'A'+i, chart.Describe()))
				}
				result.Message = fmt.Sprintf("Here are %d charts to visualize the data\n%s",
					len(result.Charts), strings.Join(lines, "\n"))
				return result, nil
			},
		},
	}
}

func chartTypeByName(name string) (viz.ChartType, error) {
	switch strings.ToLower(name) {
	case "bar":
		return viz.Bar, nil
	case "line":
		return viz.Line, nil
	case "scatter":
		return viz.Scatter, nil
	case "histogram":
		return viz.Histogram, nil
	case "donut", "pie":
		return viz.Donut, nil
	case "violin":
		return viz.Violin, nil
	case "bubble":
		return viz.Bubble, nil
	case "heatmap":
		return viz.Heatmap, nil
	default:
		return 0, fmt.Errorf("skills: unknown chart type %q", name)
	}
}

func mlSkills() []*Definition {
	return []*Definition{
		{
			Name:     "TrainModel",
			Category: MachineLearning,
			Summary:  "Train a model to predict a column",
			Params: []ParamSpec{
				{"target", "column", true, "column to predict"},
				{"features", "columns", false, "feature columns (defaults to all others)"},
				{"model", "string", false, "linear (default), logistic, or tree"},
				{"name", "string", false, "name to store the model under"},
				{"test_fraction", "number", false, "held-out fraction for evaluation (default 0.25)"},
			},
			GEL: sentences(
				"Train a {model} model to predict {target} using {features:list}",
				"Train a model to predict {target} using {features:list}",
				"Train a {model} model to predict {target}",
				"Train a model to predict {target}"),
			Volatile: true, // registers the model in session state
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				t, err := singleInput(ctx, inv)
				if err != nil {
					return nil, err
				}
				target, err := inv.Args.String("target")
				if err != nil {
					return nil, err
				}
				features := inv.Args.StringListOr("features")
				if len(features) == 0 {
					for _, c := range t.Columns() {
						if !strings.EqualFold(c.Name(), target) {
							features = append(features, c.Name())
						}
					}
				}
				matrix, err := ml.BuildMatrix(t, features, target)
				if err != nil {
					return nil, err
				}
				testFrac := inv.Args.FloatOr("test_fraction", 0.25)
				if !(testFrac >= 0 && testFrac < 1) {
					return nil, fmt.Errorf("skills: test_fraction must be in [0, 1), got %g", testFrac)
				}
				train, test := matrix.Split(testFrac, ctx.Seed)
				kind := strings.ToLower(inv.Args.StringOr("model", "linear"))
				var model ml.Model
				switch kind {
				case "linear":
					model, err = ml.TrainLinear(train, 0)
					if err != nil {
						// Collinearity rescue, as the UI does silently.
						model, err = ml.TrainLinear(train, 1e-6)
					}
				case "ridge":
					model, err = ml.TrainLinear(train, 1.0)
				case "logistic":
					model, err = ml.TrainLogistic(train, 0.5, 300)
				case "tree":
					model, err = ml.TrainTree(train, 6, 2)
				default:
					return nil, fmt.Errorf("skills: unknown model kind %q", kind)
				}
				if err != nil {
					return nil, err
				}
				modelName := inv.Args.StringOr("name", "Predict_"+target)
				ctx.PutModel(modelName, model)
				metrics := evalMetrics(model, test)
				msg := fmt.Sprintf("Trained %s model %q on %d rows (%d held out). %s",
					model.Kind(), modelName, len(train.Rows), len(test.Rows), model.Explain())
				return &Result{Table: metrics, Model: model, Message: msg}, nil
			},
		},
		{
			Name:     "PredictWithModel",
			Category: MachineLearning,
			Summary:  "Apply a trained model, adding a prediction column",
			Params: []ParamSpec{
				{"model", "string", true, "trained model name"},
				{"features", "columns", true, "feature columns, in training order"},
				{"name", "string", false, "prediction column name (default prediction)"},
			},
			GEL:      sentences("Predict with the model {model} using {features:list}"),
			Volatile: true, // depends on the session's trained-model state
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				t, err := singleInput(ctx, inv)
				if err != nil {
					return nil, err
				}
				modelName, err := inv.Args.String("model")
				if err != nil {
					return nil, err
				}
				model, ok := ctx.Model(modelName)
				if !ok {
					return nil, fmt.Errorf("skills: no trained model named %q", modelName)
				}
				features, err := inv.Args.StringList("features")
				if err != nil {
					return nil, err
				}
				matrix, err := ml.BuildMatrix(t, features, "")
				if err != nil {
					return nil, err
				}
				preds := model.Predict(matrix.Rows)
				col := dataset.NewColumn(inv.Args.StringOr("name", "prediction"), dataset.TypeFloat)
				predByRow := map[int]float64{}
				for i, row := range matrix.Kept {
					predByRow[row] = preds[i]
				}
				for r := 0; r < t.NumRows(); r++ {
					if p, ok := predByRow[r]; ok {
						col.Append(dataset.Float(p))
					} else {
						col.Append(dataset.Null)
					}
				}
				out, err := t.WithColumn(col)
				if err != nil {
					return nil, err
				}
				return &Result{Table: out}, nil
			},
		},
		{
			Name:     "PredictTimeSeries",
			Category: MachineLearning,
			Summary:  "Forecast the next values of a measure over a time column",
			Params: []ParamSpec{
				{"measure", "column", true, "numeric column to forecast"},
				{"time", "column", true, "time or ordering column"},
				{"steps", "number", true, "number of future values to predict"},
				{"period", "number", false, "seasonal period in steps (0 = none)"},
			},
			GEL: sentences("Predict time series with measure columns {measure} for the next {steps:number} values of {time}"),
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				t, err := singleInput(ctx, inv)
				if err != nil {
					return nil, err
				}
				return applyPredictTimeSeries(t, inv.Args)
			},
		},
		{
			Name:     "ClusterRows",
			Category: MachineLearning,
			Summary:  "Cluster rows with k-means, adding a cluster column",
			Params: []ParamSpec{
				{"columns", "columns", true, "feature columns"},
				{"k", "number", true, "number of clusters"},
			},
			GEL: sentences("Cluster the rows into {k:number} groups using {columns:list}"),
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				t, err := singleInput(ctx, inv)
				if err != nil {
					return nil, err
				}
				cols, err := inv.Args.StringList("columns")
				if err != nil {
					return nil, err
				}
				k, err := inv.Args.Int("k")
				if err != nil {
					return nil, err
				}
				matrix, err := ml.BuildMatrix(t, cols, "")
				if err != nil {
					return nil, err
				}
				model, err := ml.TrainKMeans(matrix, k, ctx.Seed, 100)
				if err != nil {
					return nil, err
				}
				assignments := model.Predict(matrix.Rows)
				col := dataset.NewColumn("cluster", dataset.TypeInt)
				byRow := map[int]int64{}
				for i, row := range matrix.Kept {
					byRow[row] = int64(assignments[i])
				}
				for r := 0; r < t.NumRows(); r++ {
					if c, ok := byRow[r]; ok {
						col.Append(dataset.Int(c))
					} else {
						col.Append(dataset.Null)
					}
				}
				out, err := t.WithColumn(col)
				if err != nil {
					return nil, err
				}
				return &Result{Table: out, Model: model, Message: model.Explain()}, nil
			},
		},
		{
			Name:     "DetectOutliers",
			Category: MachineLearning,
			Summary:  "Flag anomalous values in a numeric column",
			Params: []ParamSpec{
				{"column", "column", true, "numeric column to inspect"},
				{"method", "string", false, "zscore (default), iqr, or model"},
				{"threshold", "number", false, "method-specific threshold"},
			},
			GEL: sentences("Detect outliers in {column} using {method}", "Detect outliers in {column}"),
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
				var method ml.OutlierMethod
				switch strings.ToLower(inv.Args.StringOr("method", "zscore")) {
				case "zscore":
					method = ml.ZScore
				case "iqr":
					method = ml.IQR
				case "model", "model-residual":
					method = ml.ModelResidual
				default:
					return nil, fmt.Errorf("skills: unknown outlier method %q", inv.Args.StringOr("method", ""))
				}
				series := make([]float64, c.Len())
				vals, valid := c.Floats()
				for i := range series {
					if valid[i] {
						series[i] = vals[i]
					} else {
						series[i] = nan()
					}
				}
				report, err := ml.DetectOutliers(series, method, inv.Args.FloatOr("threshold", 0))
				if err != nil {
					return nil, err
				}
				flagged := map[int]bool{}
				for _, i := range report.Indexes {
					flagged[i] = true
				}
				col := dataset.NewColumn("is_outlier", dataset.TypeBool)
				for r := 0; r < t.NumRows(); r++ {
					col.Append(dataset.Bool(flagged[r]))
				}
				out, err := t.WithColumn(col)
				if err != nil {
					return nil, err
				}
				return &Result{Table: out,
					Message: fmt.Sprintf("Flagged %d of %d rows as outliers using the %s method", len(report.Indexes), t.NumRows(), report.Method)}, nil
			},
		},
		{
			Name:     "EvaluateModel",
			Category: MachineLearning,
			Summary:  "Score a trained model against a labeled dataset",
			Params: []ParamSpec{
				{"model", "string", true, "trained model name"},
				{"target", "column", true, "ground-truth column"},
				{"features", "columns", true, "feature columns, in training order"},
			},
			GEL:      sentences("Evaluate the model {model} against {target} using {features:list}"),
			Volatile: true, // depends on the session's trained-model state
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				t, err := singleInput(ctx, inv)
				if err != nil {
					return nil, err
				}
				modelName, err := inv.Args.String("model")
				if err != nil {
					return nil, err
				}
				model, ok := ctx.Model(modelName)
				if !ok {
					return nil, fmt.Errorf("skills: no trained model named %q", modelName)
				}
				target, err := inv.Args.String("target")
				if err != nil {
					return nil, err
				}
				features, err := inv.Args.StringList("features")
				if err != nil {
					return nil, err
				}
				matrix, err := ml.BuildMatrix(t, features, target)
				if err != nil {
					return nil, err
				}
				return &Result{Table: evalMetrics(model, matrix)}, nil
			},
		},
		{
			Name:     "ExplainModel",
			Category: MachineLearning,
			Summary:  "Explain what a trained model learned, in plain language",
			Params: []ParamSpec{
				{"model", "string", true, "trained model name"},
			},
			GEL:        sentences("Explain the model {model}"),
			Standalone: true,
			Volatile:   true, // depends on the session's trained-model state
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				modelName, err := inv.Args.String("model")
				if err != nil {
					return nil, err
				}
				model, ok := ctx.Model(modelName)
				if !ok {
					return nil, fmt.Errorf("skills: no trained model named %q", modelName)
				}
				return &Result{Message: model.Explain()}, nil
			},
		},
	}
}

func nan() float64 {
	var zero float64
	return 0 / zero
}

func evalMetrics(model ml.Model, matrix *ml.Matrix) *dataset.Table {
	names := []string{"rows"}
	values := []float64{float64(len(matrix.Rows))}
	if len(matrix.Rows) > 0 && len(matrix.Target) == len(matrix.Rows) {
		preds := model.Predict(matrix.Rows)
		names = append(names, "rmse", "mae", "r2", "accuracy")
		values = append(values,
			ml.RMSE(preds, matrix.Target),
			ml.MAE(preds, matrix.Target),
			ml.R2(preds, matrix.Target),
			ml.Accuracy(preds, matrix.Target))
	}
	metricCol := dataset.NewColumn("metric", dataset.TypeString)
	valueCol := dataset.NewColumn("value", dataset.TypeFloat)
	for i, n := range names {
		metricCol.Append(dataset.Str(n))
		valueCol.Append(dataset.Float(values[i]))
	}
	return dataset.MustNewTable("metrics", metricCol, valueCol)
}

// applyPredictTimeSeries implements the Figure 2 skill: order by the time
// column, fit trend+seasonality, and emit a table of the next k time steps
// with predicted values and RecordType = "Predicted".
func applyPredictTimeSeries(t *dataset.Table, args Args) (*Result, error) {
	measure, err := args.String("measure")
	if err != nil {
		return nil, err
	}
	timeName, err := args.String("time")
	if err != nil {
		return nil, err
	}
	steps, err := args.Int("steps")
	if err != nil {
		return nil, err
	}
	if steps <= 0 {
		return nil, fmt.Errorf("skills: steps must be positive, got %d", steps)
	}
	sorted, err := t.SortBy([]string{timeName}, nil)
	if err != nil {
		return nil, err
	}
	mc, err := sorted.Column(measure)
	if err != nil {
		return nil, err
	}
	tc, err := sorted.Column(timeName)
	if err != nil {
		return nil, err
	}
	var series []float64
	var stamps []dataset.Value
	vals, valid := mc.Floats()
	for i := range vals {
		if valid[i] && !tc.IsNull(i) {
			series = append(series, vals[i])
			stamps = append(stamps, tc.Value(i))
		}
	}
	forecast, err := ml.FitForecast(series, args.IntOr("period", 0))
	if err != nil {
		return nil, err
	}
	next := forecast.Next(steps)
	// Extrapolate the time column: median spacing of the observed stamps.
	futureStamps, err := extrapolateStamps(stamps, steps)
	if err != nil {
		return nil, err
	}
	timeCol := dataset.NewColumn(tc.Name(), tc.Type())
	measureCol := dataset.NewColumn(measure, dataset.TypeFloat)
	typeCol := dataset.NewColumn("RecordType", dataset.TypeString)
	for i := 0; i < steps; i++ {
		timeCol.Append(futureStamps[i])
		measureCol.Append(dataset.Float(next[i]))
		typeCol.Append(dataset.Str("Predicted"))
	}
	out, err := dataset.NewTable("PredictedTimeSeries_"+measure, timeCol, measureCol, typeCol)
	if err != nil {
		return nil, err
	}
	return &Result{Table: out, Message: forecast.Explain()}, nil
}

func extrapolateStamps(stamps []dataset.Value, steps int) ([]dataset.Value, error) {
	if len(stamps) < 2 {
		return nil, fmt.Errorf("skills: need at least 2 time points to extrapolate")
	}
	last := stamps[len(stamps)-1]
	if last.Type == dataset.TypeTime {
		deltas := make([]time.Duration, 0, len(stamps)-1)
		for i := 1; i < len(stamps); i++ {
			deltas = append(deltas, stamps[i].T.Sub(stamps[i-1].T))
		}
		sort.Slice(deltas, func(a, b int) bool { return deltas[a] < deltas[b] })
		step := deltas[len(deltas)/2]
		// Calendar-aware stepping: monthly/quarterly/yearly spacings vary in
		// day count, so snap near-month medians to month arithmetic.
		days := step.Hours() / 24
		months := 0
		switch {
		case days >= 27 && days <= 32:
			months = 1
		case days >= 88 && days <= 93:
			months = 3
		case days >= 180 && days <= 186:
			months = 6
		case days >= 360 && days <= 371:
			months = 12
		}
		out := make([]dataset.Value, steps)
		cur := last.T
		for i := range out {
			if months > 0 {
				cur = cur.AddDate(0, months, 0)
			} else {
				cur = cur.Add(step)
			}
			out[i] = dataset.Time(cur)
		}
		return out, nil
	}
	// Numeric ordering column.
	lastF, ok := last.AsFloat()
	if !ok {
		return nil, fmt.Errorf("skills: time column must be a date or number")
	}
	prevF, _ := stamps[len(stamps)-2].AsFloat()
	step := lastF - prevF
	if step == 0 {
		step = 1
	}
	out := make([]dataset.Value, steps)
	for i := range out {
		out[i] = dataset.Float(lastF + step*float64(i+1))
	}
	return out, nil
}

func sqlSkills() []*Definition {
	return []*Definition{
		{
			Name:     "RunSQL",
			Category: SQLTasks,
			Summary:  "Run a SQL query over the session's datasets",
			Params: []ParamSpec{
				{"query", "string", true, "a SELECT statement; session datasets are tables"},
			},
			GEL:        sentences("Run the SQL query {query:rest}"),
			Standalone: true,
			Volatile:   true, // the query references datasets the signature cannot see
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				query, err := inv.Args.String("query")
				if err != nil {
					return nil, err
				}
				out, err := sqlengine.Exec(ctx, query)
				if err != nil {
					return nil, err
				}
				return &Result{Table: out}, nil
			},
		},
	}
}

func collaborationSkills() []*Definition {
	return []*Definition{
		{
			Name:     "SaveArtifact",
			Category: Collaboration,
			Summary:  "Save the current result as a named artifact with its recipe",
			Params: []ParamSpec{
				{"name", "string", true, "artifact name"},
				{"type", "string", false, "artifact type hint: table, chart, model"},
			},
			GEL:      sentences("Save this as {name}"),
			Volatile: true, // the session layer persists the artifact as a side effect
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				// The session layer intercepts this skill to persist the
				// artifact and its sliced recipe; the direct path simply
				// passes the data through.
				t, err := singleInput(ctx, inv)
				if err != nil {
					return nil, err
				}
				name, err := inv.Args.String("name")
				if err != nil {
					return nil, err
				}
				return &Result{Table: t, Message: fmt.Sprintf("Saved artifact %q", name)}, nil
			},
		},
		{
			Name:     "ShareArtifact",
			Category: Collaboration,
			Summary:  "Share an artifact with another user or via a secret link",
			Params: []ParamSpec{
				{"name", "string", true, "artifact name"},
				{"with", "string", false, "user to share with (omit for a secret link)"},
				{"access", "string", false, "view (default) or edit"},
			},
			GEL:        sentences("Share the artifact {name} with {with}", "Share the artifact {name}"),
			Standalone: true,
			Volatile:   true, // side-effecting collaboration request
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				name, err := inv.Args.String("name")
				if err != nil {
					return nil, err
				}
				return &Result{Message: fmt.Sprintf("Requested sharing of artifact %q", name)}, nil
			},
		},
		{
			Name:     "PublishToInsightsBoard",
			Category: Collaboration,
			Summary:  "Publish an artifact to an Insights Board",
			Params: []ParamSpec{
				{"artifact", "string", true, "artifact name"},
				{"board", "string", true, "insights board name"},
			},
			GEL:        sentences("Publish {artifact} to the insights board {board}"),
			Standalone: true,
			Volatile:   true, // side-effecting collaboration request
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				artifact, err := inv.Args.String("artifact")
				if err != nil {
					return nil, err
				}
				board, err := inv.Args.String("board")
				if err != nil {
					return nil, err
				}
				return &Result{Message: fmt.Sprintf("Requested publishing %q to board %q", artifact, board)}, nil
			},
		},
		{
			Name:     "AddComment",
			Category: Collaboration,
			Summary:  "Attach a comment to the current recipe step",
			Params: []ParamSpec{
				{"text", "string", true, "comment text"},
			},
			GEL:        sentences("Comment: {text:rest}"),
			Standalone: true,
			Volatile:   true, // comments attach to the live recipe step
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				text, err := inv.Args.String("text")
				if err != nil {
					return nil, err
				}
				return &Result{Message: "Comment recorded: " + text}, nil
			},
		},
		{
			Name:     "ExportCSV",
			Category: Collaboration,
			Summary:  "Export the current dataset as CSV",
			Params: []ParamSpec{
				{"file", "string", true, "output file name (stored in the session workspace)"},
			},
			GEL:      sentences("Export the data to {file}"),
			Volatile: true, // writes into the session workspace
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				t, err := singleInput(ctx, inv)
				if err != nil {
					return nil, err
				}
				file, err := inv.Args.String("file")
				if err != nil {
					return nil, err
				}
				var buf bytes.Buffer
				if err := dataset.WriteCSV(t, &buf); err != nil {
					return nil, err
				}
				ctx.PutFile(file, buf.String())
				return &Result{Table: t, Message: fmt.Sprintf("Exported %d rows to %s", t.NumRows(), file)}, nil
			},
		},
		{
			Name:     "Define",
			Category: Collaboration,
			Summary:  "Define a semantic-layer phrase and its expansion",
			Params: []ParamSpec{
				{"phrase", "string", true, "phrase to define, e.g. 'successful purchases'"},
				{"meaning", "string", true, "expression or description it expands to"},
			},
			GEL:        sentences("Define {phrase} as {meaning:rest}"),
			Standalone: true,
			Volatile:   true, // mutates the session's semantic layer
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				phrase, err := inv.Args.String("phrase")
				if err != nil {
					return nil, err
				}
				meaning, err := inv.Args.String("meaning")
				if err != nil {
					return nil, err
				}
				ctx.DefinePhrase(phrase, meaning)
				return &Result{Message: fmt.Sprintf("Defined %q as %q", phrase, meaning)}, nil
			},
		},
		{
			Name:     "ShareSession",
			Category: Collaboration,
			Summary:  "Invite another user into this session",
			Params: []ParamSpec{
				{"with", "string", true, "user to invite"},
				{"access", "string", false, "view (default) or edit"},
			},
			GEL:        sentences("Share this session with {with}"),
			Standalone: true,
			Volatile:   true, // side-effecting collaboration request
			Apply: func(ctx *Context, inv Invocation) (*Result, error) {
				with, err := inv.Args.String("with")
				if err != nil {
					return nil, err
				}
				return &Result{Message: fmt.Sprintf("Requested sharing the session with %s", with)}, nil
			},
		},
	}
}
