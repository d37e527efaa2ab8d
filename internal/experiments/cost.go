package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"datachat/internal/cloud"
	"datachat/internal/dag"
	"datachat/internal/dataset"
	"datachat/internal/skills"
)

// The cost experiment measures the §3 budget knob as a cost-vs-accuracy
// grid: the same cloud scan + aggregate pipeline runs under a ladder of
// per-request scan budgets, from unlimited down to a budget the planner can
// only meet by substituting block samples. Each cell reports the planner's
// estimated scan bytes, the bytes the cloud meter actually charged, whether
// the result was flagged degraded, and the relative error of the aggregate
// against the exact answer — the honesty story in numbers: cost falls with
// the budget, error stays visible and labeled.

// CostCell is one budget point of the grid.
type CostCell struct {
	// BudgetBytes is the per-request scan budget (0 = unlimited).
	BudgetBytes int64 `json:"budget_bytes"`
	// EstScanBytes is the planner's estimated scan total after all passes.
	EstScanBytes int64 `json:"est_scan_bytes"`
	// MeterBytes is what the cloud meter actually charged for the run.
	MeterBytes int64 `json:"meter_bytes"`
	// SampleRate is the substituted block-sample rate (0 = exact scan).
	SampleRate float64 `json:"sample_rate"`
	// Degraded reports whether the result carried the degradation flag.
	Degraded bool `json:"degraded"`
	// RelErrPct is the aggregate's relative error vs the exact answer, in
	// percent.
	RelErrPct float64 `json:"rel_err_pct"`
	Seconds   float64 `json:"seconds"`
}

// CostResult holds the grid for BENCH_cost.json.
type CostResult struct {
	Rows       int        `json:"rows"`
	TableBytes int64      `json:"table_bytes"`
	Cells      []CostCell `json:"cells"`
}

// Cost runs the budget ladder over a synthetic cloud table of rows rows.
func Cost(rows int) (*CostResult, error) {
	reg := skills.NewRegistry()
	db := cloud.NewDatabase("wh", cloud.DefaultPricing, 512)
	ids := make([]int64, rows)
	vals := make([]float64, rows)
	for i := range ids {
		ids[i] = int64(i)
		vals[i] = float64((i * 7) % 997)
	}
	orders := dataset.MustNewTable("orders",
		dataset.IntColumn("id", ids, nil),
		dataset.FloatColumn("c0", vals, nil),
	)
	if err := db.CreateTable(orders); err != nil {
		return nil, err
	}
	st, err := db.Stats("orders")
	if err != nil {
		return nil, err
	}
	result := &CostResult{Rows: rows, TableBytes: st.Bytes}

	mean := func(t *dataset.Table) float64 {
		col := t.Columns()[1]
		var sum float64
		for i := 0; i < t.NumRows(); i++ {
			if f, ok := col.Value(i).AsFloat(); ok {
				sum += f
			}
		}
		if t.NumRows() == 0 {
			return 0
		}
		return sum / float64(t.NumRows())
	}

	budgets := []int64{0, st.Bytes / 2, st.Bytes / 5, st.Bytes / 20}
	var exactMean float64
	for i, budget := range budgets {
		// A fresh context and executor per cell keeps the cells independent
		// (no cache or stats feedback across budgets); the one shared
		// database supplies the meter ground truth via deltas.
		ctx := skills.NewContext()
		ctx.Cloud["wh"] = db
		ex := dag.NewExecutor(reg, ctx)
		opts := dag.ExecOptions{CostBudgetBytes: budget}
		g := dag.NewGraph()
		g.Add(skills.Invocation{Skill: "LoadTable",
			Args: skills.Args{"database": "wh", "table": "orders"}, Output: "orders"})
		last := g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{"orders"},
			Args: skills.Args{"condition": "c0 >= 0"}, Output: "kept"})

		meterBefore := db.Meter().BytesScanned()
		start := time.Now()
		res, rep, err := ex.RunWith(context.Background(), g, last, opts)
		if err != nil {
			return nil, err
		}
		dur := time.Since(start)
		cell := CostCell{
			BudgetBytes: budget,
			MeterBytes:  db.Meter().BytesScanned() - meterBefore,
			Degraded:    res.Degraded,
			Seconds:     dur.Seconds(),
		}
		if rep.Cost != nil {
			cell.EstScanBytes = rep.Cost.ScanBytes
		}
		// Recover the substituted rate from the compiled plan.
		e, err := ex.ExplainWith(g, last, opts)
		if err != nil {
			return nil, err
		}
		for _, n := range e.Nodes {
			if n.Substituted {
				if rate := argsRate(n.Args); rate > cell.SampleRate {
					cell.SampleRate = rate
				}
			}
		}
		m := mean(res.Table)
		if i == 0 {
			exactMean = m
		} else if exactMean != 0 {
			cell.RelErrPct = (m - exactMean) / exactMean * 100
			if cell.RelErrPct < 0 {
				cell.RelErrPct = -cell.RelErrPct
			}
		}
		result.Cells = append(result.Cells, cell)
	}
	return result, nil
}

// argsRate extracts the "rate" value from an EXPLAIN node's canonical args
// string ("database=\"wh\", rate=0.1, table=\"orders\"").
func argsRate(args string) float64 {
	idx := strings.Index(args, "rate=")
	if idx < 0 {
		return 0
	}
	s := args[idx+len("rate="):]
	if end := strings.IndexByte(s, ','); end >= 0 {
		s = s[:end]
	}
	var rate float64
	fmt.Sscanf(strings.TrimSpace(s), "%f", &rate)
	return rate
}

// Report renders the grid as the EXPERIMENTS.md table.
func (r *CostResult) Report() string {
	var b strings.Builder
	b.WriteString("Cost-vs-accuracy: budgeted sample substitution (§3)\n")
	fmt.Fprintf(&b, "  table: %d rows, ~%d bytes\n", r.Rows, r.TableBytes)
	b.WriteString("  budget_bytes  est_scan   meter_bytes  rate   degraded  rel_err%  seconds\n")
	for _, c := range r.Cells {
		budget := "unlimited"
		if c.BudgetBytes > 0 {
			budget = fmt.Sprintf("%d", c.BudgetBytes)
		}
		fmt.Fprintf(&b, "  %-13s %-10d %-12d %-6.2f %-9v %-9.3f %.3f\n",
			budget, c.EstScanBytes, c.MeterBytes, c.SampleRate, c.Degraded, c.RelErrPct, c.Seconds)
	}
	return b.String()
}

// JSON renders the result for BENCH_cost.json.
func (r *CostResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
