package conformance

import (
	"fmt"
	"strings"

	"datachat/internal/dataset"
	"datachat/internal/plan"
	"datachat/internal/recipe"
	"datachat/internal/skills"
	"datachat/internal/sqlengine"
)

// DryRunReport is the outcome of planning a case without executing it.
type DryRunReport struct {
	// Explain is the pass-pipeline report for the case's final step.
	Explain *plan.Explain
	// Tasks is the number of surviving plan nodes (post-fusion).
	Tasks int
}

// DryRun lowers the case to the plan layer without executing anything: it
// type-checks the program by propagating fixture schemas through every
// step (conditions, formulas, and column references must resolve), then
// runs the pass pipeline a replay of the case would, via the session's
// zero-side-effect EXPLAIN.
// No scan, no sample, no skill Apply runs — the counting-DB test pins it.
func DryRun(c *Case) (*DryRunReport, error) {
	env, err := newEnv(c)
	if err != nil {
		return nil, err
	}
	if err := typeCheck(c); err != nil {
		return nil, err
	}
	e, err := env.s.ExplainReplay(&recipe.Recipe{Name: c.Name, Steps: c.Steps}, env.opts)
	if err != nil {
		return nil, fmt.Errorf("conformance: planning %s: %w", c.Name, err)
	}
	return &DryRunReport{Explain: e, Tasks: len(e.Nodes)}, nil
}

// CheckExplain evaluates the case's explain: assertions against a report.
func CheckExplain(c *Case, rep *DryRunReport) error {
	for _, a := range c.Explain {
		switch a.Kind {
		case "tasks":
			ok := false
			switch a.Op {
			case "<=":
				ok = rep.Tasks <= a.N
			case ">=":
				ok = rep.Tasks >= a.N
			case "=":
				ok = rep.Tasks == a.N
			}
			if !ok {
				return fmt.Errorf("explain: %d tasks, want %s %d", rep.Tasks, a.Op, a.N)
			}
		case "pass":
			found := false
			for _, t := range rep.Explain.Passes {
				if t.Pass == a.Name {
					found = true
					if t.Fired != a.Want {
						return fmt.Errorf("explain: pass %s fired=%v, want %v", a.Name, t.Fired, a.Want)
					}
				}
			}
			if !found {
				return fmt.Errorf("explain: no pass named %q in the trace", a.Name)
			}
		case "pushdown":
			found := false
			for _, n := range rep.Explain.Nodes {
				for _, p := range n.Pushdown {
					if strings.Contains(p, a.Name) {
						found = true
					}
				}
			}
			if !found {
				return fmt.Errorf("explain: no pushdown marker containing %q", a.Name)
			}
		}
	}
	return nil
}

// colset is a propagated schema: the set of columns a step's output is
// known to have. open means the columns cannot be statically known (after
// RunSQL, Pivot, or a skill the checker does not model) — downstream
// column checks are skipped rather than guessed.
type colset struct {
	open  bool
	order []string
	cols  map[string]bool
}

func newColset(names []string) *colset {
	s := &colset{cols: map[string]bool{}}
	for _, n := range names {
		s.add(n)
	}
	return s
}

func openSet() *colset { return &colset{open: true, cols: map[string]bool{}} }

func (s *colset) add(name string) {
	key := strings.ToLower(name)
	if !s.cols[key] {
		s.cols[key] = true
		s.order = append(s.order, name)
	}
}

func (s *colset) has(name string) bool {
	return s.open || s.cols[strings.ToLower(name)]
}

func (s *colset) clone() *colset {
	c := &colset{open: s.open, cols: map[string]bool{}}
	for _, n := range s.order {
		c.add(n)
	}
	return c
}

func (s *colset) drop(name string) {
	key := strings.ToLower(name)
	if !s.cols[key] {
		return
	}
	delete(s.cols, key)
	out := s.order[:0]
	for _, n := range s.order {
		if strings.ToLower(n) != key {
			out = append(out, n)
		}
	}
	s.order = out
}

// typeCheck propagates fixture schemas through the canonical program and
// rejects references to columns that cannot exist — the dry-run "flag a
// type error without executing" half of the harness.
func typeCheck(c *Case) error {
	schemas := map[string]*colset{}
	for _, f := range c.Fixtures {
		t, err := dataset.ReadCSVString(f.Name, f.CSV)
		if err != nil {
			return err
		}
		schemas[strings.ToLower(f.Name)] = newColset(t.ColumnNames())
	}
	dbTables := map[string]*colset{}
	for _, f := range c.DBFixtures {
		t, err := dataset.ReadCSVString(f.Table, f.CSV)
		if err != nil {
			return err
		}
		dbTables[strings.ToLower(f.DB+"."+f.Table)] = newColset(t.ColumnNames())
	}
	for i, step := range c.Steps {
		out, err := checkStep(step, schemas, dbTables)
		if err != nil {
			return fmt.Errorf("conformance: dry-run: step %d (%s): %w", i+1, step.Skill, err)
		}
		if step.Output != "" {
			schemas[strings.ToLower(step.Output)] = out
		}
	}
	return nil
}

func inputSchema(step recipe.Step, schemas map[string]*colset) (*colset, error) {
	if len(step.Inputs) == 0 {
		return nil, fmt.Errorf("no dataset input")
	}
	s, ok := schemas[strings.ToLower(step.Inputs[0])]
	if !ok {
		return nil, fmt.Errorf("unknown dataset %q", step.Inputs[0])
	}
	return s, nil
}

func checkExprCols(src string, s *colset) error {
	if s.open {
		return nil
	}
	e, err := sqlengine.ParseExpr(src)
	if err != nil {
		return fmt.Errorf("parsing %q: %w", src, err)
	}
	for _, col := range e.Columns(nil) {
		if !s.has(col) {
			return fmt.Errorf("unknown column %q in %q", col, src)
		}
	}
	return nil
}

func checkCols(names []string, s *colset) error {
	for _, n := range names {
		if !s.has(n) {
			return fmt.Errorf("unknown column %q", n)
		}
	}
	return nil
}

func checkStep(step recipe.Step, schemas map[string]*colset, dbTables map[string]*colset) (*colset, error) {
	args := skills.Args(step.Args)
	switch step.Skill {
	case "UseDataset":
		name := args.StringOr("dataset", "")
		s, ok := schemas[strings.ToLower(name)]
		if !ok {
			return nil, fmt.Errorf("unknown dataset %q", name)
		}
		return s.clone(), nil
	case "LoadData":
		// Session-file fixtures only; the checker cannot see arbitrary URLs.
		return openSet(), nil
	case "LoadTable", "SampleTable":
		db := args.StringOr("database", "")
		table := args.StringOr("table", "")
		s, ok := dbTables[strings.ToLower(db+"."+table)]
		if !ok {
			return nil, fmt.Errorf("unknown cloud table %s.%s", db, table)
		}
		if cond := args.StringOr("condition", ""); cond != "" {
			if err := checkExprCols(cond, s); err != nil {
				return nil, err
			}
		}
		if cols := args.StringListOr("columns"); len(cols) > 0 {
			if err := checkCols(cols, s); err != nil {
				return nil, err
			}
			return newColset(cols), nil
		}
		return s.clone(), nil
	case "KeepRows", "DropRows":
		s, err := inputSchema(step, schemas)
		if err != nil {
			return nil, err
		}
		if err := checkExprCols(args.StringOr("condition", ""), s); err != nil {
			return nil, err
		}
		return s.clone(), nil
	case "KeepColumns":
		s, err := inputSchema(step, schemas)
		if err != nil {
			return nil, err
		}
		cols := args.StringListOr("columns")
		if err := checkCols(cols, s); err != nil {
			return nil, err
		}
		if s.open {
			return openSet(), nil
		}
		return newColset(cols), nil
	case "DropColumns":
		s, err := inputSchema(step, schemas)
		if err != nil {
			return nil, err
		}
		cols := args.StringListOr("columns")
		if err := checkCols(cols, s); err != nil {
			return nil, err
		}
		out := s.clone()
		for _, c := range cols {
			out.drop(c)
		}
		return out, nil
	case "RenameColumn":
		s, err := inputSchema(step, schemas)
		if err != nil {
			return nil, err
		}
		from := args.StringOr("column", "")
		if !s.has(from) {
			return nil, fmt.Errorf("unknown column %q", from)
		}
		out := s.clone()
		out.drop(from)
		out.add(args.StringOr("to", from))
		return out, nil
	case "NewColumn":
		s, err := inputSchema(step, schemas)
		if err != nil {
			return nil, err
		}
		if formula := args.StringOr("formula", ""); formula != "" {
			if err := checkExprCols(formula, s); err != nil {
				return nil, err
			}
		}
		out := s.clone()
		out.add(args.StringOr("name", ""))
		return out, nil
	case "ChangeType", "FillNull", "ReplaceValues":
		s, err := inputSchema(step, schemas)
		if err != nil {
			return nil, err
		}
		if !s.has(args.StringOr("column", "")) {
			return nil, fmt.Errorf("unknown column %q", args.StringOr("column", ""))
		}
		return s.clone(), nil
	case "SortRows", "DistinctRows":
		s, err := inputSchema(step, schemas)
		if err != nil {
			return nil, err
		}
		if err := checkCols(args.StringListOr("columns"), s); err != nil {
			return nil, err
		}
		return s.clone(), nil
	case "LimitRows", "SampleRows":
		s, err := inputSchema(step, schemas)
		if err != nil {
			return nil, err
		}
		return s.clone(), nil
	case "Concatenate":
		out := &colset{cols: map[string]bool{}}
		for _, in := range step.Inputs {
			s, ok := schemas[strings.ToLower(in)]
			if !ok {
				return nil, fmt.Errorf("unknown dataset %q", in)
			}
			if s.open {
				return openSet(), nil
			}
			for _, n := range s.order {
				out.add(n)
			}
		}
		return out, nil
	case "JoinDatasets":
		merged := &colset{cols: map[string]bool{}}
		for _, in := range step.Inputs {
			s, ok := schemas[strings.ToLower(in)]
			if !ok {
				return nil, fmt.Errorf("unknown dataset %q", in)
			}
			if s.open {
				return openSet(), nil
			}
			for _, n := range s.order {
				merged.add(n)
			}
		}
		if on := args.StringOr("on", ""); on != "" {
			if err := checkExprCols(on, merged); err != nil {
				return nil, err
			}
		}
		// Join output naming (qualifiers, collisions) is the engine's
		// business; downstream checks see an open schema.
		return openSet(), nil
	case "Compute":
		s, err := inputSchema(step, schemas)
		if err != nil {
			return nil, err
		}
		aggs, err := args.AggSpecs("aggregates")
		if err != nil {
			return nil, err
		}
		out := &colset{cols: map[string]bool{}, open: s.open}
		for _, k := range args.StringListOr("for_each") {
			if !s.has(k) {
				return nil, fmt.Errorf("unknown grouping column %q", k)
			}
			out.add(k)
		}
		for _, a := range aggs {
			if a.Column != "" && a.Column != "*" && !s.has(a.Column) {
				return nil, fmt.Errorf("unknown aggregate column %q", a.Column)
			}
			out.add(a.OutName())
		}
		return out, nil
	case "Visualize":
		s, err := inputSchema(step, schemas)
		if err != nil {
			return nil, err
		}
		if kpi := args.StringOr("kpi", ""); !s.has(kpi) {
			return nil, fmt.Errorf("unknown KPI column %q", kpi)
		}
		if err := checkCols(args.StringListOr("by"), s); err != nil {
			return nil, err
		}
		if f := args.StringOr("filter", ""); f != "" {
			if err := checkExprCols(f, s); err != nil {
				return nil, err
			}
		}
		return openSet(), nil
	default:
		// Skills the checker does not model (ML, SQL, collaboration)
		// propagate an open schema: no false positives downstream.
		return openSet(), nil
	}
}
