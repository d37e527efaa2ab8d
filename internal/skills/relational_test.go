package skills

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"datachat/internal/dataset"
	"datachat/internal/sqlengine"
)

// The relational skills' differential test: every skill with a SQL merge
// rule, plus Pivot, run over the CorpusTables t1 schema (nulls in every
// column), over no rows and over rows that are all null. Each invocation runs
// through the skill — the engine's pipeline — and as its statement on the row
// reference, and the outcomes must agree cell for cell, type for type — or
// both fail with the same error. It was first run against the direct Apply bodies these skills
// used to have; every difference it found there was settled in favour of the
// statement.

// relationalInvocations is the case list: each invocation reads the dataset
// "in".
func relationalInvocations(rng *rand.Rand) []Invocation {
	var invs []Invocation
	add := func(skill string, args Args) {
		invs = append(invs, Invocation{Skill: skill, Inputs: []string{"in"}, Args: args})
	}
	preds := []string{"IF(i > 22, s, i) - 1 > -100", "nosuch > 1", "s", "f", "ts", "i IS NULL"}
	for k := 0; k < 25; k++ {
		preds = append(preds, sqlengine.CorpusPredicate(rng, "", rng.Intn(3)))
	}
	for _, p := range preds {
		add("KeepRows", Args{"condition": p})
		add("DropRows", Args{"condition": p})
	}
	for _, cols := range [][]string{{"i", "s"}, {"ts", "b", "f"}, {"S", "I"}, {"i", "i"}, {"nosuch"}} {
		add("KeepColumns", Args{"columns": cols})
		add("DistinctRows", Args{"columns": cols})
		add("SortRows", Args{"columns": cols})
		add("SortRows", Args{"columns": cols, "descending": true})
	}
	add("DistinctRows", Args{})
	for _, e := range computedExprs {
		add("NewColumn", Args{"name": "x", "formula": e})
	}
	add("NewColumn", Args{"name": "i", "formula": "i + 1"})
	add("NewColumn", Args{"name": "S", "formula": "s + '!'"})
	add("NewColumn", Args{"name": "t", "text": "hello"})
	add("NewColumn", Args{"name": "x"})
	for _, n := range []int{0, 7, 100_000, -1} {
		add("LimitRows", Args{"count": n})
	}
	aggSets := [][]string{
		{"count of records"},
		{"count of i", "sum of i", "avg of i", "min of i", "max of i", "median of i", "stddev of i", "count_distinct of i"},
		{"sum of f", "avg of f", "min of f", "max of f", "median of f", "stddev of f", "count_distinct of f"},
		{"count of s", "min of s", "max of s", "count_distinct of s"},
		{"min of ts", "max of ts", "count of b", "min of b", "max of b"},
		{"sum of s"}, {"sum of b"}, {"avg of nosuch"},
	}
	for _, aggs := range aggSets {
		for _, keys := range [][]string{nil, {"s"}, {"b", "s"}, {"ts"}, {"f"}, {"S"}, {"nosuch"}} {
			args := Args{"aggregates": aggs}
			if keys != nil {
				args["for_each"] = keys
			}
			add("Compute", args)
		}
	}
	for _, args := range []Args{
		{"column": "i", "size": 5}, {"column": "f", "size": 2.5}, {"column": "s", "size": 3},
		{"column": "i", "size": 0}, {"column": "nosuch", "size": 1}, {"column": "i", "size": 4, "name": "i"},
	} {
		add("Bin", args)
	}
	for _, part := range []string{"year", "month", "day", "week"} {
		add("ExtractDatePart", Args{"column": "ts", "part": part})
	}
	add("ExtractDatePart", Args{"column": "s", "part": "day"})
	add("ExtractDatePart", Args{"column": "i", "part": "year"})
	for _, m := range []string{"count of records", "sum of i", "avg of f", "min of s", "max of ts",
		"stddev of f", "median of i", "count_distinct of s", "sum of s", "min of nosuch"} {
		for _, rc := range [][2]string{{"s", "b"}, {"b", "s"}, {"ts", "i"}, {"f", "s"}, {"s", "s"}, {"nosuch", "s"}} {
			add("Pivot", Args{"rows": rc[0], "columns": rc[1], "measure": m})
		}
	}
	return invs
}

// tableDiff describes the first difference between two tables — names, types
// and cells — or returns "" when there is none. Table names are not compared,
// nor the type of a column want holds no value in: the row reference types a
// column by its values, and says string when it has none.
func tableDiff(got, want *dataset.Table) string {
	if g, w := strings.Join(got.ColumnNames(), ","), strings.Join(want.ColumnNames(), ","); g != w || got.NumRows() != want.NumRows() {
		return fmt.Sprintf("shape [%s] × %d, want [%s] × %d", g, got.NumRows(), w, want.NumRows())
	}
	for i, gc := range got.Columns() {
		wc := want.Columns()[i]
		if gc.Type() != wc.Type() && wc.NullCount() < wc.Len() {
			return fmt.Sprintf("column %s is %s, want %s", gc.Name(), gc.Type(), wc.Type())
		}
		for r := 0; r < gc.Len(); r++ {
			// Same type on both sides (or no value in want), so the
			// rendering identifies the cell (and tells NaN from NaN, which
			// Equal would not).
			if gc.IsNull(r) != wc.IsNull(r) || gc.Value(r).String() != wc.Value(r).String() {
				return fmt.Sprintf("column %s row %d is %v, want %v", gc.Name(), r, gc.Value(r), wc.Value(r))
			}
		}
	}
	return ""
}

// outcomeDiff compares two runs: both fail with the same error, or neither
// does and their tables agree.
func outcomeDiff(got *dataset.Table, gotErr error, want *dataset.Table, wantErr error) string {
	switch {
	case (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()):
		return fmt.Sprintf("error %v, want %v", gotErr, wantErr)
	case gotErr != nil:
		return ""
	}
	return tableDiff(got, want)
}

// viaReference runs a relational skill's statement — its merge rule over
// SELECT * FROM its input, or Pivot's GROUP BY — on the row-at-a-time
// reference executor.
func viaReference(ctx *Context, inv Invocation) (*dataset.Table, error) {
	ref := sqlengine.Options{DisableVectorized: true}
	if inv.Skill == "Pivot" {
		in, err := ctx.Dataset(inv.Inputs[0])
		if err != nil {
			return nil, err
		}
		labeled, stmt, err := pivotStmt(in, inv.Args)
		if err != nil {
			return nil, err
		}
		g, err := sqlengine.ExecStmtOptions(sqlengine.NewMapCatalog(map[string]*dataset.Table{labeled.Name(): labeled}), stmt, ref)
		if err != nil {
			return nil, err
		}
		return pivotTable(in.Name()+"_pivot", g)
	}
	def, err := reg.Lookup(inv.Skill)
	if err != nil {
		return nil, err
	}
	b := NewQueryBuilder(inv.Inputs[0])
	if err := def.MergeSQL(b, inv); err != nil {
		return nil, err
	}
	return sqlengine.ExecStmtOptions(ctx, b.Stmt(), ref)
}

// TestRelationalSkillsDifferential holds every relational skill, run alone
// through the engine's pipeline, to its statement on the row reference.
func TestRelationalSkillsDifferential(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		t1 := sqlengine.CorpusTables(rng, 300, 10)["t1"]
		invs := relationalInvocations(rng)
		for _, in := range []*dataset.Table{t1, t1.Take(nil), t1.Take([]int{-1, -1, -1})} {
			ctx := NewContext()
			ctx.Datasets["in"] = in
			for _, inv := range invs {
				var got *dataset.Table
				res, gotErr := reg.Execute(ctx, inv)
				if gotErr == nil {
					got = res.Table
				}
				want, wantErr := viaReference(ctx, inv)
				if d := outcomeDiff(got, gotErr, want, wantErr); d != "" {
					t.Errorf("seed %d, %d rows: %s %v: %s", seed, in.NumRows(), inv.Skill, inv.Args, d)
				}
			}
		}
	}
}
