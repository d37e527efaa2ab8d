package skills

import (
	"math/rand"
	"strings"
	"testing"

	"datachat/internal/dataset"
	"datachat/internal/expr"
	"datachat/internal/sqlengine"
)

// KeepRows runs its condition as a statement through the engine's pipeline;
// evalColumn is one expr.Eval — a kernel, or the row evaluator when the
// expression does not compile. These tests hold both to the seed's row
// interpreter, written out here: cell for cell, type for type, error for
// error.

// tableRow adapts one table row to expr.Env.
type tableRow struct {
	t   *dataset.Table
	row int
}

func (e tableRow) Lookup(name string) (dataset.Value, error) {
	c, err := e.t.Column(name)
	if err != nil {
		return dataset.Null, err
	}
	return c.Value(e.row), nil
}

func referenceFilter(t *dataset.Table, cond expr.Expr) (*dataset.Table, error) {
	var keep []int
	for i := 0; i < t.NumRows(); i++ {
		ok, err := expr.EvalBool(cond, tableRow{t, i})
		if err != nil {
			return nil, err
		}
		if ok {
			keep = append(keep, i)
		}
	}
	return t.Take(keep), nil
}

func referenceColumn(t *dataset.Table, name string, e expr.Expr) (*dataset.Column, error) {
	vals := make([]dataset.Value, t.NumRows())
	for i := range vals {
		v, err := e.Eval(tableRow{t, i})
		if err != nil {
			return nil, err
		}
		vals[i] = v
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

func sameColumn(t *testing.T, what string, got, want *dataset.Column) {
	t.Helper()
	if got.Name() != want.Name() || got.Type() != want.Type() || got.Len() != want.Len() {
		t.Fatalf("%s: column %s %s × %d, want %s %s × %d", what,
			got.Name(), got.Type(), got.Len(), want.Name(), want.Type(), want.Len())
	}
	for r := 0; r < got.Len(); r++ {
		// Same type on both sides, so the rendering identifies the cell (and
		// tells NaN from NaN, which Equal would not).
		if got.IsNull(r) != want.IsNull(r) || got.Value(r).String() != want.Value(r).String() {
			t.Fatalf("%s: row %d is %v, want %v", what, r, got.Value(r), want.Value(r))
		}
	}
}

func sameErr(t *testing.T, what string, got, want error) bool {
	t.Helper()
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Fatalf("%s: error %v, want %v", what, got, want)
	}
	return got == nil
}

func checkFilter(t *testing.T, tbl *dataset.Table, src string) {
	t.Helper()
	cond, err := parseCondition(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	ctx := NewContext()
	ctx.Datasets["t"] = tbl
	inv := Invocation{Skill: "KeepRows", Inputs: []string{"t"}, Args: Args{"condition": src}}
	got, gotErr := reg.Execute(ctx, inv)
	want, wantErr := referenceFilter(tbl, cond)
	if wantErr != nil && strings.Contains(wantErr.Error(), "has no column") {
		// The one text the statement words its own way: an unknown column.
		// Hold it to the same statement on the row reference.
		_, wantErr = viaReference(ctx, inv)
	}
	if !sameErr(t, src, gotErr, wantErr) {
		return
	}
	for i, c := range got.Table.Columns() {
		sameColumn(t, src, c, want.Columns()[i])
	}
}

func checkColumn(t *testing.T, tbl *dataset.Table, src string) {
	t.Helper()
	e, err := parseCondition(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	got, gotErr := evalColumn(tbl, "out", e)
	want, wantErr := referenceColumn(tbl, "out", e)
	if sameErr(t, src, gotErr, wantErr) {
		sameColumn(t, src, got, want)
	}
}

// computedExprs are value expressions over the CorpusTables t1 schema: int and
// float arithmetic and their promotion, results that are null on every row,
// string concatenation, constructs the kernel compiler refuses (scalar
// functions, IF, values of several types) and one that fails on the few rows
// with i > 22.
var computedExprs = []string{
	"i", "f", "s", "b", "ts",
	"i + 1", "i * 2 - 1", "-i", "i % 3", "i % 0", "i / 0", "i / 2", "i / 4.0",
	"i + f", "f * i", "f / 2.0", "f - 0.25", "f / 0", "i * 1.5",
	"s + '!'", "s + i",
	"i > f", "NOT b", "s LIKE 'a%'", "i IN (1, 2, NULL)", "f BETWEEN -1 AND i",
	"i IS NULL", "NULL", "i + NULL",
	"UPPER(s)", "ABS(f)", "COALESCE(i, 0)", "LENGTH(s) + i", "IF(b, i, f)", "IF(b, i, s)",
	"YEAR(ts)", "CAST(i AS string)",
	"IF(i > 22, s, i) - 1",
	"nosuch + 1",
}

func TestKernelMatchesRowLoop(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tbl := sqlengine.CorpusTables(rng, 400, 10)["t1"]
		var preds []string
		for i := 0; i < 150; i++ {
			preds = append(preds, sqlengine.CorpusPredicate(rng, "", rng.Intn(3)))
		}
		preds = append(preds, "IF(i > 22, s, i) - 1 > -100", "LENGTH(s) > 4", "nosuch > 1", "s", "ts", "f", "i")
		for _, src := range preds {
			checkFilter(t, tbl, src)
			checkColumn(t, tbl, src)
		}
		for _, src := range computedExprs {
			checkColumn(t, tbl, src)
		}
		// The same expressions over no rows and over rows that are all null.
		empty := tbl.Take(nil)
		nulls := tbl.Take([]int{-1, -1, -1})
		for _, src := range append(preds[:20:20], computedExprs...) {
			for _, edge := range []*dataset.Table{empty, nulls} {
				checkFilter(t, edge, src)
				checkColumn(t, edge, src)
			}
		}
	}
}

func TestRowLoopErrorSurvivesTheKernel(t *testing.T) {
	tbl := sqlengine.CorpusTables(rand.New(rand.NewSource(1)), 400, 10)["t1"]
	ctx := NewContext()
	ctx.Datasets["t1"] = tbl
	_, err := reg.Execute(ctx, Invocation{Skill: "KeepRows", Inputs: []string{"t1"},
		Args: Args{"condition": "IF(i > 22, s, i) - 1 > -100"}})
	if err == nil || err.Error() != "expr: cannot apply - to string and int" {
		t.Errorf("KeepRows error = %v", err)
	}
}
