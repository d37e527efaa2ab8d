package skills

import (
	"fmt"
	"strings"

	"datachat/internal/expr"
	"datachat/internal/sqlengine"
)

// QueryBuilder incrementally merges relational skills into a single SQL
// SELECT statement. Whenever a skill cannot legally merge into the current
// query block (e.g. filtering after an aggregation), the builder wraps the
// block as a subquery and continues — so the final statement is as flat as
// the skill chain allows. This is the §2.2 consolidation that turns
// Load→Filter→Limit into one query (Figure 4) instead of nested blocks.
type QueryBuilder struct {
	stmt    *sqlengine.SelectStmt
	grouped bool
	limited bool
	nestSeq int
}

// NewQueryBuilder starts a query as SELECT * FROM table.
func NewQueryBuilder(table string) *QueryBuilder {
	return &QueryBuilder{stmt: &sqlengine.SelectStmt{
		Items: []sqlengine.SelectItem{{Star: true}},
		From:  &sqlengine.BaseTable{Name: table, Alias: table},
		Limit: -1,
	}}
}

// Stmt returns the statement built so far.
func (b *QueryBuilder) Stmt() *sqlengine.SelectStmt { return b.stmt }

// SQL returns the statement as SQL text.
func (b *QueryBuilder) SQL() string { return b.stmt.String() }

// Blocks returns the number of SELECT blocks in the built query.
func (b *QueryBuilder) Blocks() int { return sqlengine.CountSelectBlocks(b.stmt) }

// Nest wraps the current statement as a FROM-clause subquery of a fresh
// SELECT * block.
func (b *QueryBuilder) Nest() {
	b.nestSeq++
	b.stmt = &sqlengine.SelectStmt{
		Items: []sqlengine.SelectItem{{Star: true}},
		From:  &sqlengine.Subquery{Stmt: b.stmt, Alias: fmt.Sprintf("q%d", b.nestSeq)},
		Limit: -1,
	}
	b.grouped = false
	b.limited = false
}

// starOnly reports whether the current projection is a bare SELECT *.
func (b *QueryBuilder) starOnly() bool {
	return len(b.stmt.Items) == 1 && b.stmt.Items[0].Star
}

// Where ANDs a filter condition into the query, nesting first if the block
// already aggregates, limits, or deduplicates (where a later filter would
// change meaning).
func (b *QueryBuilder) Where(cond expr.Expr) {
	if b.grouped || b.limited || b.stmt.Distinct || b.condUsesComputed(cond) {
		b.Nest()
	}
	if b.stmt.Where == nil {
		b.stmt.Where = cond
	} else {
		b.stmt.Where = expr.Bin(expr.OpAnd, b.stmt.Where, cond)
	}
}

// Project narrows the output to the named columns. Projections merge into a
// bare * block or narrow an existing explicit projection; anything else
// (aggregates, computed columns the projection keeps) nests.
func (b *QueryBuilder) Project(cols []string) {
	if b.grouped {
		b.Nest()
	}
	if b.starOnly() {
		items := make([]sqlengine.SelectItem, len(cols))
		for i, c := range cols {
			items[i] = sqlengine.SelectItem{Expr: expr.Column(c)}
		}
		b.stmt.Items = items
		return
	}
	// Try narrowing the existing projection by output name.
	existing := map[string]sqlengine.SelectItem{}
	for _, item := range b.stmt.Items {
		if item.Star {
			continue
		}
		existing[strings.ToLower(itemName(item))] = item
	}
	items := make([]sqlengine.SelectItem, 0, len(cols))
	for _, c := range cols {
		item, ok := existing[strings.ToLower(c)]
		if !ok {
			// Column comes from a * that is also present, or is unknown:
			// nest and project plainly.
			b.Nest()
			b.Project(cols)
			return
		}
		items = append(items, item)
	}
	b.stmt.Items = items
}

func itemName(item sqlengine.SelectItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	if c, ok := item.Expr.(*expr.Col); ok {
		name := c.Name
		if dot := strings.LastIndexByte(name, '.'); dot >= 0 {
			name = name[dot+1:]
		}
		return name
	}
	return item.Expr.String()
}

// AddColumn appends a computed column (SELECT *, e AS name).
func (b *QueryBuilder) AddColumn(name string, e expr.Expr) {
	if b.grouped || b.stmt.Distinct {
		b.Nest()
	}
	b.stmt.Items = append(b.stmt.Items, sqlengine.SelectItem{Expr: e, Alias: name})
}

// OrderBy sets the sort order, replacing any prior one; nests first when a
// limit has already been applied (sorting after a limit reorders only the
// retained rows, which is a different result).
func (b *QueryBuilder) OrderBy(keys []string, desc []bool) {
	if b.limited {
		b.Nest()
	}
	items := make([]sqlengine.OrderItem, len(keys))
	for i, k := range keys {
		items[i] = sqlengine.OrderItem{Expr: expr.Column(k)}
		if i < len(desc) {
			items[i].Desc = desc[i]
		}
	}
	b.stmt.OrderBy = items
}

// Limit caps the row count; successive limits keep the minimum.
func (b *QueryBuilder) Limit(n int) {
	if b.stmt.Limit < 0 || n < b.stmt.Limit {
		b.stmt.Limit = n
	}
	b.limited = true
}

// Distinct deduplicates the output rows.
func (b *QueryBuilder) Distinct() {
	if b.limited {
		b.Nest()
	}
	b.stmt.Distinct = true
}

// GroupBy turns the block into an aggregation; a block that already
// projects, aggregates, or limits nests first.
func (b *QueryBuilder) GroupBy(aggs []AggSpec, keys []string) error {
	if b.grouped || b.limited || !b.starOnly() || b.stmt.Distinct {
		b.Nest()
	}
	items := make([]sqlengine.SelectItem, 0, len(keys)+len(aggs))
	groupExprs := make([]expr.Expr, 0, len(keys))
	for _, k := range keys {
		items = append(items, sqlengine.SelectItem{Expr: expr.Column(k)})
		groupExprs = append(groupExprs, expr.Column(k))
	}
	for _, a := range aggs {
		call, err := aggCall(a)
		if err != nil {
			return err
		}
		items = append(items, sqlengine.SelectItem{Expr: call, Alias: a.OutName()})
	}
	b.stmt.Items = items
	b.stmt.GroupBy = groupExprs
	// Groups come out sorted by their keys, not in the order the input first
	// shows them: a Compute answers in one row order whatever came before it.
	b.stmt.OrderBy = nil
	for _, k := range keys {
		b.stmt.OrderBy = append(b.stmt.OrderBy, sqlengine.OrderItem{Expr: expr.Column(k)})
	}
	b.grouped = true
	return nil
}

func aggCall(a AggSpec) (expr.Expr, error) {
	sqlName, ok := validAggFuncs[strings.ToLower(a.Func)]
	if !ok {
		return nil, fmt.Errorf("skills: unknown aggregate function %q", a.Func)
	}
	if a.Column == "*" || a.Column == "" {
		if sqlName != "COUNT" {
			return nil, fmt.Errorf("skills: %s requires a column", a.Func)
		}
		return &sqlengine.AggCall{Name: "COUNT", Star: true}, nil
	}
	if sqlName == "COUNT_DISTINCT" {
		return &sqlengine.AggCall{Name: "COUNT", Arg: expr.Column(a.Column), Distinct: true}, nil
	}
	return &sqlengine.AggCall{Name: sqlName, Arg: expr.Column(a.Column)}, nil
}

// condUsesComputed reports whether the condition references a column that is
// computed in the current projection (an aliased select item). SQL cannot
// reference select aliases in WHERE, so such filters force a subquery.
func (b *QueryBuilder) condUsesComputed(cond expr.Expr) bool {
	aliases := map[string]bool{}
	for _, item := range b.stmt.Items {
		if item.Alias != "" {
			aliases[strings.ToLower(item.Alias)] = true
		}
	}
	if len(aliases) == 0 {
		return false
	}
	for _, name := range cond.Columns(nil) {
		if aliases[strings.ToLower(name)] {
			return true
		}
	}
	return false
}

// runAlone is the Apply of a skill whose one implementation is its merge
// rule: the rule merged into SELECT * FROM the input, executed against the
// context — the statement the planner compiles for a chain of one.
func runAlone(merge func(*QueryBuilder, Invocation) error) ApplyFunc {
	return func(ctx *Context, inv Invocation) (*Result, error) {
		if len(inv.Inputs) == 0 {
			return nil, fmt.Errorf("skills: %s needs an input dataset", inv.Skill)
		}
		b := NewQueryBuilder(inv.Inputs[0])
		if err := merge(b, inv); err != nil {
			return nil, err
		}
		t, err := sqlengine.ExecStmt(ctx, b.Stmt())
		if err != nil {
			return nil, err
		}
		return &Result{Table: t}, nil
	}
}
