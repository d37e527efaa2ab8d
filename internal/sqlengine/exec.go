package sqlengine

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"datachat/internal/dataset"
	"datachat/internal/expr"
)

// Catalog resolves base table names during execution.
type Catalog interface {
	// Table returns the named table.
	Table(name string) (*dataset.Table, error)
}

// MapCatalog is an in-memory Catalog. Lookups hit an exact-name index and
// then a case-folded one, both built once at construction, so resolving a
// table name never scans the table set.
type MapCatalog struct {
	exact  map[string]*dataset.Table
	folded map[string]*dataset.Table
}

// NewMapCatalog indexes tables by exact and case-folded name. When two
// names collide case-insensitively, the lexicographically smallest name
// wins the folded slot (the previous linear scan's winner depended on map
// iteration order).
func NewMapCatalog(tables map[string]*dataset.Table) MapCatalog {
	m := MapCatalog{
		exact:  make(map[string]*dataset.Table, len(tables)),
		folded: make(map[string]*dataset.Table, len(tables)),
	}
	names := make([]string, 0, len(tables))
	for name := range tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m.exact[name] = tables[name]
		folded := strings.ToLower(name)
		if _, taken := m.folded[folded]; !taken {
			m.folded[folded] = tables[name]
		}
	}
	return m
}

// Table implements Catalog.
func (m MapCatalog) Table(name string) (*dataset.Table, error) {
	if t, ok := m.exact[name]; ok {
		return t, nil
	}
	if t, ok := m.folded[strings.ToLower(name)]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("sql: unknown table %q", name)
}

// Options tunes statement execution.
type Options struct {
	// DisableVectorized selects the row-at-a-time reference executor, which
	// never compiles a kernel and never chunks. It is the oracle: the
	// differential tests run a query through it and through the morsel
	// pipeline and require identical results.
	DisableVectorized bool
}

// Exec parses and executes a SQL query against the catalog.
func Exec(catalog Catalog, query string) (*dataset.Table, error) {
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return ExecStmt(catalog, stmt)
}

// ExecStmt executes a parsed statement against the catalog.
func ExecStmt(catalog Catalog, stmt *SelectStmt) (*dataset.Table, error) {
	return ExecStmtOptions(catalog, stmt, Options{})
}

// ExecStmtOptions executes a parsed statement with explicit options: the
// morsel pipeline drained on one inline worker, or — DisableVectorized — the
// row reference. Nothing consumes the pipeline's morsels, so it reads each
// input as one morsel (see execStream).
func ExecStmtOptions(catalog Catalog, stmt *SelectStmt, opts Options) (*dataset.Table, error) {
	if opts.DisableVectorized {
		return (&executor{catalog: catalog}).execSelect(stmt)
	}
	rs, err := execStream(catalog, stmt, StreamOptions{}, true)
	if err != nil {
		return nil, err
	}
	return rs.Drain(nil)
}

// rel is the executor's working relation: columns with source qualifiers,
// allowing duplicate bare names across join sides.
type rel struct {
	cols  []*dataset.Column
	quals []string // alias of the relation each column came from

	// boxed, when set, holds per column (nil: none) the cells of a column
	// whose values do not share one type — an aggregate that finished as an
	// int for some groups and a float for others. The column holds them
	// converted to their common type, as a column built from them would;
	// the row evaluator reads the boxed cells, and kernels do not bind it.
	boxed [][]dataset.Value

	rows int // the row count of a relation with no columns
}

func (r *rel) numRows() int {
	if len(r.cols) == 0 {
		return r.rows
	}
	return r.cols[0].Len()
}

// lookup resolves a possibly-qualified column name to its index.
func (r *rel) lookup(name string) (int, error) {
	if dot := strings.LastIndexByte(name, '.'); dot >= 0 {
		qual, col := name[:dot], name[dot+1:]
		for i, c := range r.cols {
			if strings.EqualFold(r.quals[i], qual) && strings.EqualFold(c.Name(), col) {
				return i, nil
			}
		}
		return -1, fmt.Errorf("sql: unknown column %q", name)
	}
	found := -1
	for i, c := range r.cols {
		if strings.EqualFold(c.Name(), name) {
			if found >= 0 {
				return -1, fmt.Errorf("sql: ambiguous column %q", name)
			}
			found = i
		}
	}
	if found < 0 {
		return -1, fmt.Errorf("sql: unknown column %q", name)
	}
	return found, nil
}

// rowEnv evaluates expressions against one row of a rel.
type rowEnv struct {
	r   *rel
	row int
}

// Lookup implements expr.Env.
func (e rowEnv) Lookup(name string) (dataset.Value, error) {
	i, err := e.r.lookup(name)
	if err != nil || e.row >= e.r.numRows() {
		// No such row: the representative of an aggregate over no rows.
		return dataset.Null, err
	}
	if e.r.boxed != nil && e.r.boxed[i] != nil {
		return e.r.boxed[i][e.row], nil
	}
	return e.r.cols[i].Value(e.row), nil
}

// chainEnv consults envs in order, returning the first successful lookup.
type chainEnv []expr.Env

// Lookup implements expr.Env.
func (c chainEnv) Lookup(name string) (dataset.Value, error) {
	var lastErr error
	for _, env := range c {
		v, err := env.Lookup(name)
		if err == nil {
			return v, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("sql: unknown column %q", name)
	}
	return dataset.Null, lastErr
}

// executor is the row-at-a-time reference: every expression is evaluated
// boxed, one row at a time, over whole materialized relations. It runs only
// behind Options.DisableVectorized, as the oracle the morsel pipeline is
// checked against.
type executor struct {
	catalog Catalog
}

// rowBudget is the LIMIT push-down: without grouping, ordering, or DISTINCT,
// only the first offset+limit surviving rows matter — the scan stops there
// (-1: no such bound). This is what makes the consolidated flat query of
// §2.2 cheap.
func rowBudget(stmt *SelectStmt, grouped bool) int {
	if !grouped && len(stmt.OrderBy) == 0 && !stmt.Distinct && stmt.Limit >= 0 {
		return stmt.Offset + stmt.Limit
	}
	return -1
}

func (e *executor) execSelect(stmt *SelectStmt) (*dataset.Table, error) {
	if stmt.From == nil {
		return e.finishSelect(stmt, &rel{}) // SELECT without FROM evaluates items once
	}
	source, err := e.execRef(stmt.From)
	if err != nil {
		return nil, err
	}
	budget := rowBudget(stmt, len(stmt.GroupBy) > 0 || len(collectAllAggs(stmt)) > 0)
	if stmt.Where != nil {
		keep, err := e.filterRows(stmt.Where, source, budget)
		if err != nil {
			return nil, err
		}
		source = takeRel(source, keep)
	} else if budget >= 0 && source.numRows() > budget {
		keep := make([]int, budget)
		for i := range keep {
			keep[i] = i
		}
		source = takeRel(source, keep)
	}
	return e.finishSelect(stmt, source)
}

// finishSelect runs everything after FROM and WHERE over a materialized
// relation: grouping or projection (with ORDER BY), DISTINCT, OFFSET/LIMIT.
func (e *executor) finishSelect(stmt *SelectStmt, source *rel) (*dataset.Table, error) {
	var out *dataset.Table
	var err error
	if aggs := collectAllAggs(stmt); len(stmt.GroupBy) > 0 || len(aggs) > 0 {
		out, err = e.execGrouped(stmt, source, aggs)
	} else {
		out, err = e.execProjection(stmt, source)
	}
	if err != nil {
		return nil, err
	}
	return distinctLimit(stmt, out)
}

// distinctLimit applies a statement's DISTINCT and OFFSET/LIMIT to its
// grouped or projected (and ordered) output.
func distinctLimit(stmt *SelectStmt, out *dataset.Table) (*dataset.Table, error) {
	if stmt.Distinct {
		var err error
		if out, err = out.Distinct(); err != nil {
			return nil, err
		}
	}
	if stmt.Offset > 0 || stmt.Limit >= 0 {
		from := stmt.Offset
		to := out.NumRows()
		if stmt.Limit >= 0 && from+stmt.Limit < to {
			to = from + stmt.Limit
		}
		out = out.Window(from, to)
	}
	return out, nil
}

// filterRows returns the indexes of the rows of r that pass where, in row
// order, stopping at limit survivors (limit < 0 means all of them).
func (e *executor) filterRows(where expr.Expr, r *rel, limit int) ([]int, error) {
	keep := make([]int, 0, r.numRows())
	for i := 0; i < r.numRows() && len(keep) != limit; i++ {
		ok, err := expr.EvalBool(where, rowEnv{r, i})
		if err != nil {
			return nil, err
		}
		if ok {
			keep = append(keep, i)
		}
	}
	return keep, nil
}

// collectAllAggs lists a statement's aggregate calls — in its items, HAVING
// and ORDER BY keys — once per key.
func collectAllAggs(stmt *SelectStmt) []*AggCall {
	var aggs []*AggCall
	for _, item := range stmt.Items {
		if !item.Star {
			aggs = collectAggs(item.Expr, aggs)
		}
	}
	aggs = collectAggs(stmt.Having, aggs)
	for _, o := range stmt.OrderBy {
		aggs = collectAggs(o.Expr, aggs)
	}
	// Dedupe by key so each aggregate computes once per group.
	seen := make(map[string]bool, len(aggs))
	uniq := aggs[:0]
	for _, a := range aggs {
		if !seen[a.Key()] {
			seen[a.Key()] = true
			uniq = append(uniq, a)
		}
	}
	return uniq
}

// execRef evaluates a FROM-clause relation.
func (e *executor) execRef(ref TableRef) (*rel, error) {
	switch r := ref.(type) {
	case *BaseTable:
		t, err := e.catalog.Table(r.Name)
		if err != nil {
			return nil, err
		}
		return tableToRel(t, r.Alias), nil
	case *Subquery:
		t, err := e.execSelect(r.Stmt)
		if err != nil {
			return nil, err
		}
		alias := r.Alias
		if alias == "" {
			alias = "subquery"
		}
		return tableToRel(t, alias), nil
	case *Join:
		return e.execJoin(r)
	default:
		return nil, fmt.Errorf("sql: unsupported table reference %T", ref)
	}
}

func tableToRel(t *dataset.Table, alias string) *rel {
	cols := t.Columns()
	r := &rel{cols: make([]*dataset.Column, len(cols)), quals: make([]string, len(cols))}
	for i, c := range cols {
		r.cols[i] = c
		r.quals[i] = alias
	}
	return r
}

func takeRel(r *rel, idx []int) *rel {
	out := &rel{cols: make([]*dataset.Column, len(r.cols)), quals: r.quals, rows: len(idx)}
	for i, c := range r.cols {
		out.cols[i] = c.Take(idx)
	}
	if r.boxed != nil {
		out.boxed = make([][]dataset.Value, len(r.boxed))
		for i, vals := range r.boxed {
			if vals != nil {
				out.boxed[i] = make([]dataset.Value, len(idx))
				for o, at := range idx {
					out.boxed[i][o] = vals[at]
				}
			}
		}
	}
	return out
}

// execJoin evaluates a join, using a hash join on equi-conditions between
// the two sides when possible and a nested loop otherwise.
func (e *executor) execJoin(j *Join) (*rel, error) {
	left, err := e.execRef(j.Left)
	if err != nil {
		return nil, err
	}
	right, err := e.execRef(j.Right)
	if err != nil {
		return nil, err
	}
	combined := &rel{
		cols:  append(append([]*dataset.Column{}, left.cols...), right.cols...),
		quals: append(append([]string{}, left.quals...), right.quals...),
	}

	var leftIdx, rightIdx []int
	var matchedLeft []bool
	if j.Kind == LeftJoin {
		matchedLeft = make([]bool, left.numRows())
	}

	leftKeys, rightKeys := equiJoinKeys(j.On, left, right)
	if len(leftKeys) > 0 {
		// Hash join: build on the right side.
		build := make(map[string][]int, right.numRows())
		for i := 0; i < right.numRows(); i++ {
			build[joinKey(right, rightKeys, i)] = append(build[joinKey(right, rightKeys, i)], i)
		}
		for li := 0; li < left.numRows(); li++ {
			for _, ri := range build[joinKey(left, leftKeys, li)] {
				ok, err := e.joinResidual(j.On, combined, left, li, right, ri)
				if err != nil {
					return nil, err
				}
				if ok {
					leftIdx = append(leftIdx, li)
					rightIdx = append(rightIdx, ri)
					if matchedLeft != nil {
						matchedLeft[li] = true
					}
				}
			}
		}
	} else {
		for li := 0; li < left.numRows(); li++ {
			for ri := 0; ri < right.numRows(); ri++ {
				ok := true
				if j.On != nil {
					ok, err = e.joinResidual(j.On, combined, left, li, right, ri)
					if err != nil {
						return nil, err
					}
				}
				if ok {
					leftIdx = append(leftIdx, li)
					rightIdx = append(rightIdx, ri)
					if matchedLeft != nil {
						matchedLeft[li] = true
					}
				}
			}
		}
	}

	if matchedLeft != nil {
		for li, m := range matchedLeft {
			if !m {
				leftIdx = append(leftIdx, li)
				rightIdx = append(rightIdx, -1)
			}
		}
	}
	out := &rel{cols: make([]*dataset.Column, len(combined.cols)), quals: combined.quals}
	for ci := range combined.cols {
		var src *dataset.Column
		var idx []int
		if ci < len(left.cols) {
			src, idx = left.cols[ci], leftIdx
		} else {
			src, idx = right.cols[ci-len(left.cols)], rightIdx
		}
		col := dataset.NewColumn(src.Name(), src.Type())
		for _, i := range idx {
			if i < 0 {
				col.Append(dataset.Null)
			} else {
				col.Append(src.Value(i))
			}
		}
		out.cols[ci] = col
	}
	return out, nil
}

// joinEnv resolves names against a (left row, right row) pair.
type joinEnv struct {
	left     *rel
	leftRow  int
	right    *rel
	rightRow int
	combined *rel
}

// Lookup implements expr.Env.
func (e joinEnv) Lookup(name string) (dataset.Value, error) {
	i, err := e.combined.lookup(name)
	if err != nil {
		return dataset.Null, err
	}
	if i < len(e.left.cols) {
		return e.left.cols[i].Value(e.leftRow), nil
	}
	return e.right.cols[i-len(e.left.cols)].Value(e.rightRow), nil
}

func (e *executor) joinResidual(on expr.Expr, combined, left *rel, li int, right *rel, ri int) (bool, error) {
	if on == nil {
		return true, nil
	}
	return expr.EvalBool(on, joinEnv{left: left, leftRow: li, right: right, rightRow: ri, combined: combined})
}

// equiJoinKeys extracts column-index pairs from a conjunction of equality
// predicates where one side resolves in left and the other in right.
func equiJoinKeys(on expr.Expr, left, right *rel) (leftKeys, rightKeys []int) {
	var walk func(e expr.Expr)
	walk = func(e expr.Expr) {
		b, ok := e.(*expr.Binary)
		if !ok {
			return
		}
		switch b.Op {
		case expr.OpAnd:
			walk(b.Left)
			walk(b.Right)
		case expr.OpEq:
			lc, lok := b.Left.(*expr.Col)
			rc, rok := b.Right.(*expr.Col)
			if !lok || !rok {
				return
			}
			if li, err := left.lookup(lc.Name); err == nil {
				if ri, err := right.lookup(rc.Name); err == nil {
					leftKeys = append(leftKeys, li)
					rightKeys = append(rightKeys, ri)
					return
				}
			}
			if li, err := left.lookup(rc.Name); err == nil {
				if ri, err := right.lookup(lc.Name); err == nil {
					leftKeys = append(leftKeys, li)
					rightKeys = append(rightKeys, ri)
				}
			}
		}
	}
	walk(on)
	return leftKeys, rightKeys
}

func joinKey(r *rel, keys []int, row int) string {
	var b strings.Builder
	for _, k := range keys {
		v := r.cols[k].Value(row)
		if f, ok := v.AsFloat(); ok {
			// Normalize numerics so 2 joins with 2.0.
			fmt.Fprintf(&b, "n:%g\x00", f)
			continue
		}
		b.WriteString(v.Type.String())
		b.WriteByte(':')
		b.WriteString(v.String())
		b.WriteByte('\x00')
	}
	return b.String()
}

// plainColumns resolves exprs to column indexes of r when every one of them
// is a plain, unambiguous column reference; nil otherwise.
func plainColumns(exprs []expr.Expr, r *rel) []int {
	idx := make([]int, len(exprs))
	for i, ex := range exprs {
		c, ok := ex.(*expr.Col)
		if !ok {
			return nil
		}
		at, err := r.lookup(c.Name)
		if err != nil {
			return nil // ambiguous or unknown: the general path reports it
		}
		idx[i] = at
	}
	return idx
}

// execProjection evaluates non-grouped select items row by row. A select
// list and ORDER BY made purely of columns need no evaluation: the output
// columns alias the source's, ordered by direct column comparison.
func (e *executor) execProjection(stmt *SelectStmt, source *rel) (*dataset.Table, error) {
	names, exprs := expandItems(stmt.Items, source)
	if cols := plainColumns(exprs, source); cols != nil && stmt.From != nil {
		out := make([]*dataset.Column, len(cols))
		for i, idx := range cols {
			out[i] = source.cols[idx].Rename(names[i])
		}
		// Order keys resolve like the general path's: output names first.
		ob := &outputBatch{names: names, vecs: columnVecs(out), src: source}
		keys := make([]*expr.Vec, 0, len(stmt.OrderBy))
		for _, o := range stmt.OrderBy {
			if c, ok := o.Expr.(*expr.Col); ok {
				if key, err := ob.Vec(c.Name); err == nil {
					keys = append(keys, key)
				}
			}
		}
		if len(keys) == len(stmt.OrderBy) {
			t, err := assembleTable("result", out)
			if err != nil || len(keys) == 0 {
				return t, err
			}
			return t.Take(sortIndexes(source.numRows(), stmt.OrderBy,
				func(row, k int) dataset.Value { return keys[k].ValueAt(row) })), nil
		}
	}
	n, envAt := source.numRows(), func(i int) expr.Env { return rowEnv{source, i} }
	if stmt.From == nil {
		n, envAt = 1, func(int) expr.Env { return expr.MapEnv{} }
	}
	vals, keys, err := projectRows(names, exprs, nil, stmt.OrderBy, n, envAt)
	if err != nil {
		return nil, err
	}
	return sortedRowsTable(names, vals, keys, stmt.OrderBy)
}

// projectRows is the reference's row-at-a-time output phase: for
// each of n inputs (source rows, or groups) in order it applies having (nil
// keeps all), evaluates the select items, and evaluates the ORDER BY keys —
// against the output row first, the input second.
func projectRows(names []string, exprs []expr.Expr, having expr.Expr, orderBy []OrderItem, n int, envAt func(i int) expr.Env) (vals, keys [][]dataset.Value, err error) {
	// One output env reused across rows: every row writes the same name set,
	// so per-row maps would only add allocations.
	outRow := make(expr.MapEnv, len(exprs))
	for i := 0; i < n; i++ {
		env := envAt(i)
		if having != nil {
			ok, err := expr.EvalBool(having, env)
			if err != nil {
				return nil, nil, err
			}
			if !ok {
				continue
			}
		}
		row := make([]dataset.Value, len(exprs))
		for ci, ex := range exprs {
			if row[ci], err = ex.Eval(env); err != nil {
				return nil, nil, err
			}
			outRow[names[ci]] = row[ci]
		}
		vals = append(vals, row)
		if len(orderBy) > 0 {
			krow := make([]dataset.Value, len(orderBy))
			orderEnv := chainEnv{outRow, env}
			for ki, o := range orderBy {
				if krow[ki], err = o.Expr.Eval(orderEnv); err != nil {
					return nil, nil, err
				}
			}
			keys = append(keys, krow)
		}
	}
	return vals, keys, nil
}

// sortedRowsTable materializes projectRows' output, stably sorted by its keys.
func sortedRowsTable(names []string, vals, keys [][]dataset.Value, orderBy []OrderItem) (*dataset.Table, error) {
	out, err := rowsTable(names, nil, vals)
	if err != nil || len(orderBy) == 0 {
		return out, err
	}
	return out.Take(sortIndexes(len(keys), orderBy, func(i, k int) dataset.Value { return keys[i][k] })), nil
}

// expandItems resolves a select list against a relation: each item's output
// name and expression, a star expanded to every column (qualified where a
// bare name repeats).
func expandItems(items []SelectItem, source *rel) (names []string, exprs []expr.Expr) {
	for _, item := range items {
		if item.Star {
			counts := map[string]int{}
			for _, c := range source.cols {
				counts[strings.ToLower(c.Name())]++
			}
			for i, c := range source.cols {
				name := c.Name()
				if counts[strings.ToLower(name)] > 1 {
					name = source.quals[i] + "." + name
				}
				names = append(names, name)
				exprs = append(exprs, expr.Column(source.quals[i]+"."+c.Name()))
			}
			continue
		}
		name := item.Alias
		if name == "" {
			if c, ok := item.Expr.(*expr.Col); ok {
				name = c.Name
				if dot := strings.LastIndexByte(name, '.'); dot >= 0 {
					name = name[dot+1:]
				}
			} else {
				name = item.Expr.String()
			}
		}
		names = append(names, name)
		exprs = append(exprs, item.Expr)
	}
	return names, exprs
}

// groupData is one group ready for the reference's output phase
// (finishGrouped): the source row whose values stand in for the group's
// non-aggregate columns, plus each computed aggregate keyed by AggCall.Key.
type groupData struct {
	firstRow int
	aggVals  expr.MapEnv
}

// execGrouped evaluates aggregation queries.
func (e *executor) execGrouped(stmt *SelectStmt, source *rel, aggs []*AggCall) (*dataset.Table, error) {
	// Bucket rows by rendered group key, then aggregate each group's row set
	// with boxed values.
	type group struct {
		firstRow int
		rows     []int
	}
	var order []string
	buckets := map[string]*group{}
	if len(stmt.GroupBy) == 0 {
		g := &group{firstRow: 0}
		for i := 0; i < source.numRows(); i++ {
			g.rows = append(g.rows, i)
		}
		buckets[""] = g
		order = append(order, "")
	} else {
		for i := 0; i < source.numRows(); i++ {
			env := rowEnv{source, i}
			var kb strings.Builder
			for _, ge := range stmt.GroupBy {
				v, err := ge.Eval(env)
				if err != nil {
					return nil, err
				}
				kb.WriteString(v.Type.String())
				kb.WriteByte(':')
				kb.WriteString(v.String())
				kb.WriteByte('\x00')
			}
			key := kb.String()
			g, ok := buckets[key]
			if !ok {
				g = &group{firstRow: i}
				buckets[key] = g
				order = append(order, key)
			}
			g.rows = append(g.rows, i)
		}
	}

	groups := make([]groupData, 0, len(order))
	for _, key := range order {
		g := buckets[key]
		aggVals := make(expr.MapEnv, len(aggs))
		for _, a := range aggs {
			v, err := computeAgg(a, source, g.rows)
			if err != nil {
				return nil, err
			}
			aggVals[a.Key()] = v
		}
		groups = append(groups, groupData{firstRow: g.firstRow, aggVals: aggVals})
	}
	return e.finishGrouped(stmt, source, groups)
}

// finishGrouped runs the per-group output phase: HAVING, select items, and
// ORDER BY, with group rows delivered in first-seen order.
func (e *executor) finishGrouped(stmt *SelectStmt, source *rel, groups []groupData) (*dataset.Table, error) {
	names, exprs := expandItems(stmt.Items, source)
	vals, keys, err := projectRows(names, exprs, stmt.Having, stmt.OrderBy, len(groups), groupEnv(source, groups))
	if err != nil {
		return nil, err
	}
	return sortedRowsTable(names, vals, keys, stmt.OrderBy)
}

// groupEnv resolves names for group i: its aggregates first, then its
// representative source row.
func groupEnv(source *rel, groups []groupData) func(i int) expr.Env {
	return func(i int) expr.Env { return chainEnv{groups[i].aggVals, rowEnv{source, groups[i].firstRow}} }
}

func sortIndexes(n int, orderBy []OrderItem, key func(row, k int) dataset.Value) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for k, o := range orderBy {
			cmp := dataset.Compare(key(idx[a], k), key(idx[b], k))
			if cmp == 0 {
				continue
			}
			if o.Desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
	return idx
}

// computeAgg evaluates one aggregate over the rows of a group.
func computeAgg(a *AggCall, source *rel, rows []int) (dataset.Value, error) {
	if a.Star {
		return dataset.Int(int64(len(rows))), nil
	}
	var set valueSet
	for _, i := range rows {
		v, err := a.Arg.Eval(rowEnv{source, i})
		if err != nil {
			return dataset.Null, err
		}
		set.add(a, v)
	}
	return aggregate(a, set.vals)
}

// valueSet is a group's non-null argument values in row order — under
// DISTINCT its first occurrences only, keyed by type and render — which an
// aggregate finishes over (aggregate).
type valueSet struct {
	vals []dataset.Value
	seen map[string]bool
}

// add keeps v unless it is null or, under DISTINCT, already kept; it reports
// whether v was kept.
func (s *valueSet) add(a *AggCall, v dataset.Value) bool {
	if v.IsNull() {
		return false
	}
	if a.Distinct {
		key := v.Type.String() + ":" + v.String()
		if s.seen[key] {
			return false
		}
		if s.seen == nil {
			s.seen = map[string]bool{}
		}
		s.seen[key] = true
	}
	s.vals = append(s.vals, v)
	return true
}

// aggregate finishes an aggregate over a group's collected values.
func aggregate(a *AggCall, vals []dataset.Value) (dataset.Value, error) {
	switch a.Name {
	case "COUNT":
		return dataset.Int(int64(len(vals))), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return dataset.Null, nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			cmp := dataset.Compare(v, best)
			if (a.Name == "MIN" && cmp < 0) || (a.Name == "MAX" && cmp > 0) {
				best = v
			}
		}
		return best, nil
	case "SUM", "AVG", "MEDIAN", "STDDEV":
		if len(vals) == 0 {
			return dataset.Null, nil
		}
		nums := make([]float64, 0, len(vals))
		allInt := true
		for _, v := range vals {
			f, ok := v.AsFloat()
			if !ok {
				return dataset.Null, fmt.Errorf("sql: %s over non-numeric value %v", a.Name, v)
			}
			if v.Type != dataset.TypeInt {
				allInt = false
			}
			nums = append(nums, f)
		}
		switch a.Name {
		case "SUM":
			if allInt {
				var total int64
				over := false
				for _, v := range vals {
					total, over = addExact(total, v.I, over)
				}
				if over {
					return dataset.Null, sumOverflow(a)
				}
				return dataset.Int(total), nil
			}
			total := 0.0
			for _, f := range nums {
				total += f
			}
			return dataset.Float(total), nil
		case "AVG":
			total := 0.0
			for _, f := range nums {
				total += f
			}
			return dataset.Float(total / float64(len(nums))), nil
		case "MEDIAN":
			sort.Float64s(nums)
			mid := len(nums) / 2
			if len(nums)%2 == 1 {
				return dataset.Float(nums[mid]), nil
			}
			return dataset.Float((nums[mid-1] + nums[mid]) / 2), nil
		default: // STDDEV (population)
			mean := 0.0
			for _, f := range nums {
				mean += f
			}
			mean /= float64(len(nums))
			ss := 0.0
			for _, f := range nums {
				ss += (f - mean) * (f - mean)
			}
			return dataset.Float(math.Sqrt(ss / float64(len(nums)))), nil
		}
	default:
		return dataset.Null, fmt.Errorf("sql: unknown aggregate %q", a.Name)
	}
}

// addExact adds v to an exact int64 sum, reporting overflow — sticky, so a
// sum that overflowed stays failed whatever it adds next.
func addExact(sum, v int64, over bool) (int64, bool) {
	r := sum + v
	return r, over || (sum^r)&(v^r) < 0
}

// sumOverflow is the one error an integer SUM that leaves int64 fails with,
// on every engine path.
func sumOverflow(a *AggCall) error {
	return fmt.Errorf("sql: %s overflows int64", a)
}

// rowsTable materializes boxed rows as a table. A column's type is types[i]
// when given (a plain projection's chunk-stable type keeps DISTINCT and the
// wire encoding consistent across chunks), else the narrowest type its
// non-null values share — string when it has none.
func rowsTable(names []string, types []dataset.Type, rows [][]dataset.Value) (*dataset.Table, error) {
	cols := make([]*dataset.Column, len(names))
	for i, name := range names {
		typ := dataset.TypeNull
		if types != nil {
			typ = types[i]
		} else {
			for _, row := range rows {
				if !row[i].IsNull() {
					typ = dataset.CommonType(typ, row[i].Type)
				}
			}
			if typ == dataset.TypeNull {
				typ = dataset.TypeString
			}
		}
		cols[i] = dataset.NewColumn(name, typ)
		for _, row := range rows {
			cols[i].Append(row[i])
		}
	}
	return assembleTable("result", cols)
}

// assembleTable builds a table from output columns, disambiguating
// duplicate output names (e.g. SELECT a, a → a, a_1) the way every
// projection path must.
func assembleTable(name string, cols []*dataset.Column) (*dataset.Table, error) {
	out := make([]*dataset.Column, len(cols))
	used := map[string]int{}
	for i, col := range cols {
		base := col.Name()
		if n := used[strings.ToLower(base)]; n > 0 {
			col = col.Rename(fmt.Sprintf("%s_%d", base, n))
		}
		used[strings.ToLower(base)]++
		out[i] = col
	}
	return dataset.NewTable(name, out...)
}
