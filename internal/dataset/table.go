package dataset

import (
	"fmt"
	"math"
	"strings"
)

// Table is an ordered collection of equal-length columns: the unit of data
// that skills consume and produce. Tables are immutable by convention — all
// transforms return new tables that may share column storage.
type Table struct {
	name   string
	cols   []*Column
	byName map[string]int
}

// NewTable builds a table from columns, validating that lengths match and
// names are unique.
func NewTable(name string, cols ...*Column) (*Table, error) {
	t := &Table{name: name, byName: make(map[string]int, len(cols))}
	for _, c := range cols {
		if err := t.addColumn(c); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// MustNewTable is NewTable for statically known-good inputs; it panics on error.
func MustNewTable(name string, cols ...*Column) *Table {
	t, err := NewTable(name, cols...)
	if err != nil {
		panic(err)
	}
	return t
}

func (t *Table) addColumn(c *Column) error {
	if _, dup := t.byName[c.Name()]; dup {
		return fmt.Errorf("dataset: duplicate column %q in table %q", c.Name(), t.name)
	}
	if len(t.cols) > 0 && c.Len() != t.cols[0].Len() {
		return fmt.Errorf("dataset: column %q has %d rows, table %q has %d",
			c.Name(), c.Len(), t.name, t.cols[0].Len())
	}
	t.byName[c.Name()] = len(t.cols)
	t.cols = append(t.cols, c)
	return nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// WithName returns a shallow copy of the table under a new name.
func (t *Table) WithName(name string) *Table {
	copied := *t
	copied.name = name
	return &copied
}

// NumRows returns the row count.
func (t *Table) NumRows() int {
	if len(t.cols) == 0 {
		return 0
	}
	return t.cols[0].Len()
}

// NumCols returns the column count.
func (t *Table) NumCols() int { return len(t.cols) }

// Columns returns the columns in order. Callers must not mutate the slice.
func (t *Table) Columns() []*Column { return t.cols }

// ColumnNames returns the column names in order.
func (t *Table) ColumnNames() []string {
	names := make([]string, len(t.cols))
	for i, c := range t.cols {
		names[i] = c.Name()
	}
	return names
}

// Column returns the named column, or an error naming the closest matches.
func (t *Table) Column(name string) (*Column, error) {
	if i, ok := t.byName[name]; ok {
		return t.cols[i], nil
	}
	// Case-insensitive fallback keeps GEL forgiving, as the UI is.
	for i, c := range t.cols {
		if strings.EqualFold(c.Name(), name) {
			return t.cols[i], nil
		}
	}
	return nil, fmt.Errorf("dataset: table %q has no column %q (columns: %s)",
		t.name, name, strings.Join(t.ColumnNames(), ", "))
}

// HasColumn reports whether the table has a column with the given name.
func (t *Table) HasColumn(name string) bool {
	_, err := t.Column(name)
	return err == nil
}

// Row returns row i as values in column order.
func (t *Table) Row(i int) []Value {
	row := make([]Value, len(t.cols))
	for j, c := range t.cols {
		row[j] = c.Value(i)
	}
	return row
}

// Select returns a table with only the named columns, in the given order.
func (t *Table) Select(names ...string) (*Table, error) {
	cols := make([]*Column, 0, len(names))
	for _, name := range names {
		c, err := t.Column(name)
		if err != nil {
			return nil, err
		}
		cols = append(cols, c)
	}
	return NewTable(t.name, cols...)
}

// Drop returns a table without the named columns.
func (t *Table) Drop(names ...string) (*Table, error) {
	dropped := make(map[string]bool, len(names))
	for _, name := range names {
		if !t.HasColumn(name) {
			return nil, fmt.Errorf("dataset: cannot drop missing column %q", name)
		}
		dropped[strings.ToLower(name)] = true
	}
	kept := make([]*Column, 0, len(t.cols))
	for _, c := range t.cols {
		if !dropped[strings.ToLower(c.Name())] {
			kept = append(kept, c)
		}
	}
	return NewTable(t.name, kept...)
}

// WithColumn returns a table with the column appended (or replaced when a
// column of that name exists).
func (t *Table) WithColumn(c *Column) (*Table, error) {
	if t.NumCols() > 0 && c.Len() != t.NumRows() {
		return nil, fmt.Errorf("dataset: column %q has %d rows, table has %d", c.Name(), c.Len(), t.NumRows())
	}
	cols := make([]*Column, 0, len(t.cols)+1)
	replaced := false
	for _, existing := range t.cols {
		if existing.Name() == c.Name() {
			cols = append(cols, c)
			replaced = true
		} else {
			cols = append(cols, existing)
		}
	}
	if !replaced {
		cols = append(cols, c)
	}
	return NewTable(t.name, cols...)
}

// Take returns a table with the rows at the given indexes, in order.
func (t *Table) Take(idx []int) *Table {
	cols := make([]*Column, len(t.cols))
	for i, c := range t.cols {
		cols[i] = c.Take(idx)
	}
	return MustNewTable(t.name, cols...)
}

// Head returns the first n rows, as a view (see Window).
func (t *Table) Head(n int) *Table { return t.Window(0, n) }

// Window returns rows [from, to) as a zero-copy view: every column is
// windowed in place rather than gathered, so carving a morsel out of a large
// table is O(columns), not O(rows). The view shares storage with the parent,
// and its immutable column index too: the schema is the parent's.
func (t *Table) Window(from, to int) *Table {
	cols := make([]*Column, len(t.cols))
	for i, c := range t.cols {
		cols[i] = c.Window(from, to)
	}
	return &Table{name: t.name, cols: cols, byName: t.byName}
}

// PinnedBytes is the memory the table keeps alive: every column's backing
// arrays, whole — a Window view answers for its parent's arrays, which it
// pins — plus string contents estimated from a sample. A column stored
// twice, or shared by two views, is charged once.
func (t *Table) PinnedBytes() int64 {
	var b int64
	seen := make(map[*Column]bool, len(t.cols))
	for _, c := range t.cols {
		if s := c.storage(); !seen[s] {
			seen[s] = true
			b += c.pinnedBytes()
		}
	}
	return b
}

// SortBy returns a table sorted by the named columns; desc[i] flips the
// order of key i. Missing desc entries default to ascending. The sort is
// stable so earlier orderings survive ties.
func (t *Table) SortBy(keys []string, desc []bool) (*Table, error) {
	if len(keys) == 0 {
		return t, nil
	}
	keyCols := make([]*Column, len(keys))
	for i, k := range keys {
		c, err := t.Column(k)
		if err != nil {
			return nil, err
		}
		keyCols[i] = c
	}
	return t.Take(SortIndex(keyCols, desc)), nil
}

// Concat appends the rows of tables end to end, in order, under the first
// table's name. Columns are matched by name and appear in first-seen order; a
// table missing a column contributes nulls for its rows. Each column
// concatenates its typed storage (ConcatColumns); only a column whose type
// differs between tables is promoted first, to the CommonType of its parts.
// tables must not be empty.
func Concat(tables []*Table) *Table {
	var names []string
	seen := make(map[string]bool)
	for _, t := range tables {
		for _, c := range t.cols {
			if !seen[c.name] {
				seen[c.name] = true
				names = append(names, c.name)
			}
		}
	}
	cols := make([]*Column, len(names))
	parts := make([]*Column, len(tables))
	for i, name := range names {
		typ := TypeNull
		for j, t := range tables {
			if parts[j], _ = t.Column(name); parts[j] != nil {
				typ = CommonType(typ, parts[j].typ)
			}
		}
		for j, t := range tables {
			switch p := parts[j]; {
			case p == nil || p.typ == TypeNull:
				parts[j] = nullColumn(name, typ, t.NumRows())
			case p.typ != typ:
				parts[j] = NewColumn(name, typ)
				for r := 0; r < p.n; r++ {
					parts[j].Append(p.Value(r))
				}
			}
		}
		cols[i] = ConcatColumns(parts).Rename(name)
	}
	return MustNewTable(tables[0].name, cols...)
}

// nullColumn returns a column of n nulls.
func nullColumn(name string, typ Type, n int) *Column {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = -1
	}
	return NewColumn(name, typ).Take(idx)
}

// Distinct returns the table with duplicate rows over the named columns
// removed (all columns when names is empty), keeping first occurrences.
func (t *Table) Distinct(names ...string) (*Table, error) {
	probe := t
	if len(names) > 0 {
		p, err := t.Select(names...)
		if err != nil {
			return nil, err
		}
		probe = p
	}
	keep := make([]int, 0, t.NumRows())
	seen := make(map[string]bool, t.NumRows())
	for r := 0; r < t.NumRows(); r++ {
		key := rowKey(probe.Row(r))
		if !seen[key] {
			seen[key] = true
			keep = append(keep, r)
		}
	}
	return t.Take(keep), nil
}

func rowKey(row []Value) string {
	var b strings.Builder
	for _, v := range row {
		b.WriteString(v.Type.String())
		b.WriteByte(':')
		b.WriteString(v.String())
		b.WriteByte('\x00')
	}
	return b.String()
}

// Fingerprint returns a content hash of the table: schema (column names and
// types, in order) plus every cell value and its null bit. The table name is
// excluded, so renamed shallow copies fingerprint identically. The DAG
// executor folds fingerprints of external inputs into sub-DAG cache keys, so
// a reloaded or refreshed dataset under the same name never serves stale
// cached results. O(cells); callers that look tables up repeatedly should
// memoize (skills.Context does, keyed by table identity).
func (t *Table) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(u uint64) {
		for shift := 0; shift < 64; shift += 8 {
			h ^= (u >> shift) & 0xff
			h *= prime64
		}
	}
	mixStr := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		h ^= 0xff // terminator so "ab","c" != "a","bc"
		h *= prime64
	}
	mix(uint64(t.NumRows()))
	for _, c := range t.cols {
		mixStr(c.Name())
		mix(uint64(c.typ))
		for r := 0; r < c.n; r++ {
			if c.IsNull(r) {
				mix(1)
				continue
			}
			mix(0)
			switch c.typ {
			case TypeInt:
				mix(uint64(c.ints[r]))
			case TypeFloat:
				mix(math.Float64bits(c.fls[r]))
			case TypeString:
				mixStr(c.strs[r])
			case TypeBool:
				if c.bools[r] {
					mix(1)
				} else {
					mix(0)
				}
			case TypeTime:
				mix(uint64(c.times[r]))
			}
		}
	}
	return h
}

// Equal reports whether two tables have identical schemas and cell values.
// Column order matters; table names do not.
func (t *Table) Equal(other *Table) bool {
	if other == nil || t.NumCols() != other.NumCols() || t.NumRows() != other.NumRows() {
		return false
	}
	for i, c := range t.cols {
		oc := other.cols[i]
		if c.Name() != oc.Name() {
			return false
		}
		for r := 0; r < c.Len(); r++ {
			if !Equal(c.Value(r), oc.Value(r)) {
				return false
			}
		}
	}
	return true
}

// String renders a compact preview: schema line plus up to 10 rows, the way
// the console shows datasets.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%d rows × %d columns)\n", t.name, t.NumRows(), t.NumCols())
	header := make([]string, t.NumCols())
	for i, c := range t.cols {
		header[i] = fmt.Sprintf("%s:%s", c.Name(), c.Type())
	}
	b.WriteString(strings.Join(header, " | "))
	b.WriteByte('\n')
	limit := t.NumRows()
	if limit > 10 {
		limit = 10
	}
	for r := 0; r < limit; r++ {
		cells := make([]string, t.NumCols())
		for i, c := range t.cols {
			cells[i] = c.Value(r).String()
		}
		b.WriteString(strings.Join(cells, " | "))
		b.WriteByte('\n')
	}
	if t.NumRows() > limit {
		fmt.Fprintf(&b, "… %d more rows\n", t.NumRows()-limit)
	}
	return b.String()
}
