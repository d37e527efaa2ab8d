package dataset

import (
	"fmt"
	"time"
)

// Column is a named, typed vector of values with a null mask. Storage is
// columnar: one typed slice per column plus a shared null bitmap, so scans
// and aggregations touch contiguous memory.
type Column struct {
	name  string
	typ   Type
	ints  []int64
	fls   []float64
	strs  []string
	bools []bool
	times []int64 // unix nanoseconds
	nulls []bool
	n     int
	// owner is the column whose backing arrays a Window view shares (nil
	// when the column owns its storage), so PinnedBytes charges a view the
	// whole arrays it keeps alive.
	owner *Column
}

// NewColumn returns an empty column of the given name and type.
func NewColumn(name string, typ Type) *Column {
	return &Column{name: name, typ: typ}
}

// IntColumn builds an int column from values; a nil nulls mask means no nulls.
func IntColumn(name string, vals []int64, nulls []bool) *Column {
	c := &Column{name: name, typ: TypeInt, ints: vals, n: len(vals)}
	c.setNulls(nulls)
	return c
}

// FloatColumn builds a float column from values.
func FloatColumn(name string, vals []float64, nulls []bool) *Column {
	c := &Column{name: name, typ: TypeFloat, fls: vals, n: len(vals)}
	c.setNulls(nulls)
	return c
}

// StringColumn builds a string column from values.
func StringColumn(name string, vals []string, nulls []bool) *Column {
	c := &Column{name: name, typ: TypeString, strs: vals, n: len(vals)}
	c.setNulls(nulls)
	return c
}

// BoolColumn builds a bool column from values.
func BoolColumn(name string, vals []bool, nulls []bool) *Column {
	c := &Column{name: name, typ: TypeBool, bools: vals, n: len(vals)}
	c.setNulls(nulls)
	return c
}

// TimeColumn builds a time column from values.
func TimeColumn(name string, vals []time.Time, nulls []bool) *Column {
	nanos := make([]int64, len(vals))
	for i, t := range vals {
		nanos[i] = t.UnixNano()
	}
	c := &Column{name: name, typ: TypeTime, times: nanos, n: len(vals)}
	c.setNulls(nulls)
	return c
}

func (c *Column) setNulls(nulls []bool) {
	if nulls != nil {
		if len(nulls) != c.n {
			panic(fmt.Sprintf("dataset: null mask length %d != column length %d", len(nulls), c.n))
		}
		c.nulls = nulls
	}
}

// Name returns the column name.
func (c *Column) Name() string { return c.name }

// Type returns the column's logical type.
func (c *Column) Type() Type { return c.typ }

// Len returns the number of rows.
func (c *Column) Len() int { return c.n }

// IsNull reports whether row i is null.
func (c *Column) IsNull(i int) bool {
	if c.typ == TypeNull {
		return true
	}
	return c.nulls != nil && c.nulls[i]
}

// NullCount returns the number of null rows.
func (c *Column) NullCount() int {
	if c.typ == TypeNull {
		return c.n
	}
	count := 0
	for _, isNull := range c.nulls {
		if isNull {
			count++
		}
	}
	return count
}

// Value returns the value at row i.
func (c *Column) Value(i int) Value {
	if c.IsNull(i) {
		return Null
	}
	switch c.typ {
	case TypeInt:
		return Int(c.ints[i])
	case TypeFloat:
		return Float(c.fls[i])
	case TypeString:
		return Str(c.strs[i])
	case TypeBool:
		return Bool(c.bools[i])
	case TypeTime:
		return Time(time.Unix(0, c.times[i]).UTC())
	default:
		return Null
	}
}

// Append appends a value, coercing it to the column type. Appending a value
// that cannot coerce records a null.
func (c *Column) Append(v Value) {
	c.owner = nil // a view's append reallocates: the column owns its storage from here
	if v.IsNull() {
		c.appendNullSlot()
		return
	}
	coerced, ok := Coerce(v, c.typ)
	if !ok || coerced.IsNull() {
		c.appendNullSlot()
		return
	}
	switch c.typ {
	case TypeInt:
		c.ints = append(c.ints, coerced.I)
	case TypeFloat:
		c.fls = append(c.fls, coerced.F)
	case TypeString:
		c.strs = append(c.strs, coerced.S)
	case TypeBool:
		c.bools = append(c.bools, coerced.B)
	case TypeTime:
		c.times = append(c.times, coerced.T.UnixNano())
	}
	if c.nulls != nil {
		c.nulls = append(c.nulls, false)
	}
	c.n++
}

func (c *Column) appendNullSlot() {
	c.owner = nil
	switch c.typ {
	case TypeInt:
		c.ints = append(c.ints, 0)
	case TypeFloat:
		c.fls = append(c.fls, 0)
	case TypeString:
		c.strs = append(c.strs, "")
	case TypeBool:
		c.bools = append(c.bools, false)
	case TypeTime:
		c.times = append(c.times, 0)
	}
	if c.nulls == nil {
		c.nulls = make([]bool, c.n, c.n+1)
	}
	c.nulls = append(c.nulls, true)
	c.n++
}

// Rename returns a shallow copy of the column under a new name. The data is
// shared, which is safe because columns are immutable by convention once
// published in a Table.
func (c *Column) Rename(name string) *Column {
	copied := *c
	copied.name = name
	return &copied
}

// Take returns a new column containing the rows at the given indexes, in
// order. Indexes may repeat; a negative index produces a null (the
// null-extension rows of a left join use this). The gather runs one typed
// loop per column type rather than a per-element type switch.
func (c *Column) Take(idx []int) *Column {
	out := &Column{name: c.name, typ: c.typ, n: len(idx)}
	switch c.typ {
	case TypeInt:
		out.ints, out.nulls = takeSlice(c.ints, c.nulls, idx)
	case TypeFloat:
		out.fls, out.nulls = takeSlice(c.fls, c.nulls, idx)
	case TypeString:
		out.strs, out.nulls = takeSlice(c.strs, c.nulls, idx)
	case TypeBool:
		out.bools, out.nulls = takeSlice(c.bools, c.nulls, idx)
	case TypeTime:
		out.times, out.nulls = takeSlice(c.times, c.nulls, idx)
	}
	return out
}

// takeSlice gathers src rows at idx. The returned null mask is nil when no
// gathered row is null, preserving the no-mask representation.
func takeSlice[T any](src []T, srcNulls []bool, idx []int) ([]T, []bool) {
	vals := make([]T, len(idx))
	if srcNulls == nil {
		anyNeg := false
		for o, i := range idx {
			if i < 0 {
				anyNeg = true
				continue
			}
			vals[o] = src[i]
		}
		if !anyNeg {
			return vals, nil
		}
		nulls := make([]bool, len(idx))
		for o, i := range idx {
			if i < 0 {
				nulls[o] = true
			}
		}
		return vals, nulls
	}
	nulls := make([]bool, len(idx))
	anyNull := false
	for o, i := range idx {
		if i < 0 || srcNulls[i] {
			nulls[o] = true
			anyNull = true
			continue
		}
		vals[o] = src[i]
	}
	if !anyNull {
		nulls = nil
	}
	return vals, nulls
}

// Window returns rows [from, to) as a zero-copy view: the typed storage and
// null mask are subsliced, not gathered, so a morsel over a large column costs
// O(1) regardless of chunk size. The view shares storage with the parent,
// which is safe because columns are immutable by convention once published;
// its capacity ends at to, so an Append on the view copies and never writes
// into the parent's next row.
func (c *Column) Window(from, to int) *Column {
	if from < 0 {
		from = 0
	}
	if to > c.n {
		to = c.n
	}
	if from > to {
		from = to
	}
	out := &Column{name: c.name, typ: c.typ, n: to - from, owner: c.storage()}
	switch c.typ {
	case TypeInt:
		out.ints = c.ints[from:to:to]
	case TypeFloat:
		out.fls = c.fls[from:to:to]
	case TypeString:
		out.strs = c.strs[from:to:to]
	case TypeBool:
		out.bools = c.bools[from:to:to]
	case TypeTime:
		out.times = c.times[from:to:to]
	}
	if c.nulls != nil {
		out.nulls = c.nulls[from:to:to]
	}
	return out
}

// storage returns the column whose backing arrays c shares.
func (c *Column) storage() *Column {
	if c.owner != nil {
		return c.owner
	}
	return c
}

// pinnedBytes is what c's backing arrays occupy, whole: a view answers for
// its owner's. String contents are estimated from up to 64 sampled cells, so
// the charge costs O(1) however long the column.
func (c *Column) pinnedBytes() int64 {
	s := c.storage()
	b := int64(cap(s.ints)+cap(s.fls)+cap(s.times))*8 + int64(cap(s.bools)+cap(s.nulls))
	if n := len(s.strs); n > 0 {
		step := max(1, n/64)
		var sampled, chars int64
		for i := 0; i < n; i += step {
			sampled++
			chars += int64(len(s.strs[i]))
		}
		b += int64(cap(s.strs))*16 + chars*int64(n)/sampled
	}
	return b
}

// ConcatColumns appends parts end to end under the first part's name. Parts
// of one type concatenate their typed storage (the type is kept even when
// every row is null); parts of differing types — a computed column whose
// inferred type changed between chunks — are re-inferred over their non-null
// values the way a column builder infers them, and only then are cells boxed.
func ConcatColumns(parts []*Column) *Column {
	first := parts[0]
	if len(parts) == 1 {
		return first
	}
	n, sameType, anyNulls := 0, true, false
	for _, p := range parts {
		n += p.n
		sameType = sameType && p.typ == first.typ
		anyNulls = anyNulls || p.nulls != nil
	}
	if !sameType {
		typ := TypeNull
		for _, p := range parts {
			if p.NullCount() < p.n {
				typ = CommonType(typ, p.typ)
			}
		}
		if typ == TypeNull {
			typ = TypeString
		}
		out := NewColumn(first.name, typ)
		for _, p := range parts {
			for i := 0; i < p.n; i++ {
				out.Append(p.Value(i))
			}
		}
		return out
	}
	out := &Column{name: first.name, typ: first.typ, n: n}
	switch first.typ {
	case TypeInt:
		out.ints = concatSlices(parts, n, func(c *Column) []int64 { return c.ints })
	case TypeFloat:
		out.fls = concatSlices(parts, n, func(c *Column) []float64 { return c.fls })
	case TypeString:
		out.strs = concatSlices(parts, n, func(c *Column) []string { return c.strs })
	case TypeBool:
		out.bools = concatSlices(parts, n, func(c *Column) []bool { return c.bools })
	case TypeTime:
		out.times = concatSlices(parts, n, func(c *Column) []int64 { return c.times })
	}
	if anyNulls && first.typ != TypeNull {
		out.nulls = make([]bool, n)
		off := 0
		for _, p := range parts {
			copy(out.nulls[off:], p.nulls)
			off += p.n
		}
	}
	return out
}

func concatSlices[T any](parts []*Column, n int, vals func(*Column) []T) []T {
	out := make([]T, 0, n)
	for _, p := range parts {
		out = append(out, vals(p)...)
	}
	return out
}

// Floats returns the column materialized as float64s with a validity mask
// (false where the row is null or non-numeric). ML skills consume this view.
func (c *Column) Floats() (vals []float64, valid []bool) {
	vals = make([]float64, c.n)
	valid = make([]bool, c.n)
	for i := 0; i < c.n; i++ {
		if c.IsNull(i) {
			continue
		}
		if f, ok := c.Value(i).AsFloat(); ok {
			vals[i], valid[i] = f, true
		}
	}
	return vals, valid
}
