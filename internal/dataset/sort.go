package dataset

import "slices"

// SortIndex returns the row indexes that order the rows by the given key
// columns; desc[i] flips key i (missing entries default to ascending). The
// sort is stable, and nulls order before every non-null value, matching
// Compare. Each key column's typed storage is decoded once into a typed
// comparator, so no per-comparison Value boxing happens — this is the sort
// primitive behind ORDER BY and Table.SortBy. Rows whose keys tie order by
// row index, which makes the order total: an unstable O(n log n) sort then
// yields the stable order.
func SortIndex(cols []*Column, desc []bool) []int {
	if len(cols) == 0 {
		return nil
	}
	n := cols[0].Len()
	cmps := make([]func(a, b int) int, len(cols))
	for i, c := range cols {
		cmps[i] = c.comparator()
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		for k, cmp := range cmps {
			if c := cmp(a, b); c != 0 {
				if k < len(desc) && desc[k] {
					return -c
				}
				return c
			}
		}
		return cmpInt(int64(a), int64(b))
	})
	return idx
}

// comparator returns a typed row-comparison function over the column,
// equivalent to Compare(c.Value(a), c.Value(b)) but without boxing.
func (c *Column) comparator() func(a, b int) int {
	nulls := c.nulls
	cmpNulls := func(a, b int) (int, bool) {
		an := nulls != nil && nulls[a]
		bn := nulls != nil && nulls[b]
		switch {
		case an && bn:
			return 0, true
		case an:
			return -1, true
		case bn:
			return 1, true
		}
		return 0, false
	}
	switch c.typ {
	case TypeInt:
		vals := c.ints
		return func(a, b int) int {
			if r, done := cmpNulls(a, b); done {
				return r
			}
			return cmpInt(vals[a], vals[b])
		}
	case TypeFloat:
		vals := c.fls
		return func(a, b int) int {
			if r, done := cmpNulls(a, b); done {
				return r
			}
			return cmpFloat(vals[a], vals[b])
		}
	case TypeString:
		vals := c.strs
		return func(a, b int) int {
			if r, done := cmpNulls(a, b); done {
				return r
			}
			switch {
			case vals[a] < vals[b]:
				return -1
			case vals[a] > vals[b]:
				return 1
			default:
				return 0
			}
		}
	case TypeBool:
		vals := c.bools
		return func(a, b int) int {
			if r, done := cmpNulls(a, b); done {
				return r
			}
			return cmpInt(b2i(vals[a]), b2i(vals[b]))
		}
	case TypeTime:
		vals := c.times
		return func(a, b int) int {
			if r, done := cmpNulls(a, b); done {
				return r
			}
			return cmpInt(vals[a], vals[b])
		}
	default: // TypeNull: every row is null, all equal
		return func(a, b int) int { return 0 }
	}
}
