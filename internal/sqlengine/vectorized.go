package sqlengine

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"datachat/internal/dataset"
	"datachat/internal/expr"
)

// This file holds what the morsel pipeline needs to run a statement fragment
// as typed kernels over a morsel's columns: the column binders the kernel
// compiler resolves names through, the byte encodings of group and join keys,
// and the counters that record which side ran. When a fragment uses something
// the kernel compiler does not support, the operator evaluates that morsel
// row at a time instead; the reference executor remains authoritative. The
// differential tests execute queries both ways and require identical tables,
// so everything here replicates the row path's semantics exactly:
// three-valued null logic, Compare's NaN-equals-everything floats, the
// rendered group-key equivalence, and the hash-prefilter-plus-full-residual
// join contract.

// vecStats counts, per pipeline operator of a statement, whether it ran on
// kernels or fell back to the row evaluator — once per operator (on its first
// morsel), not once per morsel. The differential harness asserts both sides
// are exercised; /statsz reports them.
var vecStats struct {
	Filters, FilterFallbacks         atomic.Int64
	Projections, ProjectionFallbacks atomic.Int64
	Groups, GroupFallbacks           atomic.Int64
	Joins, ResidualFallbacks         atomic.Int64
}

// VecCounters snapshots the kernel-execution counters. Keys: filters /
// filter_fallbacks (a WHERE compiled / was evaluated per row), projections /
// projection_fallbacks (a computed select list or ORDER BY key set),
// groups / group_fallbacks (group keys and aggregate arguments), joins (an
// equi join built its byte-keyed hash table), residual_fallbacks (a join's ON
// residual was re-checked per candidate pair).
func VecCounters() map[string]int64 {
	return map[string]int64{
		"filters":              vecStats.Filters.Load(),
		"filter_fallbacks":     vecStats.FilterFallbacks.Load(),
		"projections":          vecStats.Projections.Load(),
		"projection_fallbacks": vecStats.ProjectionFallbacks.Load(),
		"groups":               vecStats.Groups.Load(),
		"group_fallbacks":      vecStats.GroupFallbacks.Load(),
		"joins":                vecStats.Joins.Load(),
		"residual_fallbacks":   vecStats.ResidualFallbacks.Load(),
	}
}

// countFirst bumps kernel, or fallback when the operator could not compile,
// if this is the operator's first morsel.
func countFirst(first, compiled bool, kernel, fallback *atomic.Int64) {
	switch {
	case !first:
	case compiled:
		kernel.Add(1)
	default:
		fallback.Add(1)
	}
}

// relBinder exposes a rel's columns to the kernel compiler using the same
// qualified-name resolution (and the same ambiguity errors) as rowEnv.
type relBinder struct{ r *rel }

// BindColumn implements expr.ColumnBinder.
func (b relBinder) BindColumn(name string) (*dataset.Column, error) {
	i, err := b.r.lookup(name)
	if err != nil {
		return nil, err
	}
	return b.r.cols[i], nil
}

// outputBinder resolves ORDER BY column references the way the row path's
// chainEnv{outRow, rowEnv} does: select-list output names first (exact
// match wins, last duplicate wins, then a unique case-insensitive match),
// then the source relation. An ambiguous fold match errors so the caller
// falls back.
type outputBinder struct {
	names []string
	cols  []*dataset.Column
	src   relBinder
}

// BindColumn implements expr.ColumnBinder.
func (b outputBinder) BindColumn(name string) (*dataset.Column, error) {
	for i := len(b.names) - 1; i >= 0; i-- {
		if b.names[i] == name {
			return b.cols[i], nil
		}
	}
	matchIdx := -1
	matchName := ""
	for i := len(b.names) - 1; i >= 0; i-- {
		if strings.EqualFold(b.names[i], name) {
			if matchIdx >= 0 && b.names[i] != matchName {
				return nil, fmt.Errorf("sql: ambiguous order key %q", name)
			}
			if matchIdx < 0 {
				matchIdx, matchName = i, b.names[i]
			}
		}
	}
	if matchIdx >= 0 {
		return b.cols[matchIdx], nil
	}
	return b.src.BindColumn(name)
}

var canonicalNaNBits = math.Float64bits(math.NaN())

// appendGroupKey encodes one group-key cell into a reused buffer. The encoding's equivalence classes
// match the reference's rendered keys per type: int64 and unix-nano times
// are bijective with their renders, float bits are bijective with the %g
// render apart from NaN (canonicalized, as all NaNs render "NaN") while -0
// stays distinct from +0 as the renders do, and a type tag separates types
// the way the "type:" prefix does. Strings are length-prefixed, which is
// strictly more precise than the reference's \x00-delimited concatenation.
func appendGroupKey(buf []byte, v *expr.Vec, i int) []byte {
	if v.NullAt(i) {
		return append(buf, 0)
	}
	switch v.Type {
	case dataset.TypeInt:
		buf = append(buf, 1)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v.I[i]))
	case dataset.TypeFloat:
		bits := math.Float64bits(v.F[i])
		if v.F[i] != v.F[i] {
			bits = canonicalNaNBits
		}
		buf = append(buf, 2)
		buf = binary.LittleEndian.AppendUint64(buf, bits)
	case dataset.TypeString:
		s := v.S[i]
		buf = append(buf, 3)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(s)))
		buf = append(buf, s...)
	case dataset.TypeBool:
		if v.B[i] {
			buf = append(buf, 4, 1)
		} else {
			buf = append(buf, 4, 0)
		}
	case dataset.TypeTime:
		buf = append(buf, 5)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v.T[i]))
	}
	return buf
}

func keyVecs(r *rel, keys []int) []*expr.Vec {
	vecs := make([]*expr.Vec, len(keys))
	for i, k := range keys {
		v, _ := expr.ColumnVec(r.cols[k])
		vecs[i] = v
	}
	return vecs
}

// appendJoinKey encodes one side's composite join key for row i, or reports
// false when any key cell is null. The hash key is a prefilter — the full ON
// expression is always re-checked per candidate pair — so the encoding only
// needs to preserve the reference's candidate equivalence: numerics (ints,
// floats, bools) normalize to float64 bits the way joinKey's %g render
// normalizes them, NaNs canonicalize, -0 stays distinct from +0, and rows
// with a null key are skipped outright because the residual rejects null
// comparisons anyway.
func appendJoinKey(buf []byte, vecs []*expr.Vec, i int) ([]byte, bool) {
	for _, v := range vecs {
		if v.NullAt(i) {
			return buf, false
		}
		switch v.Type {
		case dataset.TypeInt:
			buf = append(buf, 'n')
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(float64(v.I[i])))
		case dataset.TypeFloat:
			bits := math.Float64bits(v.F[i])
			if v.F[i] != v.F[i] {
				bits = canonicalNaNBits
			}
			buf = append(buf, 'n')
			buf = binary.LittleEndian.AppendUint64(buf, bits)
		case dataset.TypeBool:
			var f float64
			if v.B[i] {
				f = 1
			}
			buf = append(buf, 'n')
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		case dataset.TypeString:
			s := v.S[i]
			buf = append(buf, 's')
			buf = binary.LittleEndian.AppendUint64(buf, uint64(len(s)))
			buf = append(buf, s...)
		case dataset.TypeTime:
			buf = append(buf, 't')
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v.T[i]))
		}
	}
	return buf, true
}

// pairBinder exposes a probed morsel's candidate pairs as columns: a
// reference to a left or right column materializes as a gather over the
// candidate index vector, lazily and at most once per column. This lets the
// full ON residual run as one kernel over all candidate pairs.
type pairBinder struct {
	combined, left, right *rel
	leftIdx, rightIdx     []int
	cache                 map[int]*dataset.Column
}

// BindColumn implements expr.ColumnBinder.
func (b *pairBinder) BindColumn(name string) (*dataset.Column, error) {
	ci, err := b.combined.lookup(name)
	if err != nil {
		return nil, err
	}
	if c, ok := b.cache[ci]; ok {
		return c, nil
	}
	var col *dataset.Column
	if ci < len(b.left.cols) {
		col = b.left.cols[ci].Take(b.leftIdx)
	} else {
		col = b.right.cols[ci-len(b.left.cols)].Take(b.rightIdx)
	}
	b.cache[ci] = col
	return col, nil
}
