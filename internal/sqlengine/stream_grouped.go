package sqlengine

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"datachat/internal/dataset"
	"datachat/internal/expr"
)

// This file implements the partitioned streaming group-by engine: scan
// workers evaluate group keys and aggregate arguments per morsel (one
// expr.Eval each) and hash-partition rows; one reducer per partition folds
// each batch's typed argument vectors into per-group aggregate states,
// consuming batches in chunk-sequence order and rows in batch order so every
// group accumulates in global row order — float SUM/AVG results are
// bit-identical at every worker count. When the states overflow the memory
// budget a reducer
// spills rows of *new* keys to a disk run (keys already holding a state keep
// accumulating in memory), finalizes the pass, writes the finished states to
// a state run, and replays the spilled rows as the next pass; spilled key
// sets are disjoint from in-memory ones, so concatenating a partition's
// passes yields its groups in first-seen order. A final merge across
// partitions by (chunk, row) of first appearance restores the exact global
// first-seen order the reference executor produces.
//
// The finished groups become a typed relation — the first-seen value of
// every source column the statement's tail reads, then one column per
// aggregate — and HAVING, the select list and ORDER BY run over it through
// the stages a statement without grouping runs through (groupFinish).

// appendKeyValue encodes one boxed key cell exactly the way appendGroupKey
// encodes a typed vector cell, so a key is the same bytes whichever way its
// vec holds it.
func appendKeyValue(buf []byte, v dataset.Value) []byte {
	if v.IsNull() {
		return append(buf, 0)
	}
	switch v.Type {
	case dataset.TypeInt:
		buf = append(buf, 1)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v.I))
	case dataset.TypeFloat:
		bits := math.Float64bits(v.F)
		if v.F != v.F {
			bits = canonicalNaNBits
		}
		buf = append(buf, 2)
		buf = binary.LittleEndian.AppendUint64(buf, bits)
	case dataset.TypeString:
		buf = append(buf, 3)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(v.S)))
		buf = append(buf, v.S...)
	case dataset.TypeBool:
		if v.B {
			buf = append(buf, 4, 1)
		} else {
			buf = append(buf, 4, 0)
		}
	case dataset.TypeTime:
		buf = append(buf, 5)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v.T.UnixNano()))
	}
	return buf
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
	if v.V != nil {
		return appendKeyValue(buf, v.V[i])
	}
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

// hash32 is FNV-1a over a group key — the radix partitioning hash. It is
// deliberately unseeded so partition assignment is deterministic across runs
// and worker counts.
func hash32[K []byte | string](key K) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

// intGroupKey decodes a single-int-column group key (tag 1 + 8 LE bytes).
// Such keys live in an int64-keyed state map — one word hashed, no byte-wise
// equality walk — which is measurably faster than the string-keyed map on
// the common GROUP BY <int column> shape. Columnar and encoded keys agree,
// so a given group always resolves through the same map.
func intGroupKey(key []byte) (int64, bool) {
	if len(key) == 9 && key[0] == 1 {
		return int64(binary.LittleEndian.Uint64(key[1:])), true
	}
	return 0, false
}

// strGroupKey decodes a single-string-column group key (tag 3 + 8 LE length
// bytes + the string), the string analogue of intGroupKey: such keys live in
// a map keyed by the string itself, which a columnar batch probes with its
// column values — no encoding, no copy.
func strGroupKey(key []byte) ([]byte, bool) {
	if len(key) >= 9 && key[0] == 3 && binary.LittleEndian.Uint64(key[1:]) == uint64(len(key)-9) {
		return key[9:], true
	}
	return nil, false
}

// hash32int is hash32 over the 9-byte encoding of a single-int group key
// (tag 1 + 8 LE bytes) without materializing it, so columnar int-key batches
// partition identically to byte-encoded ones.
func hash32int(v int64) uint32 {
	h := uint32(2166136261)
	h ^= 1 // the TypeInt tag byte
	h *= 16777619
	for s := 0; s < 64; s += 8 {
		h ^= uint32(uint8(uint64(v) >> s))
		h *= 16777619
	}
	return h
}

// groupedBatch is one scanned morsel, ready for reduction: the group key
// columns, per-partition row index lists, and the aggregate argument values.
type groupedBatch struct {
	seq   int
	n     int
	keys  []*expr.Vec // per GROUP BY expression; nil for a single group or when ikeys or skeys is set
	ikeys []int64     // columnar keys when the single GROUP BY key is int with no nulls
	skeys []string    // columnar keys when it is string with no nulls
	rows  [][]int32   // per partition: row indices it owns; nil when parts == 1
	args  []*expr.Vec // per AggCall: argument values (nil for COUNT(*))
	rep   *rel        // the scanned chunk, source of first-seen values
}

// appendKey encodes row i's group key onto buf, cell by cell
// (appendGroupKey), so batches of the same stream always bucket identically.
// Keys are encoded into a reused buffer where they are needed (the scan's
// partition hash, the reducer's state lookup) rather than stored per row.
func (b *groupedBatch) appendKey(buf []byte, i int) []byte {
	switch {
	case b.ikeys != nil:
		return binary.LittleEndian.AppendUint64(append(buf, 1), uint64(b.ikeys[i]))
	case b.skeys != nil:
		return append(binary.LittleEndian.AppendUint64(append(buf, 3), uint64(len(b.skeys[i]))), b.skeys[i]...)
	}
	for _, k := range b.keys {
		buf = appendGroupKey(buf, k, i)
	}
	return buf
}

// argsAt boxes row i's aggregate arguments for a spill record; COUNT(*)
// slots hold Null placeholders (the count advances per record regardless).
func (b *groupedBatch) argsAt(i int) []dataset.Value {
	out := make([]dataset.Value, len(b.args))
	for ai, col := range b.args {
		if col != nil {
			out[ai] = col.ValueAt(i)
		}
	}
	return out
}

// groupedScan turns source chunks into groupedBatches, evaluating each key
// and argument once per morsel (expr.Eval).
type groupedScan struct {
	se    *streamExec
	stmt  *SelectStmt
	aggs  []*AggCall
	parts int
}

func (gs *groupedScan) build(c *rel, seq int) (*groupedBatch, error) {
	c, err := filterRel(gs.stmt.Where, c, -1)
	if err != nil {
		return nil, err
	}
	if c == nil {
		return &groupedBatch{seq: seq}, nil // fully filtered morsel
	}
	n := c.numRows()
	b := &groupedBatch{seq: seq, n: n, rep: c, args: make([]*expr.Vec, len(gs.aggs))}
	for _, ge := range gs.stmt.GroupBy {
		key, err := expr.Eval(ge, relBatch{c})
		if err != nil {
			return nil, err
		}
		b.keys = append(b.keys, key)
	}
	if len(b.keys) == 1 && b.keys[0].V == nil && !hasNulls(b.keys[0]) {
		// Columnar fast path: keep the int or string vector as the key
		// column and skip the byte encoding in the reducer entirely.
		// Partitioning and state lookup (the typed maps) agree with the
		// encoded form, so mixed batches still bucket identically.
		switch v := b.keys[0]; v.Type {
		case dataset.TypeInt:
			b.ikeys, b.keys = v.I, nil
		case dataset.TypeString:
			b.skeys, b.keys = v.S, nil
		}
	}
	if gs.parts > 1 {
		// Bucketing rows here, in the (parallel) scan stage, means each
		// reducer later visits only its own rows instead of scanning the
		// whole batch and skipping the other partitions' rows — the reducer
		// side does n row visits total rather than parts×n.
		b.rows = make([][]int32, gs.parts)
		var key []byte
		for i := 0; i < n; i++ {
			var h uint32
			if b.ikeys != nil {
				h = hash32int(b.ikeys[i])
			} else {
				key = b.appendKey(key[:0], i)
				h = hash32(key)
			}
			p := h % uint32(gs.parts)
			b.rows[p] = append(b.rows[p], int32(i))
		}
	}
	for ai, a := range gs.aggs {
		if a.Star {
			continue
		}
		if b.args[ai], err = expr.Eval(a.Arg, relBatch{c}); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func hasNulls(v *expr.Vec) bool {
	if v.Type == dataset.TypeNull {
		return true
	}
	for _, null := range v.Nulls {
		if null {
			return true
		}
	}
	return false
}

// liveGroup is one group holding an in-memory state in a partition reducer:
// its first appearance (chunk, row). Its first-seen values live in the
// reducer's reps and its aggregate state in its aggAccs, at the group's index.
type liveGroup struct{ seq, row int }

func (g liveGroup) before(o liveGroup) bool {
	return g.seq < o.seq || (g.seq == o.seq && g.row < o.row)
}

// groupReducer owns one hash partition: its live states, its spill passes,
// and, once finished, its final pass held live.
type groupReducer struct {
	se        *streamExec
	id        int
	op        string
	gf        *groupFinish
	states    map[string]int32  // encoded group key → index into groups
	ints      map[int64]int32   // single-int group keys (intGroupKey)
	strs      map[string]int32  // single-string group keys (strGroupKey)
	groups    []liveGroup       // this pass's admitted groups, in first-seen order
	reps      []*dataset.Column // per gf.repCols: each admitted group's first-seen value
	acc       []aggAcc          // per AggCall, indexed by group
	all, gids []int32           // scratch: the identity row list, a batch's group ids
	key       []byte            // scratch: the row key being looked up
	spilling  bool
	sw        *spillWriter
	stateRuns []*spillRun
	err       error
}

func newGroupReducer(se *streamExec, id int, gf *groupFinish) *groupReducer {
	r := &groupReducer{se: se, id: id, op: fmt.Sprintf("group-by#%d", id), gf: gf}
	r.reset()
	return r
}

// reset starts a pass that holds no group.
func (r *groupReducer) reset() {
	r.states, r.ints, r.strs = map[string]int32{}, map[int64]int32{}, map[string]int32{}
	r.groups = nil
	r.reps = r.gf.repColumns()
	r.acc = make([]aggAcc, len(r.gf.aggs))
}

// aggAcc is one aggregate's streaming state for every live group of a
// reducer, indexed by group — the per-table arrays of a one-pass aggregate,
// grown as groups are admitted. Only the arrays the aggregate reads exist.
type aggAcc struct {
	counts []int64         // COUNT; SUM/AVG: values seen
	sums   []float64       // SUM/AVG: the float64 sum, in row order
	isums  []int64         // SUM: the exact sum of the int values
	notInt []bool          // SUM saw a non-int value: it finishes as the float sum
	over   []bool          // SUM: the exact sum overflowed int64
	best   []dataset.Value // MIN/MAX; null until the group sees a value
	sets   []valueSet      // DISTINCT, MEDIAN, STDDEV (holdsValues)
	held   int             // values the sets hold, charged to the budget
}

// holdsValues reports whether a finishes over its group's collected values
// (aggregate) rather than over a running state: a DISTINCT aggregate, MEDIAN
// or STDDEV.
func holdsValues(a *AggCall) bool {
	return !a.Star && (a.Distinct || a.Name == "MEDIAN" || a.Name == "STDDEV")
}

func (s *aggAcc) addGroup(a *AggCall) {
	switch {
	case holdsValues(a):
		s.sets = append(s.sets, valueSet{})
	case a.Star || a.Name == "COUNT":
		s.counts = append(s.counts, 0)
	case a.Name == "MIN" || a.Name == "MAX":
		s.best = append(s.best, dataset.Null)
	case a.Name == "AVG":
		s.counts = append(s.counts, 0)
		s.sums = append(s.sums, 0)
	default: // SUM
		s.counts = append(s.counts, 0)
		s.sums = append(s.sums, 0)
		s.isums = append(s.isums, 0)
		s.notInt = append(s.notInt, false)
		s.over = append(s.over, false)
	}
}

// add folds one boxed argument into group g, mirroring computeAgg exactly
// (same null handling, same float64 addition order per group, same exact
// int64 sum, same Compare-based MIN/MAX, the same value set). It serves
// spill replay, value sets, arguments whose values mix types, and the vector
// types fold has no typed loop for.
func (s *aggAcc) add(a *AggCall, g int32, v dataset.Value) error {
	if a.Star {
		s.counts[g]++
		return nil
	}
	if holdsValues(a) {
		if s.sets[g].add(a, v) {
			s.held++
		}
		return nil
	}
	if v.IsNull() {
		return nil
	}
	switch a.Name {
	case "COUNT":
		s.counts[g]++
	case "MIN", "MAX":
		if s.best[g].IsNull() {
			s.best[g] = v
			return nil
		}
		cmp := dataset.Compare(v, s.best[g])
		if (a.Name == "MIN" && cmp < 0) || (a.Name == "MAX" && cmp > 0) {
			s.best[g] = v
		}
	default: // SUM, AVG accumulate in ascending row order, like computeAgg
		f, ok := v.AsFloat()
		if !ok {
			return fmt.Errorf("sql: %s over non-numeric value %v", a.Name, v)
		}
		s.sums[g] += f
		s.counts[g]++
		switch {
		case a.Name == "AVG":
		case v.Type == dataset.TypeInt:
			s.isums[g], s.over[g] = addExact(s.isums[g], v.I, s.over[g])
		default:
			s.notInt[g] = true
		}
	}
	return nil
}

// fold accumulates one batch's argument column: rows lists the batch rows
// this reducer owns and gids[p] the group of rows[p] (negative: the row
// spilled). Rows are visited in batch order, so each group sees the same
// addition sequence as the reference's per-group loop.
func (s *aggAcc) fold(a *AggCall, v *expr.Vec, rows, gids []int32) error {
	switch {
	case a.Star:
		counts := s.counts
		for _, g := range gids {
			if g >= 0 {
				counts[g]++
			}
		}
		return nil
	case holdsValues(a): // every value through add
	case a.Name == "COUNT":
		for p, i := range rows {
			if g := gids[p]; g >= 0 && !v.NullAt(int(i)) {
				s.counts[g]++
			}
		}
		return nil
	case v.V != nil:
	case a.Name == "SUM" || a.Name == "AVG":
		switch v.Type {
		case dataset.TypeInt:
			sumInts(s, v.I, v.Nulls, rows, gids, a.Name == "SUM")
			return nil
		case dataset.TypeFloat:
			sumFloats(s, v.F, v.Nulls, rows, gids, a.Name == "SUM")
			return nil
		}
	default: // MIN, MAX
		switch v.Type {
		case dataset.TypeInt:
			return bestInto(s, a, v, v.I, rows, gids, func(b *dataset.Value) *int64 { return &b.I })
		case dataset.TypeFloat:
			return bestInto(s, a, v, v.F, rows, gids, func(b *dataset.Value) *float64 { return &b.F })
		case dataset.TypeString:
			return bestInto(s, a, v, v.S, rows, gids, func(b *dataset.Value) *string { return &b.S })
		}
	}
	for p, i := range rows {
		if g := gids[p]; g >= 0 {
			if err := s.add(a, g, v.ValueAt(int(i))); err != nil {
				return err
			}
		}
	}
	return nil
}

// sumInts folds an int vector: the float64 sum AVG reads and, for a SUM
// (exact), the int64 sum it finishes as.
func sumInts(s *aggAcc, vals []int64, nulls []bool, rows, gids []int32, exact bool) {
	sums, counts := s.sums, s.counts
	for p, i := range rows {
		g := gids[p]
		if g < 0 || (nulls != nil && nulls[i]) {
			continue
		}
		sums[g] += float64(vals[i])
		counts[g]++
		if exact {
			s.isums[g], s.over[g] = addExact(s.isums[g], vals[i], s.over[g])
		}
	}
}

// sumFloats folds a float vector; a SUM that sees one finishes as its
// float sum.
func sumFloats(s *aggAcc, vals []float64, nulls []bool, rows, gids []int32, sum bool) {
	sums, counts := s.sums, s.counts
	for p, i := range rows {
		g := gids[p]
		if g < 0 || (nulls != nil && nulls[i]) {
			continue
		}
		sums[g] += vals[i]
		counts[g]++
		if sum {
			s.notInt[g] = true
		}
	}
}

// bestInto is MIN/MAX over a typed vector: a held value of the vector's type
// is replaced only on a strict typed compare — the same rule as add's Compare,
// so a NaN neither displaces a held value nor is displaced once held. A
// group's first value, or a held value of another type, goes through add.
func bestInto[T int64 | float64 | string](s *aggAcc, a *AggCall, v *expr.Vec, vals []T, rows, gids []int32, held func(*dataset.Value) *T) error {
	min, best, nulls, typ := a.Name == "MIN", s.best, v.Nulls, v.Type
	for p, i := range rows {
		g := gids[p]
		if g < 0 || (nulls != nil && nulls[i]) {
			continue
		}
		if best[g].Type != typ {
			if err := s.add(a, g, v.ValueAt(int(i))); err != nil {
				return err
			}
			continue
		}
		if cur := held(&best[g]); (min && vals[i] < *cur) || (!min && vals[i] > *cur) {
			*cur = vals[i]
		}
	}
	return nil
}

// value finalizes group g's aggregate the way computeAgg does.
func (s *aggAcc) value(a *AggCall, g int) (dataset.Value, error) {
	switch {
	case holdsValues(a):
		return aggregate(a, s.sets[g].vals)
	case a.Star || a.Name == "COUNT":
		return dataset.Int(s.counts[g]), nil
	case a.Name == "MIN" || a.Name == "MAX":
		return s.best[g], nil
	case s.counts[g] == 0: // SUM, AVG over no values stay null
		return dataset.Null, nil
	case a.Name == "AVG":
		return dataset.Float(s.sums[g] / float64(s.counts[g])), nil
	case s.notInt[g]:
		return dataset.Float(s.sums[g]), nil
	case s.over[g]:
		return dataset.Null, sumOverflow(a)
	}
	return dataset.Int(s.isums[g]), nil
}

// charge is what the reducer buffers: its groups plus the values their
// value sets hold.
func (r *groupReducer) charge() int {
	n := len(r.groups)
	for _, s := range r.acc {
		n += s.held
	}
	return n
}

// admit decides whether a new group key gets an in-memory state (true) or
// its rows spill to disk for a later pass (false, with r.sw ready): it is
// admitted while the reducer's charge with it fits the budget. The first
// state of a pass is admitted even when the budget is full — sibling
// partitions' states can transiently hold all of it, and the bounded overrun
// (one state per partition) keeps every spill pass making progress. An
// admitted group keeps the values it collects until its pass finishes, past
// the budget if need be (feed and replay charge them). Once a pass starts
// spilling it stays spilling, so the in-memory key set always first-arrives
// strictly before the spilled one — the invariant the first-seen merge order
// relies on.
func (r *groupReducer) admit() (bool, error) {
	if !r.spilling {
		if r.se.tryBuffer(r.op, r.charge()+1) {
			return true, nil
		}
		if len(r.groups) == 0 {
			r.se.forceBuffer(r.op, 1)
			return true, nil
		}
		r.spilling = true
	}
	if r.sw == nil {
		w, err := r.se.newSpillWriter("group")
		if err != nil {
			return false, err
		}
		r.sw = w
	}
	return false, nil
}

// feed folds one batch's rows for this partition into the live states: it
// resolves each row's group, spilling rows of new keys once the budget
// refuses another state, then accumulates each aggregate's argument column.
func (r *groupReducer) feed(b *groupedBatch) error {
	if b.n == 0 {
		return nil // fully filtered morsel
	}
	rows := r.all
	if b.rows != nil {
		rows = b.rows[r.id]
	} else {
		if len(rows) < b.n {
			rows = make([]int32, b.n)
			for i := range rows {
				rows[i] = int32(i)
			}
			r.all = rows
		}
		rows = rows[:b.n]
	}
	if cap(r.gids) < len(rows) {
		r.gids = make([]int32, len(rows))
	}
	gids, key := r.gids[:len(rows)], r.key
	single := b.keys == nil && b.ikeys == nil && b.skeys == nil // no GROUP BY: every row joins the first row's group
	for p, i := range rows {
		if single && p > 0 && gids[0] >= 0 {
			gids[p] = gids[0]
			continue
		}
		var g int32
		var ok bool
		switch {
		case b.ikeys != nil:
			g, ok = r.ints[b.ikeys[i]]
		case b.skeys != nil:
			g, ok = r.strs[b.skeys[i]]
		default:
			key = b.appendKey(key[:0], int(i))
			g, ok = r.lookup(key)
		}
		if !ok {
			admit, err := r.admit()
			if err != nil {
				return err
			}
			if !admit {
				rec := &spillRec{Seq: b.seq, Row: int(i), Key: b.appendKey(nil, int(i)), A: b.argsAt(int(i)), B: make([]dataset.Value, len(r.reps))}
				for j, ci := range r.gf.repCols {
					rec.B[j] = b.rep.cols[ci].Value(int(i))
				}
				if err := r.sw.write(rec); err != nil {
					return err
				}
				gids[p] = -1
				continue
			}
			g = r.newGroup(b.seq, int(i))
			for j, ci := range r.gf.repCols {
				r.reps[j].Append(b.rep.cols[ci].Value(int(i)))
			}
			switch {
			case b.ikeys != nil:
				r.ints[b.ikeys[i]] = g
			case b.skeys != nil:
				r.strs[b.skeys[i]] = g
			default:
				r.insert(key, g)
			}
		}
		gids[p] = g
	}
	r.key = key
	for ai, a := range r.gf.aggs {
		if err := r.acc[ai].fold(a, b.args[ai], rows, gids); err != nil {
			return err
		}
	}
	r.se.forceBuffer(r.op, r.charge())
	return nil
}

// lookup resolves an encoded key to its live group. Single-int and
// single-string keys live in typed maps, whichever representation — columnar
// or encoded — the batch that first saw them used.
func (r *groupReducer) lookup(key []byte) (int32, bool) {
	if k, ok := intGroupKey(key); ok {
		g, hit := r.ints[k]
		return g, hit
	}
	if k, ok := strGroupKey(key); ok {
		g, hit := r.strs[string(k)]
		return g, hit
	}
	g, hit := r.states[string(key)]
	return g, hit
}

// insert records group g under an encoded key, in the map lookup reads.
func (r *groupReducer) insert(key []byte, g int32) {
	if k, ok := intGroupKey(key); ok {
		r.ints[k] = g
	} else if k, ok := strGroupKey(key); ok {
		r.strs[string(k)] = g
	} else {
		r.states[string(key)] = g
	}
}

// newGroup admits a group first seen at (seq, row); the caller records its
// key and appends its first-seen values.
func (r *groupReducer) newGroup(seq, row int) int32 {
	g := int32(len(r.groups))
	r.groups = append(r.groups, liveGroup{seq: seq, row: row})
	for ai, a := range r.gf.aggs {
		r.acc[ai].addGroup(a)
	}
	return g
}

// nullGroup admits the one group of an aggregate over no rows, whose
// first-seen values are null.
func (r *groupReducer) nullGroup() {
	r.newGroup(0, 0)
	for _, c := range r.reps {
		c.Append(dataset.Null)
	}
}

// finish runs the spill passes to completion. Afterwards stateRuns (in pass
// order) followed by the final pass, still live, hold this partition's
// groups in first-seen order.
func (r *groupReducer) finish() error {
	for r.sw != nil {
		// Over budget this pass: park the finished states on disk, release
		// the memory, and replay the spilled rows as the next pass.
		sw, err := r.se.newSpillWriter("gstate")
		if err != nil {
			return err
		}
		for gi, g := range r.groups {
			rec := &spillRec{Seq: g.seq, Row: g.row, A: make([]dataset.Value, len(r.acc)), B: make([]dataset.Value, len(r.reps))}
			for ai, a := range r.gf.aggs {
				if rec.A[ai], err = r.acc[ai].value(a, gi); err != nil {
					sw.abort()
					return err
				}
			}
			for j, c := range r.reps {
				rec.B[j] = c.Value(gi)
			}
			if err := sw.write(rec); err != nil {
				sw.abort()
				return err
			}
		}
		run, err := sw.finish()
		if err != nil {
			return err
		}
		r.stateRuns = append(r.stateRuns, run)
		r.reset()
		// Releasing this partition's charge must never fail: sibling
		// partitions' forced admissions can hold the global total over budget
		// right now, and the checked buffer() would turn that transient into
		// a spurious BudgetError.
		r.se.forceBuffer(r.op, 0)
		rowRun, err := r.sw.finish()
		r.sw = nil
		r.spilling = false
		if err != nil {
			return err
		}
		if err := r.replay(rowRun); err != nil {
			return err
		}
		if len(r.groups) == 0 && r.sw != nil {
			// Unreachable with forced first-state admission, kept as a
			// hard stop: a pass that admits nothing while still spilling
			// would otherwise replay the same rows forever. Must fail
			// unconditionally — rows still sitting in r.sw would be
			// silently dropped by returning nil.
			r.se.mu.Lock()
			buffered := r.se.curTotal
			r.se.mu.Unlock()
			return &BudgetError{Op: r.op, Buffered: buffered, Budget: r.se.opts.MaxBufferedRows}
		}
	}
	return nil
}

func (r *groupReducer) replay(run *spillRun) error {
	rd, err := run.open()
	if err != nil {
		return err
	}
	defer rd.close()
	for {
		rec, err := rd.next()
		if err != nil {
			return err
		}
		if rec == nil {
			r.se.forceBuffer(r.op, r.charge())
			return nil
		}
		g, ok := r.lookup(rec.Key)
		if !ok {
			admit, err := r.admit()
			if err != nil {
				return err
			}
			if !admit {
				if err := r.sw.write(rec); err != nil {
					return err
				}
				continue
			}
			g = r.newGroup(rec.Seq, rec.Row)
			for j, v := range rec.B {
				r.reps[j].Append(v)
			}
			r.insert(rec.Key, g)
		}
		for ai, a := range r.gf.aggs {
			if err := r.acc[ai].add(a, g, rec.A[ai]); err != nil {
				return err
			}
		}
	}
}

// finGroup is one finished group in the final merge: its first appearance,
// and where its values are — group g of reducer part's final pass, still
// live, or (part < 0) the first-seen and aggregate values a state run read
// back.
type finGroup struct {
	liveGroup
	part, g  int
	rep, agg []dataset.Value
}

// groupSource streams one partition's finished groups in first-seen order:
// state runs from earlier passes, then the final pass.
type groupSource struct {
	part int
	runs []*spillRun
	rd   *spillReader
	live []liveGroup
	pos  int
}

func (s *groupSource) next() (finGroup, bool, error) {
	for {
		if s.rd == nil && len(s.runs) > 0 {
			rd, err := s.runs[0].open()
			if err != nil {
				return finGroup{}, false, err
			}
			s.runs = s.runs[1:]
			s.rd = rd
		}
		if s.rd != nil {
			rec, err := s.rd.next()
			if err != nil {
				return finGroup{}, false, err
			}
			if rec == nil {
				s.rd.close()
				s.rd = nil
				continue
			}
			return finGroup{liveGroup: liveGroup{rec.Seq, rec.Row}, part: -1, rep: rec.B, agg: rec.A}, true, nil
		}
		if s.pos < len(s.live) {
			s.pos++
			return finGroup{liveGroup: s.live[s.pos-1], part: s.part, g: s.pos - 1}, true, nil
		}
		return finGroup{}, false, nil
	}
}

// mergedGroups merges the partitions' group streams by first appearance.
type mergedGroups struct {
	srcs  []*groupSource
	heads []finGroup
	held  []bool
}

func newMergedGroups(reducers []*groupReducer) *mergedGroups {
	m := &mergedGroups{heads: make([]finGroup, len(reducers)), held: make([]bool, len(reducers))}
	for p, red := range reducers {
		m.srcs = append(m.srcs, &groupSource{part: p, runs: red.stateRuns, live: red.groups})
	}
	return m
}

func (m *mergedGroups) next() (finGroup, bool, error) {
	best := -1
	for i, s := range m.srcs {
		if !m.held[i] {
			g, ok, err := s.next()
			if err != nil {
				return finGroup{}, false, err
			}
			m.heads[i], m.held[i] = g, ok
		}
		if m.held[i] && (best < 0 || m.heads[i].before(m.heads[best].liveGroup)) {
			best = i
		}
	}
	if best < 0 {
		return finGroup{}, false, nil
	}
	m.held[best] = false
	return m.heads[best], true, nil
}

// groupFinish is a grouped statement's tail rewritten over the relation of
// its finished groups: the first-seen value of each source column the tail
// reads (repCols, in schema order), then one column per aggregate. HAVING
// becomes the rewritten statement's WHERE; there, in the select items and in
// the ORDER BY keys, every aggregate call is a reference to its column, and
// the items keep their original output names.
type groupFinish struct {
	aggs    []*AggCall
	repCols []int       // the source columns the tail reads, by schema index
	schema  *rel        // the group relation with no rows
	stmt    *SelectStmt // the tail over the group relation
	sl      *selectList
	global  bool // no GROUP BY: no rows still make one group
}

// aggColumn names aggregate i's column in the group relation. An aggregate's
// Key may hold a '.', which a lookup would read as a qualifier.
func aggColumn(i int) string { return "\x00agg" + strconv.Itoa(i) }

func (se *streamExec) newGroupFinish(stmt *SelectStmt, aggs []*AggCall, schema *rel) *groupFinish {
	cols := make(map[string]string, len(aggs))
	for i, a := range aggs {
		cols[a.Key()] = aggColumn(i)
	}
	gs := &SelectStmt{Distinct: stmt.Distinct, Where: bindAggs(stmt.Having, cols), Limit: stmt.Limit, Offset: stmt.Offset}
	var refs []string
	if gs.Where != nil {
		refs = gs.Where.Columns(refs)
	}
	names, exprs := expandItems(stmt.Items, schema)
	for i, e := range exprs {
		e = bindAggs(e, cols)
		gs.Items = append(gs.Items, SelectItem{Expr: e, Alias: names[i]})
		refs = e.Columns(refs)
	}
	for _, o := range stmt.OrderBy {
		e := bindAggs(o.Expr, cols)
		gs.OrderBy = append(gs.OrderBy, OrderItem{Expr: e, Desc: o.Desc})
		refs = e.Columns(refs)
	}
	gf := &groupFinish{aggs: aggs, stmt: gs, global: len(stmt.GroupBy) == 0, schema: &rel{}}
	// Keep every column a reference could resolve to, bare or qualified, so
	// a name resolves — or fails as ambiguous — as over the full relation.
	for ci, c := range schema.cols {
		for _, name := range refs {
			if strings.EqualFold(c.Name(), name[strings.LastIndexByte(name, '.')+1:]) {
				gf.repCols = append(gf.repCols, ci)
				break
			}
		}
	}
	for _, ci := range gf.repCols {
		gf.schema.cols = append(gf.schema.cols, schema.cols[ci])
		gf.schema.quals = append(gf.schema.quals, schema.quals[ci])
	}
	for i := range aggs {
		gf.schema.cols = append(gf.schema.cols, dataset.NewColumn(aggColumn(i), dataset.TypeNull))
		gf.schema.quals = append(gf.schema.quals, "")
	}
	gf.sl = newSelectList(gs, gf.schema)
	return gf
}

// bindAggs returns e with every aggregate call replaced by a reference to
// its column in the group relation.
func bindAggs(e expr.Expr, cols map[string]string) expr.Expr {
	switch n := e.(type) {
	case *AggCall:
		return expr.Column(cols[n.Key()])
	case *expr.Binary:
		return expr.Bin(n.Op, bindAggs(n.Left, cols), bindAggs(n.Right, cols))
	case *expr.Unary:
		return &expr.Unary{Negate: n.Negate, Operand: bindAggs(n.Operand, cols)}
	case *expr.FuncCall:
		args := make([]expr.Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = bindAggs(a, cols)
		}
		return &expr.FuncCall{Name: n.Name, Args: args}
	case *expr.IsNull:
		return &expr.IsNull{Operand: bindAggs(n.Operand, cols), Negated: n.Negated}
	case *expr.In:
		list := make([]expr.Expr, len(n.List))
		for i, item := range n.List {
			list[i] = bindAggs(item, cols)
		}
		return &expr.In{Operand: bindAggs(n.Operand, cols), List: list, Negated: n.Negated}
	case *expr.Between:
		return &expr.Between{Operand: bindAggs(n.Operand, cols), Lo: bindAggs(n.Lo, cols), Hi: bindAggs(n.Hi, cols), Negated: n.Negated}
	case *expr.Case:
		whens := make([]expr.When, len(n.Whens))
		for i, w := range n.Whens {
			whens[i] = expr.When{Cond: bindAggs(w.Cond, cols), Result: bindAggs(w.Result, cols)}
		}
		return &expr.Case{Whens: whens, Else: bindAggs(n.Else, cols)}
	}
	return e
}

// repColumns returns empty columns for a pass's first-seen values.
func (gf *groupFinish) repColumns() []*dataset.Column {
	cols := make([]*dataset.Column, len(gf.repCols))
	for j := range cols {
		c := gf.schema.cols[j]
		cols[j] = dataset.NewColumn(c.Name(), c.Type())
	}
	return cols
}

// groupBatches lays the merged finished groups out as group relations of at
// most rows groups each.
type groupBatches struct {
	gf     *groupFinish
	reds   []*groupReducer
	groups *mergedGroups
	rows   int
}

func (b *groupBatches) schema() *rel { return b.gf.schema }

func (b *groupBatches) next() (*rel, error) {
	gf := b.gf
	reps := gf.repColumns()
	aggs := make([][]dataset.Value, len(gf.aggs))
	for ai := range aggs {
		aggs[ai] = make([]dataset.Value, 0, b.rows)
	}
	n := 0
	for ; n < b.rows; n++ {
		g, ok, err := b.groups.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if g.part < 0 { // read back from a state run
			for j, c := range reps {
				c.Append(g.rep[j])
			}
			for ai := range aggs {
				aggs[ai] = append(aggs[ai], g.agg[ai])
			}
			continue
		}
		red := b.reds[g.part]
		for j, c := range reps {
			c.Append(red.reps[j].Value(g.g))
		}
		for ai, a := range gf.aggs {
			v, err := red.acc[ai].value(a, g.g)
			if err != nil {
				return nil, err
			}
			aggs[ai] = append(aggs[ai], v)
		}
	}
	if n == 0 {
		return nil, nil
	}
	out := &rel{cols: reps, quals: gf.schema.quals, rows: n}
	for ai, vals := range aggs {
		col, boxed := valuesColumn(aggColumn(ai), vals)
		if boxed != nil {
			if out.boxed == nil {
				out.boxed = make([][]dataset.Value, len(gf.schema.cols))
			}
			out.boxed[len(out.cols)] = boxed
		}
		out.cols = append(out.cols, col)
	}
	return out, nil
}

// valuesColumn builds a column from an aggregate's per-group values, typed
// as the row evaluator types its results (expr.VecOf); values of several types
// are also returned, to be kept boxed beside it (rel.boxed).
func valuesColumn(name string, vals []dataset.Value) (*dataset.Column, []dataset.Value) {
	v := expr.VecOf(vals)
	return v.Column(name), v.V
}

// partitionedGroupedPull drives the whole engine on the first chunk request:
// scan fan-out, partition reduction, spill passes, and the final merge. One
// partition folds inline on the consumer; more get a reducer goroutine each.
func (se *streamExec) partitionedGroupedPull(stmt *SelectStmt, chunks relChunks, aggs []*AggCall, schema *rel) func() (*dataset.Table, error) {
	return deferredPull(func() (func() (*dataset.Table, error), error) {
		gf := se.newGroupFinish(stmt, aggs, schema)
		parts := se.nw
		gs := &groupedScan{se: se, stmt: stmt, aggs: aggs, parts: parts}
		pipe := newParallelPipe(se, pullRel(chunks), gs.build)

		reducers := make([]*groupReducer, parts)
		for p := range reducers {
			reducers[p] = newGroupReducer(se, p, gf)
		}
		var chans []chan *groupedBatch
		var wg sync.WaitGroup
		if parts > 1 {
			chans = make([]chan *groupedBatch, parts)
			for p, red := range reducers {
				ch := make(chan *groupedBatch, 4)
				chans[p] = ch
				wg.Add(1)
				go func() {
					defer wg.Done()
					for b := range ch {
						if red.err == nil { // after a failure just drain, so the distributor never blocks
							red.err = red.feed(b)
						}
					}
				}()
			}
		}
		var srcErr error
		for {
			b, ok, err := pipe.next()
			if err != nil || !ok {
				srcErr = err
				break
			}
			if chans == nil {
				if reducers[0].err = reducers[0].feed(b); reducers[0].err != nil {
					break
				}
				continue
			}
			for p, ch := range chans {
				if b.rows != nil && len(b.rows[p]) > 0 { // nil: fully filtered morsel
					ch <- b
				}
			}
		}
		for _, ch := range chans {
			close(ch)
		}
		wg.Wait()
		if srcErr != nil {
			return nil, srcErr
		}
		// Spill passes run per reducer.
		fanOut(parts, func(p int) {
			if reducers[p].err == nil {
				reducers[p].err = reducers[p].finish()
			}
		})
		spilled, groups := false, 0
		for _, red := range reducers {
			if red.err != nil {
				return nil, red.err
			}
			spilled = spilled || len(red.stateRuns) > 0
			groups += len(red.groups)
		}
		if spilled {
			return se.finishGroupedSpilled(gf, reducers), nil
		}
		return se.finishGroupedInMemory(gf, reducers, groups)
	})
}

// finishGroupedInMemory is the no-spill epilogue: the groups, merged into
// global first-seen order, become one group relation; HAVING, the select
// list and ORDER BY run over it as one morsel, then DISTINCT and
// OFFSET/LIMIT over the whole result, which is emitted in chunks.
func (se *streamExec) finishGroupedInMemory(gf *groupFinish, reducers []*groupReducer, groups int) (func() (*dataset.Table, error), error) {
	if groups == 0 && gf.global {
		reducers[0].nullGroup() // aggregates over no rows still make one group
		groups = 1
	}
	batches := &groupBatches{gf: gf, reds: reducers, groups: newMergedGroups(reducers), rows: max(groups, 1)}
	grel, err := batches.next()
	if err != nil {
		return nil, err
	}
	if grel == nil {
		grel = gf.schema
	}
	var out *dataset.Table
	if len(gf.stmt.OrderBy) == 0 {
		out, err = projectMorsel(gf.stmt.Where, grel, -1, gf.sl)
		if out == nil && err == nil {
			out, err = projectChunk(windowRel(grel, 0, 0), gf.sl)
		}
	} else {
		var run *orderedRun
		if run, err = buildRun(gf.stmt, gf.sl, grel); err == nil {
			out = run.sorted(gf.stmt.OrderBy)
		}
	}
	if err == nil {
		out, err = nullsAsString(out)
	}
	if err == nil {
		out, err = distinctLimit(gf.stmt, out)
	}
	if err != nil {
		return nil, err
	}
	return rechunkTable(out, se.morselRows(out.NumRows())), nil
}

// finishGroupedSpilled is the out-of-core epilogue: the merged groups run
// through the stages of a statement without grouping in batches of
// ChunkRows groups, the sort spilling as ORDER BY spills.
func (se *streamExec) finishGroupedSpilled(gf *groupFinish, reducers []*groupReducer) func() (*dataset.Table, error) {
	batches := &groupBatches{gf: gf, reds: reducers, groups: newMergedGroups(reducers), rows: se.opts.chunkRows()}
	pull := se.projectPipeline(gf.stmt, batches, gf.sl, nil, -1)
	return func() (*dataset.Table, error) {
		t, err := pull()
		if t == nil || err != nil {
			return t, err
		}
		return nullsAsString(t)
	}
}

// nullsAsString gives every column that holds no value the type the
// reference's column builder infers for one: an all-null string column.
func nullsAsString(t *dataset.Table) (*dataset.Table, error) {
	cols := t.Columns()
	var out []*dataset.Column
	for i, c := range cols {
		if c.Type() == dataset.TypeString || c.NullCount() < c.Len() {
			continue
		}
		if out == nil {
			out = append([]*dataset.Column(nil), cols...)
		}
		out[i] = (&expr.Vec{Type: dataset.TypeNull, N: c.Len()}).Column(c.Name())
	}
	if out == nil {
		return t, nil
	}
	return dataset.NewTable(t.Name(), out...)
}
