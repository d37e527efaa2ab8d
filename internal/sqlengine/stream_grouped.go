package sqlengine

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"datachat/internal/dataset"
	"datachat/internal/expr"
)

// This file implements the partitioned streaming group-by engine: scan
// workers evaluate group keys and aggregate arguments per morsel (with the
// vectorized kernels when they compile, the boxed row loop otherwise) and
// hash-partition rows; one reducer per partition folds each batch's typed
// argument vectors into per-group aggregate states, consuming batches in
// chunk-sequence order and rows in batch order so every group accumulates in
// global row order — float SUM/AVG results are bit-identical at every worker
// count. When the states overflow the memory budget a reducer
// spills rows of *new* keys to a disk run (keys already holding a state keep
// accumulating in memory), finalizes the pass, writes the finished states to
// a state run, and replays the spilled rows as the next pass; spilled key
// sets are disjoint from in-memory ones, so concatenating a partition's
// passes yields its groups in first-seen order. A final merge across
// partitions by (chunk, row) of first appearance restores the exact global
// first-seen order the reference executor produces.

// appendKeyValue encodes one boxed key cell exactly the way appendGroupKey
// encodes a vector cell, so boxed and vectorized chunks of the same stream
// always bucket identically.
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
// the common GROUP BY <int column> shape. Boxed and vectorized scans encode
// keys identically, so a given group always resolves through the same map.
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

// argCol is one expression evaluated over a batch — a group key or an
// aggregate argument: the compiled kernel's columnar vector when the
// expression compiled, boxed values otherwise, and neither for COUNT(*).
// Holding the vector instead of boxing every row into a []dataset.Value keeps
// the scan free of per-batch Value slices (and the GC scanning they cost).
type argCol struct {
	vec  *expr.Vec
	vals []dataset.Value
}

func (a argCol) valid() bool { return a.vec != nil || a.vals != nil }

func (a argCol) at(i int) dataset.Value {
	if a.vec != nil {
		return a.vec.ValueAt(i)
	}
	return a.vals[i]
}

// groupedBatch is one scanned morsel, ready for reduction: the group key
// columns, per-partition row index lists, and the aggregate argument values.
type groupedBatch struct {
	seq   int
	n     int
	keys  []argCol  // per GROUP BY expression; nil for a single group or when ikeys or skeys is set
	ikeys []int64   // columnar keys when the single GROUP BY column is int with no nulls
	skeys []string  // columnar keys when it is string with no nulls
	rows  [][]int32 // per partition: row indices it owns; nil when parts == 1
	args  []argCol  // per AggCall: argument values (zero for COUNT(*))
	rep   *rel      // the scanned chunk, source of representative rows
}

// appendKey encodes row i's group key onto buf — cell by cell, a vector cell
// (appendGroupKey) exactly the way a boxed one (appendKeyValue), so batches
// of the same stream always bucket identically. Keys are encoded into a
// reused buffer where they are needed (the scan's partition hash, the
// reducer's state lookup) rather than stored per row.
func (b *groupedBatch) appendKey(buf []byte, i int) []byte {
	switch {
	case b.ikeys != nil:
		return binary.LittleEndian.AppendUint64(append(buf, 1), uint64(b.ikeys[i]))
	case b.skeys != nil:
		return append(binary.LittleEndian.AppendUint64(append(buf, 3), uint64(len(b.skeys[i]))), b.skeys[i]...)
	}
	for _, k := range b.keys {
		if k.vec != nil {
			buf = appendGroupKey(buf, k.vec, i)
		} else {
			buf = appendKeyValue(buf, k.vals[i])
		}
	}
	return buf
}

// argsAt boxes row i's aggregate arguments for a spill record; COUNT(*)
// slots hold Null placeholders (the count advances per record regardless).
func (b *groupedBatch) argsAt(i int) []dataset.Value {
	out := make([]dataset.Value, len(b.args))
	for ai, col := range b.args {
		if col.valid() {
			out[ai] = col.at(i)
		}
	}
	return out
}

func repRow(c *rel, i int) []dataset.Value {
	out := make([]dataset.Value, len(c.cols))
	for ci, col := range c.cols {
		out[ci] = col.Value(i)
	}
	return out
}

// groupedScan turns source chunks into groupedBatches. It prefers compiled
// kernels for key and argument evaluation (the hot path that makes one
// worker several times faster than the boxed row loop) and falls back to
// boxed evaluation per expression; both encodings bucket identically.
type groupedScan struct {
	se    *streamExec
	stmt  *SelectStmt
	aggs  []*AggCall
	parts int
}

func (gs *groupedScan) build(c *rel, seq int) (*groupedBatch, error) {
	c, err := gs.se.filterRel(gs.stmt.Where, c, -1, seq == 0)
	if err != nil {
		return nil, err
	}
	if c == nil {
		return &groupedBatch{seq: seq}, nil // fully filtered morsel
	}
	n := c.numRows()
	b := &groupedBatch{seq: seq, n: n, rep: c, args: make([]argCol, len(gs.aggs))}
	compiled := true // keys and every argument ran as kernels
	for _, ge := range gs.stmt.GroupBy {
		key, err := gs.evalColumn(c, ge, n)
		if err != nil {
			return nil, err
		}
		b.keys = append(b.keys, key)
		compiled = compiled && key.vec != nil
	}
	if len(b.keys) == 1 && compiled && !hasNulls(b.keys[0].vec) {
		// Columnar fast path: keep the int or string vector as the key
		// column and skip the byte encoding in the reducer entirely.
		// Partitioning and state lookup (the typed maps) agree with the
		// encoded form, so mixed batches still bucket identically.
		switch v := b.keys[0].vec; v.Type {
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
		vals, err := gs.evalColumn(c, a.Arg, n)
		if err != nil {
			return nil, err
		}
		b.args[ai] = vals
		compiled = compiled && vals.vec != nil
	}
	countFirst(seq == 0, compiled, &vecStats.Groups, &vecStats.GroupFallbacks)
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

// evalColumn evaluates one expression over the chunk, keeping the columnar
// vector when a kernel compiles and boxing per row otherwise.
func (gs *groupedScan) evalColumn(c *rel, ex expr.Expr, n int) (argCol, error) {
	if k, ok := expr.Compile(ex, relBinder{c}, n); ok {
		v, err := k()
		if err != nil {
			return argCol{}, err
		}
		return argCol{vec: v}, nil
	}
	vals := make([]dataset.Value, n)
	for i := 0; i < n; i++ {
		v, err := ex.Eval(rowEnv{c, i})
		if err != nil {
			return argCol{}, err
		}
		vals[i] = v
	}
	return argCol{vals: vals}, nil
}

// finGroup is one finished group: its first appearance (chunk, row), its
// representative source row, and its finalized aggregate values (indexed by
// AggCall position). A nil rep marks the synthetic zero-row group of a
// global aggregate, which buffers no representative row.
type finGroup struct {
	seq, row int
	rep      []dataset.Value
	agg      []dataset.Value
}

func (g *finGroup) before(o *finGroup) bool {
	return g.seq < o.seq || (g.seq == o.seq && g.row < o.row)
}

// liveGroup is one group holding an in-memory state in a partition reducer:
// its first appearance and its representative source row. Its aggregate
// state lives in the reducer's aggAccs at the group's index.
type liveGroup struct {
	seq, row int
	rep      []dataset.Value
}

// groupReducer owns one hash partition: its live states, its spill passes,
// and its finished groups.
type groupReducer struct {
	se        *streamExec
	id        int
	op        string
	aggs      []*AggCall
	states    map[string]int32 // encoded group key → index into groups
	ints      map[int64]int32  // single-int group keys (intGroupKey)
	strs      map[string]int32 // single-string group keys (strGroupKey)
	groups    []liveGroup      // this pass's admitted groups, in first-seen order
	acc       []aggAcc         // per AggCall, indexed by group
	all, gids []int32          // scratch: the identity row list, a batch's group ids
	key       []byte           // scratch: the row key being looked up
	spilling  bool
	sw        *spillWriter
	stateRuns []*spillRun
	fin       []finGroup
	err       error
}

func newGroupReducer(se *streamExec, id int, aggs []*AggCall) *groupReducer {
	return &groupReducer{
		se:     se,
		id:     id,
		op:     fmt.Sprintf("group-by#%d", id),
		aggs:   aggs,
		states: map[string]int32{},
		ints:   map[int64]int32{},
		strs:   map[string]int32{},
		acc:    make([]aggAcc, len(aggs)),
	}
}

// aggAcc is one aggregate's streaming state for every live group of a
// reducer, indexed by group — the per-table arrays of a one-pass aggregate,
// grown as groups are admitted. Only the arrays the aggregate reads exist.
type aggAcc struct {
	counts []int64         // COUNT; SUM/AVG: values seen
	sums   []float64       // SUM/AVG, accumulated in row order
	notInt []bool          // SUM saw a non-int value
	best   []dataset.Value // MIN/MAX; null until the group sees a value
}

func (s *aggAcc) addGroup(a *AggCall) {
	switch {
	case a.Star || a.Name == "COUNT":
		s.counts = append(s.counts, 0)
	case a.Name == "MIN" || a.Name == "MAX":
		s.best = append(s.best, dataset.Null)
	default:
		s.counts = append(s.counts, 0)
		s.sums = append(s.sums, 0)
		s.notInt = append(s.notInt, false)
	}
}

// add folds one boxed argument into group g, mirroring computeAgg exactly
// (same null handling, same float64 addition order per group, same
// Compare-based MIN/MAX). It serves spill replay, arguments that did not
// compile, and the vector types fold has no typed loop for.
func (s *aggAcc) add(a *AggCall, g int32, v dataset.Value) error {
	if a.Star {
		s.counts[g]++
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
		if v.Type != dataset.TypeInt {
			s.notInt[g] = true
		}
		s.sums[g] += f
		s.counts[g]++
	}
	return nil
}

// fold accumulates one batch's argument column: rows lists the batch rows
// this reducer owns and gids[p] the group of rows[p] (negative: the row
// spilled). Rows are visited in batch order, so each group sees the same
// float64 addition sequence as the reference's per-group loop.
func (s *aggAcc) fold(a *AggCall, arg argCol, rows, gids []int32) error {
	v := arg.vec
	switch {
	case a.Star:
		counts := s.counts
		for _, g := range gids {
			if g >= 0 {
				counts[g]++
			}
		}
		return nil
	case v == nil:
	case a.Name == "COUNT":
		for p, i := range rows {
			if g := gids[p]; g >= 0 && !v.NullAt(int(i)) {
				s.counts[g]++
			}
		}
		return nil
	case a.Name == "SUM" || a.Name == "AVG":
		switch v.Type {
		case dataset.TypeInt:
			sumInto(s, v.I, v.Nulls, rows, gids, false)
			return nil
		case dataset.TypeFloat:
			sumInto(s, v.F, v.Nulls, rows, gids, true)
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
			if err := s.add(a, g, arg.at(int(i))); err != nil {
				return err
			}
		}
	}
	return nil
}
func sumInto[T int64 | float64](s *aggAcc, vals []T, nulls []bool, rows, gids []int32, notInt bool) {
	sums, counts, flags := s.sums, s.counts, s.notInt
	for p, i := range rows {
		g := gids[p]
		if g < 0 || (nulls != nil && nulls[i]) {
			continue
		}
		sums[g] += float64(vals[i])
		counts[g]++
		if notInt {
			flags[g] = true
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

// finishAggValues finalizes group g's aggregate slots the way computeAgg
// does.
func finishAggValues(acc []aggAcc, aggs []*AggCall, g int) []dataset.Value {
	out := make([]dataset.Value, len(aggs))
	for ai, a := range aggs {
		s := &acc[ai]
		switch {
		case a.Star || a.Name == "COUNT":
			out[ai] = dataset.Int(s.counts[g])
		case a.Name == "MIN" || a.Name == "MAX":
			out[ai] = s.best[g]
		case s.counts[g] == 0: // SUM, AVG over no values stay null
		case a.Name == "AVG":
			out[ai] = dataset.Float(s.sums[g] / float64(s.counts[g]))
		case s.notInt[g]:
			out[ai] = dataset.Float(s.sums[g])
		default:
			out[ai] = dataset.Int(int64(s.sums[g]))
		}
	}
	return out
}

// admit decides whether a new group key gets an in-memory state (true) or
// its rows spill to disk for a later pass (false, with r.sw ready). The
// first state of a pass is admitted even when the budget is full — sibling
// partitions' states can transiently hold all of it, and the bounded overrun
// (one state per partition) keeps every spill pass making progress. Once a
// pass starts spilling it stays spilling, so the in-memory key set always
// first-arrives strictly before the spilled one — the invariant the
// first-seen merge order relies on.
func (r *groupReducer) admit() (bool, error) {
	if !r.spilling {
		if r.se.tryBuffer(r.op, len(r.groups)+1) {
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
		for len(rows) < b.n {
			rows = append(rows, int32(len(rows)))
		}
		r.all, rows = rows, rows[:b.n]
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
				rec := &spillRec{Seq: b.seq, Row: int(i), Key: b.appendKey(nil, int(i)), A: b.argsAt(int(i)), B: repRow(b.rep, int(i))}
				if err := r.sw.write(rec); err != nil {
					return err
				}
				gids[p] = -1
				continue
			}
			key = b.appendKey(key[:0], int(i))
			g = r.newGroup(key, b.seq, int(i), repRow(b.rep, int(i)))
		}
		gids[p] = g
	}
	r.key = key
	for ai, a := range r.aggs {
		if err := r.acc[ai].fold(a, b.args[ai], rows, gids); err != nil {
			return err
		}
	}
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

// newGroup admits the group of an encoded key, first seen at (seq, row).
func (r *groupReducer) newGroup(key []byte, seq, row int, rep []dataset.Value) int32 {
	g := int32(len(r.groups))
	r.groups = append(r.groups, liveGroup{seq: seq, row: row, rep: rep})
	for ai, a := range r.aggs {
		r.acc[ai].addGroup(a)
	}
	if k, ok := intGroupKey(key); ok {
		r.ints[k] = g
	} else if k, ok := strGroupKey(key); ok {
		r.strs[string(k)] = g
	} else {
		r.states[string(key)] = g
	}
	return g
}

// finish runs the spill passes to completion. Afterwards stateRuns (in pass
// order) followed by fin hold this partition's groups in first-seen order.
func (r *groupReducer) finish() error {
	for {
		fin := make([]finGroup, len(r.groups))
		for gi, g := range r.groups {
			fin[gi] = finGroup{seq: g.seq, row: g.row, rep: g.rep, agg: finishAggValues(r.acc, r.aggs, gi)}
		}
		if r.sw == nil {
			r.fin = fin
			return nil
		}
		// Over budget this pass: park the finished states on disk, release
		// the memory, and replay the spilled rows as the next pass.
		sw, err := r.se.newSpillWriter("gstate")
		if err != nil {
			return err
		}
		for gi := range fin {
			if err := sw.write(&spillRec{Seq: fin[gi].seq, Row: fin[gi].row, A: fin[gi].agg, B: fin[gi].rep}); err != nil {
				sw.abort()
				return err
			}
		}
		run, err := sw.finish()
		if err != nil {
			return err
		}
		r.stateRuns = append(r.stateRuns, run)
		r.states, r.ints, r.strs = map[string]int32{}, map[int64]int32{}, map[string]int32{}
		r.groups = nil
		r.acc = make([]aggAcc, len(r.aggs))
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
			g = r.newGroup(rec.Key, rec.Seq, rec.Row, rec.B)
		}
		for ai, a := range r.aggs {
			if err := r.acc[ai].add(a, g, rec.A[ai]); err != nil {
				return err
			}
		}
	}
}

// groupSource streams one partition's finished groups in first-seen order:
// state runs from earlier passes, then the final in-memory pass.
type groupSource struct {
	runs []*spillRun
	mem  []finGroup
	rd   *spillReader
}

func (s *groupSource) next() (*finGroup, error) {
	for {
		if s.rd == nil && len(s.runs) > 0 {
			rd, err := s.runs[0].open()
			if err != nil {
				return nil, err
			}
			s.runs = s.runs[1:]
			s.rd = rd
		}
		if s.rd != nil {
			rec, err := s.rd.next()
			if err != nil {
				return nil, err
			}
			if rec == nil {
				s.rd.close()
				s.rd = nil
				continue
			}
			return &finGroup{seq: rec.Seq, row: rec.Row, rep: rec.B, agg: rec.A}, nil
		}
		if len(s.mem) > 0 {
			g := &s.mem[0]
			s.mem = s.mem[1:]
			return g, nil
		}
		return nil, nil
	}
}

// mergedGroups merges the partitions' group streams by first appearance.
type mergedGroups struct {
	srcs  []*groupSource
	heads []*finGroup
}

func newMergedGroups(reducers []*groupReducer) *mergedGroups {
	srcs := make([]*groupSource, len(reducers))
	for p, red := range reducers {
		srcs[p] = &groupSource{runs: red.stateRuns, mem: red.fin}
	}
	return &mergedGroups{srcs: srcs, heads: make([]*finGroup, len(srcs))}
}

// groupRows lays finished groups out the way the per-group output phase
// (finishGrouped) reads them: the representative rows as a relation, and each
// group's aggregates keyed by AggCall.Key.
func groupRows(schema *rel, aggs []*AggCall, fin []*finGroup) (*rel, []groupData) {
	reps := &rel{cols: make([]*dataset.Column, len(schema.cols)), quals: schema.quals}
	for i, c := range schema.cols {
		reps.cols[i] = dataset.NewColumn(c.Name(), c.Type())
	}
	groups := make([]groupData, len(fin))
	for gi, fg := range fin {
		if fg.rep != nil { // nil: the one group of an aggregate over no rows
			for ci, col := range reps.cols {
				col.Append(fg.rep[ci])
			}
		}
		aggVals := make(expr.MapEnv, len(aggs))
		for ai, a := range aggs {
			aggVals[a.Key()] = fg.agg[ai]
		}
		groups[gi] = groupData{firstRow: gi, aggVals: aggVals}
	}
	return reps, groups
}

func (m *mergedGroups) next() (*finGroup, error) {
	best := -1
	for i, s := range m.srcs {
		if m.heads[i] == nil {
			g, err := s.next()
			if err != nil {
				return nil, err
			}
			m.heads[i] = g
		}
		if m.heads[i] == nil {
			continue
		}
		if best < 0 || m.heads[i].before(m.heads[best]) {
			best = i
		}
	}
	if best < 0 {
		return nil, nil
	}
	g := m.heads[best]
	m.heads[best] = nil
	return g, nil
}

// partitionedGroupedPull drives the whole engine on the first chunk request:
// scan fan-out, partition reduction, spill passes, and the final merge. One
// partition folds inline on the consumer; more get a reducer goroutine each.
func (se *streamExec) partitionedGroupedPull(stmt *SelectStmt, chunks relChunks, aggs []*AggCall, schema *rel) func() (*dataset.Table, error) {
	return deferredPull(func() (func() (*dataset.Table, error), error) {
		parts := se.nw
		gs := &groupedScan{se: se, stmt: stmt, aggs: aggs, parts: parts}
		pipe := newParallelPipe(se, pullRel(chunks), gs.build)

		reducers := make([]*groupReducer, parts)
		for p := range reducers {
			reducers[p] = newGroupReducer(se, p, aggs)
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
		spilled := false
		for _, red := range reducers {
			if red.err != nil {
				return nil, red.err
			}
			spilled = spilled || len(red.stateRuns) > 0
		}
		if !spilled {
			return se.finishGroupedInMemory(stmt, aggs, schema, reducers)
		}
		return se.finishGroupedSpilled(stmt, aggs, schema, reducers)
	})
}

// finishGroupedInMemory is the no-spill epilogue: merge the partitions'
// groups into global first-seen order and run the reference executor's own
// finishing phase (finishGrouped → DISTINCT → OFFSET/LIMIT), re-chunked, so
// output is identical to it down to column types.
func (se *streamExec) finishGroupedInMemory(stmt *SelectStmt, aggs []*AggCall, schema *rel, reducers []*groupReducer) (func() (*dataset.Table, error), error) {
	merged := newMergedGroups(reducers)
	var order []*finGroup
	for {
		g, err := merged.next()
		if err != nil {
			return nil, err
		}
		if g == nil {
			break
		}
		order = append(order, g)
	}
	if len(stmt.GroupBy) == 0 && len(order) == 0 {
		// Aggregates over zero rows still produce one output group, with no
		// representative row buffered.
		acc := make([]aggAcc, len(aggs))
		for ai, a := range aggs {
			acc[ai].addGroup(a)
		}
		order = append(order, &finGroup{agg: finishAggValues(acc, aggs, 0)})
	}
	firstRows, groups := groupRows(schema, aggs, order)
	out, err := se.ex.finishGrouped(stmt, firstRows, groups)
	if err == nil {
		out, err = distinctLimit(stmt, out)
	}
	if err != nil {
		return nil, err
	}
	return rechunkTable(out, se.opts.chunkRows()), nil
}

// finishGroupedSpilled is the out-of-core epilogue: stream the merged groups
// in batches through HAVING and projection, sort externally when ORDER BY is
// present, and emit fixed-size chunks so the chunk boundaries match the
// in-memory epilogue's re-chunked output.
func (se *streamExec) finishGroupedSpilled(stmt *SelectStmt, aggs []*AggCall, schema *rel, reducers []*groupReducer) (func() (*dataset.Table, error), error) {
	merged := newMergedGroups(reducers)
	names, exprs := se.ex.expandItems(stmt.Items, schema)

	// finishBatch is finishGrouped's per-group phase over one batch of groups:
	// HAVING filter, projection, and ORDER BY key evaluation.
	finishBatch := func(batch []*finGroup) (vals, keys [][]dataset.Value, err error) {
		source, groups := groupRows(schema, aggs, batch)
		return projectRows(names, exprs, stmt.Having, stmt.OrderBy, len(groups), groupEnv(source, groups))
	}

	chunkRows := se.opts.chunkRows()
	nextBatch := func() ([][]dataset.Value, [][]dataset.Value, bool, error) {
		batch := make([]*finGroup, 0, chunkRows)
		for len(batch) < chunkRows {
			g, err := merged.next()
			if err != nil {
				return nil, nil, false, err
			}
			if g == nil {
				break
			}
			batch = append(batch, g)
		}
		if len(batch) == 0 {
			return nil, nil, false, nil
		}
		vals, keys, err := finishBatch(batch)
		return vals, keys, true, err
	}

	var rowSrc func() ([]dataset.Value, bool, error)
	if len(stmt.OrderBy) > 0 {
		// Feed every surviving group through the external sorter; batches
		// arrive in first-seen order, so the stable merge reproduces the
		// reference's stable sort.
		sorter := newExtSorter(se, "order-by", stmt.OrderBy)
		seq := 0
		for {
			vals, keys, ok, err := nextBatch()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			if err := sorter.addRun(seq, vals, keys, nil); err != nil {
				return nil, err
			}
			seq++
		}
		rowSrc = sorter.rows()
	} else {
		var pending [][]dataset.Value
		done := false
		rowSrc = func() ([]dataset.Value, bool, error) {
			for len(pending) == 0 && !done {
				vals, _, ok, err := nextBatch()
				if err != nil {
					return nil, false, err
				}
				if !ok {
					done = true
					break
				}
				pending = vals
			}
			if len(pending) == 0 {
				return nil, false, nil
			}
			row := pending[0]
			pending = pending[1:]
			return row, true, nil
		}
	}

	pull := se.chunked(names, nil, rowSrc)
	if stmt.Distinct {
		pull = se.parallelDistinctPull(pull)
	}
	if stmt.Offset > 0 || stmt.Limit >= 0 {
		pull = offsetLimitPull(pull, stmt.Offset, stmt.Limit)
	}
	return pull, nil
}
