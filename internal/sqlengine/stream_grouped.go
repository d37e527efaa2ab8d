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
// hash-partition rows; one reducer per partition folds rows into per-group
// aggregate states, consuming batches in chunk-sequence order so every group
// accumulates in global row order — float SUM/AVG results are bit-identical
// at every worker count. When the states overflow the memory budget a reducer
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
func hash32(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
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

// hash32str is hash32 over a string key without the []byte conversion.
func hash32str(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// argCol is one aggregate argument over a batch: the compiled kernel's
// columnar vector when the expression compiled, boxed values otherwise, and
// neither for COUNT(*). Holding the vector instead of boxing every row into
// a []dataset.Value keeps the scan free of per-batch Value slices (and the
// GC scanning they cost); rows box on the stack only as they accumulate.
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

// groupedBatch is one scanned morsel, ready for reduction: encoded group key
// per row, per-partition row index lists, and the aggregate argument values.
type groupedBatch struct {
	seq   int
	n     int
	keys  [][]byte  // per-row encoded group key; nil for a single group or when ikeys is set
	ikeys []int64   // columnar keys when the single GROUP BY column is int with no nulls
	rows  [][]int32 // per partition: row indices it owns; nil when parts == 1
	args  []argCol  // per AggCall: argument values (zero for COUNT(*))
	rep   *rel      // the scanned chunk, source of representative rows
}

func (b *groupedBatch) keyAt(i int) []byte {
	if b.keys == nil {
		return nil
	}
	return b.keys[i]
}

// encodedKey materializes row i's group key bytes for a spill record —
// copied (or encoded from the columnar int key) so it outlives the batch.
func (b *groupedBatch) encodedKey(i int) []byte {
	if b.ikeys != nil {
		buf := make([]byte, 0, 9)
		buf = append(buf, 1)
		return binary.LittleEndian.AppendUint64(buf, uint64(b.ikeys[i]))
	}
	return append([]byte(nil), b.keyAt(i)...)
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
	c, err := gs.se.ex.filterRel(gs.stmt.Where, c, -1)
	if err != nil {
		return nil, err
	}
	if c == nil {
		return &groupedBatch{seq: seq}, nil // fully filtered morsel
	}
	n := c.numRows()
	b := &groupedBatch{seq: seq, n: n, rep: c, args: make([]argCol, len(gs.aggs))}
	if len(gs.stmt.GroupBy) > 0 {
		if err := gs.buildKeys(c, b); err != nil {
			return nil, err
		}
	}
	if gs.parts > 1 {
		// Bucketing rows here, in the (parallel) scan stage, means each
		// reducer later visits only its own rows instead of scanning the
		// whole batch and skipping the other partitions' rows — the reducer
		// side does n row visits total rather than parts×n.
		b.rows = make([][]int32, gs.parts)
		for i := 0; i < n; i++ {
			var h uint32
			if b.ikeys != nil {
				h = hash32int(b.ikeys[i])
			} else {
				h = hash32(b.keyAt(i))
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

func (gs *groupedScan) buildKeys(c *rel, b *groupedBatch) error {
	n := c.numRows()
	var flat []byte
	if gs.se.ex.vec {
		kvecs := make([]*expr.Vec, 0, len(gs.stmt.GroupBy))
		for _, ge := range gs.stmt.GroupBy {
			k, ok := expr.Compile(ge, relBinder{c}, n)
			if !ok {
				kvecs = nil
				break
			}
			v, err := k()
			if err != nil {
				return err
			}
			kvecs = append(kvecs, v)
		}
		if kvecs != nil {
			if len(kvecs) == 1 && kvecs[0].Type == dataset.TypeInt && !hasNulls(kvecs[0]) {
				// Columnar fast path: keep the int vector as the key column
				// and skip the per-row byte encoding entirely. Partitioning
				// (hash32int) and state lookup (the int map) agree with the
				// encoded form, so mixed batches still bucket identically.
				b.ikeys = kvecs[0].I
				return nil
			}
			b.keys = make([][]byte, n)
			for i := 0; i < n; i++ {
				start := len(flat)
				for _, kv := range kvecs {
					flat = appendGroupKey(flat, kv, i)
				}
				b.keys[i] = flat[start:len(flat):len(flat)]
			}
			return nil
		}
	}
	b.keys = make([][]byte, n)
	for i := 0; i < n; i++ {
		env := rowEnv{c, i}
		start := len(flat)
		for _, ge := range gs.stmt.GroupBy {
			v, err := ge.Eval(env)
			if err != nil {
				return err
			}
			flat = appendKeyValue(flat, v)
		}
		b.keys[i] = flat[start:len(flat):len(flat)]
	}
	return nil
}

// evalColumn evaluates one expression over the chunk, keeping the columnar
// vector when a kernel compiles and boxing per row otherwise.
func (gs *groupedScan) evalColumn(c *rel, ex expr.Expr, n int) (argCol, error) {
	if gs.se.ex.vec {
		if k, ok := expr.Compile(ex, relBinder{c}, n); ok {
			v, err := k()
			if err != nil {
				return argCol{}, err
			}
			return argCol{vec: v}, nil
		}
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

// pgState is one live group state in a partition reducer.
type pgState struct {
	gState
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
	states    map[string]*pgState
	ints      map[int64]*pgState // fast path for single-int group keys
	order     []*pgState
	spilling  bool
	sw        *spillWriter
	admitted  int
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
		states: map[string]*pgState{},
		ints:   map[int64]*pgState{},
	}
}

// gState is one group's streaming aggregate state, one slot per AggCall.
type gState struct {
	counts  []int64
	sums    []float64
	allInt  []bool
	best    []dataset.Value
	hasBest []bool
}

func newGState(naggs int) *gState {
	g := &gState{
		counts:  make([]int64, naggs),
		sums:    make([]float64, naggs),
		allInt:  make([]bool, naggs),
		best:    make([]dataset.Value, naggs),
		hasBest: make([]bool, naggs),
	}
	for i := range g.allInt {
		g.allInt[i] = true
	}
	return g
}

// accumulate folds one row's argument into one aggregate slot, mirroring
// computeAgg exactly (same null handling, same float64 addition order per
// group, same Compare-based MIN/MAX).
func (g *gState) accumulate(a *AggCall, ai int, v dataset.Value) error {
	if a.Star {
		g.counts[ai]++
		return nil
	}
	if v.IsNull() {
		return nil
	}
	switch a.Name {
	case "COUNT":
		g.counts[ai]++
	case "MIN", "MAX":
		if !g.hasBest[ai] {
			g.best[ai], g.hasBest[ai] = v, true
			return nil
		}
		cmp := dataset.Compare(v, g.best[ai])
		if (a.Name == "MIN" && cmp < 0) || (a.Name == "MAX" && cmp > 0) {
			g.best[ai] = v
		}
	default: // SUM, AVG accumulate in ascending row order, like computeAgg
		f, ok := v.AsFloat()
		if !ok {
			return fmt.Errorf("sql: %s over non-numeric value %v", a.Name, v)
		}
		if v.Type != dataset.TypeInt {
			g.allInt[ai] = false
		}
		g.sums[ai] += f
		g.counts[ai]++
	}
	return nil
}

// finishAggValues finalizes one group's aggregate slots the way computeAgg
// does.
func finishAggValues(g *gState, aggs []*AggCall) []dataset.Value {
	out := make([]dataset.Value, len(aggs))
	for ai, a := range aggs {
		var v dataset.Value
		switch {
		case a.Star || a.Name == "COUNT":
			v = dataset.Int(g.counts[ai])
		case a.Name == "MIN" || a.Name == "MAX":
			v = dataset.Null
			if g.hasBest[ai] {
				v = g.best[ai]
			}
		case a.Name == "SUM":
			switch {
			case g.counts[ai] == 0:
				v = dataset.Null
			case g.allInt[ai]:
				v = dataset.Int(int64(g.sums[ai]))
			default:
				v = dataset.Float(g.sums[ai])
			}
		default: // AVG
			v = dataset.Null
			if g.counts[ai] > 0 {
				v = dataset.Float(g.sums[ai] / float64(g.counts[ai]))
			}
		}
		out[ai] = v
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
		if r.se.tryBuffer(r.op, len(r.order)+1) {
			return true, nil
		}
		if len(r.order) == 0 {
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

// feed folds one batch's rows for this partition into the live states,
// spilling rows of new keys once the budget refuses another state.
func (r *groupReducer) feed(b *groupedBatch) error {
	if b.rows != nil {
		for _, i := range b.rows[r.id] {
			if err := r.feedRow(b, int(i)); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < b.n; i++ {
		if err := r.feedRow(b, i); err != nil {
			return err
		}
	}
	return nil
}

func (r *groupReducer) feedRow(b *groupedBatch, i int) error {
	var g *pgState
	var ok bool
	if b.ikeys != nil {
		g, ok = r.ints[b.ikeys[i]]
	} else {
		g, ok = r.lookup(b.keyAt(i))
	}
	if !ok {
		admit, err := r.admit()
		if err != nil {
			return err
		}
		if !admit {
			return r.sw.write(&spillRec{Seq: b.seq, Row: i, Key: b.encodedKey(i), A: b.argsAt(i), B: repRow(b.rep, i)})
		}
		if b.ikeys != nil {
			g = r.newIntState(b.ikeys[i], b.seq, i, repRow(b.rep, i))
		} else {
			g = r.newState(b.keyAt(i), b.seq, i, repRow(b.rep, i))
		}
	}
	for ai, a := range r.aggs {
		var v dataset.Value
		if col := b.args[ai]; col.valid() {
			v = col.at(i)
		}
		if err := g.accumulate(a, ai, v); err != nil {
			return err
		}
	}
	return nil
}

func (r *groupReducer) lookup(key []byte) (*pgState, bool) {
	if k, ok := intGroupKey(key); ok {
		g, hit := r.ints[k]
		return g, hit
	}
	g, hit := r.states[string(key)]
	return g, hit
}

func (r *groupReducer) newState(key []byte, seq, row int, rep []dataset.Value) *pgState {
	if k, ok := intGroupKey(key); ok {
		return r.newIntState(k, seq, row, rep)
	}
	g := &pgState{gState: *newGState(len(r.aggs)), seq: seq, row: row, rep: rep}
	r.states[string(key)] = g
	r.order = append(r.order, g)
	r.admitted++
	return g
}

func (r *groupReducer) newIntState(k int64, seq, row int, rep []dataset.Value) *pgState {
	g := &pgState{gState: *newGState(len(r.aggs)), seq: seq, row: row, rep: rep}
	r.ints[k] = g
	r.order = append(r.order, g)
	r.admitted++
	return g
}

// finish runs the spill passes to completion. Afterwards stateRuns (in pass
// order) followed by fin hold this partition's groups in first-seen order.
func (r *groupReducer) finish() error {
	for {
		fin := make([]finGroup, len(r.order))
		for gi, g := range r.order {
			fin[gi] = finGroup{seq: g.seq, row: g.row, rep: g.rep, agg: finishAggValues(&g.gState, r.aggs)}
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
		r.states = map[string]*pgState{}
		r.ints = map[int64]*pgState{}
		r.order = nil
		// Releasing this partition's charge must never fail: sibling
		// partitions' forced admissions can hold the global total over budget
		// right now, and the checked buffer() would turn that transient into
		// a spurious BudgetError.
		r.se.forceBuffer(r.op, 0)
		rowRun, err := r.sw.finish()
		r.sw = nil
		r.spilling = false
		r.admitted = 0
		if err != nil {
			return err
		}
		if err := r.replay(rowRun); err != nil {
			return err
		}
		if r.admitted == 0 && r.sw != nil {
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
			g = r.newState(rec.Key, rec.Seq, rec.Row, rec.B)
		}
		for ai, a := range r.aggs {
			if err := g.accumulate(a, ai, rec.A[ai]); err != nil {
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

func newMergedGroups(srcs []*groupSource) *mergedGroups {
	return &mergedGroups{srcs: srcs, heads: make([]*finGroup, len(srcs))}
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
		parts := se.workers()
		gs := &groupedScan{se: se, stmt: stmt, aggs: aggs, parts: parts}
		pipe := newParallelPipe(parts, 2*parts,
			pullRel(chunks),
			gs.build,
		)
		se.onStop(pipe.stop)

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
// groups into global first-seen order and run the buffered executor's own
// finishing phase (finishGrouped → DISTINCT → OFFSET/LIMIT), re-chunked, so
// output is identical to it down to column types.
func (se *streamExec) finishGroupedInMemory(stmt *SelectStmt, aggs []*AggCall, schema *rel, reducers []*groupReducer) (func() (*dataset.Table, error), error) {
	idx := make([]int, len(reducers))
	var order []finGroup
	for {
		best := -1
		for p, red := range reducers {
			if idx[p] >= len(red.fin) {
				continue
			}
			if best < 0 || red.fin[idx[p]].before(&reducers[best].fin[idx[best]]) {
				best = p
			}
		}
		if best < 0 {
			break
		}
		order = append(order, reducers[best].fin[idx[best]])
		idx[best]++
	}
	if len(stmt.GroupBy) == 0 && len(order) == 0 {
		// Aggregates over zero rows still produce one output group, with no
		// representative row buffered.
		g := newGState(len(aggs))
		order = append(order, finGroup{agg: finishAggValues(g, aggs)})
	}
	firstRows := &rel{cols: make([]*dataset.Column, len(schema.cols)), quals: schema.quals}
	for i, c := range schema.cols {
		firstRows.cols[i] = dataset.NewColumn(c.Name(), c.Type())
	}
	groups := make([]groupData, len(order))
	for gi := range order {
		fg := &order[gi]
		if fg.rep != nil {
			for ci, col := range firstRows.cols {
				col.Append(fg.rep[ci])
			}
		}
		aggVals := make(expr.MapEnv, len(aggs))
		for ai, a := range aggs {
			aggVals[a.Key()] = fg.agg[ai]
		}
		groups[gi] = groupData{firstRow: gi, aggVals: aggVals}
	}
	out, err := se.ex.finishGrouped(stmt, firstRows, groups)
	if err != nil {
		return nil, err
	}
	if stmt.Distinct {
		out, err = out.Distinct()
		if err != nil {
			return nil, err
		}
	}
	if stmt.Offset > 0 || stmt.Limit >= 0 {
		from := stmt.Offset
		to := out.NumRows()
		if stmt.Limit >= 0 && from+stmt.Limit < to {
			to = from + stmt.Limit
		}
		out = out.Slice(from, to)
	}
	return rechunkTable(out, se.opts.chunkRows()), nil
}

// finishGroupedSpilled is the out-of-core epilogue: stream the merged groups
// in batches through HAVING and projection, sort externally when ORDER BY is
// present, and emit fixed-size chunks so the chunk boundaries match the
// in-memory epilogue's re-chunked output.
func (se *streamExec) finishGroupedSpilled(stmt *SelectStmt, aggs []*AggCall, schema *rel, reducers []*groupReducer) (func() (*dataset.Table, error), error) {
	srcs := make([]*groupSource, len(reducers))
	for p, red := range reducers {
		srcs[p] = &groupSource{runs: red.stateRuns, mem: red.fin}
	}
	merged := newMergedGroups(srcs)
	names, exprs := se.ex.expandItems(stmt.Items, schema)
	colTypes := make([]dataset.Type, len(schema.cols))
	for i, c := range schema.cols {
		colTypes[i] = c.Type()
	}

	// finishBatch mirrors finishGrouped's per-group phase: HAVING filter,
	// projection, and ORDER BY key evaluation against the same environments.
	finishBatch := func(batch []*finGroup) (vals [][]dataset.Value, keys [][]dataset.Value, err error) {
		source := &rel{cols: make([]*dataset.Column, len(schema.cols)), quals: schema.quals}
		for i, c := range schema.cols {
			source.cols[i] = dataset.NewColumn(c.Name(), colTypes[i])
		}
		for _, fg := range batch {
			for ci, col := range source.cols {
				col.Append(fg.rep[ci])
			}
		}
		outRow := make(expr.MapEnv, len(exprs))
		for bi, fg := range batch {
			aggVals := make(expr.MapEnv, len(aggs))
			for ai, a := range aggs {
				aggVals[a.Key()] = fg.agg[ai]
			}
			env := chainEnv{aggVals, rowEnv{source, bi}}
			if stmt.Having != nil {
				ok, err := expr.EvalBool(stmt.Having, env)
				if err != nil {
					return nil, nil, err
				}
				if !ok {
					continue
				}
			}
			row := make([]dataset.Value, len(exprs))
			for ci, ex := range exprs {
				v, err := ex.Eval(env)
				if err != nil {
					return nil, nil, err
				}
				row[ci] = v
				outRow[names[ci]] = v
			}
			vals = append(vals, row)
			if len(stmt.OrderBy) > 0 {
				orderEnv := chainEnv{outRow, env}
				krow := make([]dataset.Value, len(stmt.OrderBy))
				for ki, o := range stmt.OrderBy {
					v, err := o.Expr.Eval(orderEnv)
					if err != nil {
						return nil, nil, err
					}
					krow[ki] = v
				}
				keys = append(keys, krow)
			}
		}
		return vals, keys, nil
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
		sorted := sorter.sources()
		rowSrc = func() ([]dataset.Value, bool, error) {
			vals, _, ok, err := sorter.mergeStep(sorted)
			return vals, ok, err
		}
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

	// Emit fixed-size chunks; guarantee one (possibly empty) chunk so the
	// schema always reaches the consumer, like rechunkTable.
	emitted := false
	finished := false
	pull := func() (*dataset.Table, error) {
		if finished {
			return nil, nil
		}
		rows := make([][]dataset.Value, 0, chunkRows)
		for len(rows) < chunkRows {
			row, ok, err := rowSrc()
			if err != nil {
				return nil, err
			}
			if !ok {
				finished = true
				break
			}
			rows = append(rows, row)
		}
		if len(rows) == 0 {
			if !emitted {
				emitted = true
				return buildValueChunk(names, nil, nil)
			}
			return nil, nil
		}
		emitted = true
		return buildValueChunk(names, nil, rows)
	}
	if stmt.Distinct {
		pull = se.parallelDistinctPull(pull)
	}
	if stmt.Offset > 0 || stmt.Limit >= 0 {
		pull = offsetLimitPull(pull, stmt.Offset, stmt.Limit)
	}
	return pull, nil
}
