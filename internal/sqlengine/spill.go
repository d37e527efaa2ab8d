package sqlengine

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"datachat/internal/dataset"
)

// This file implements the disk spill layer for pipeline breakers. When a
// sort or a group-by partition exceeds the MaxBufferedRows budget, its
// buffered state is written as a run of gob-encoded records to a temp file
// and merged back streaming, so the budget bounds memory without killing the
// query — BudgetError is left for the operators that cannot spill (join
// build sides and unmatched-row buffers). Every temp file is tracked on the
// stream and removed when its reader is exhausted or the stream closes, so
// errors and cancellation leave no files behind.

// SpillStats reports the disk traffic of one stream (or an aggregate of
// streams): how many runs were written, and how many rows/bytes they held.
type SpillStats struct {
	Runs         int   `json:"runs"`
	SpilledRows  int   `json:"spilled_rows"`
	SpilledBytes int64 `json:"spilled_bytes"`
}

// spillRec is the one on-disk record shape all spill users share. Sort runs
// store projected values in A and sort keys in B; group-by row runs store
// aggregate arguments in A, the representative source row in B, and the
// encoded group key in Key; group-by state runs store finalized aggregate
// values in A and the representative row in B. Seq/Row stamp the record's
// original (chunk, row) position so first-seen order survives the disk trip.
type spillRec struct {
	Seq int
	Row int
	Key []byte
	A   []dataset.Value
	B   []dataset.Value
}

// spillWriter streams records into one temp-file run.
type spillWriter struct {
	se   *streamExec
	f    *os.File
	bw   *bufio.Writer
	enc  *gob.Encoder
	rows int
}

func (se *streamExec) newSpillWriter(kind string) (*spillWriter, error) {
	f, err := os.CreateTemp(se.opts.SpillDir, "dcspill-"+kind+"-*.run")
	if err != nil {
		return nil, fmt.Errorf("sql: creating spill file: %w", err)
	}
	if err := se.trackSpillFile(f.Name()); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	return &spillWriter{se: se, f: f, bw: bw, enc: gob.NewEncoder(bw)}, nil
}

func (w *spillWriter) write(rec *spillRec) error {
	w.rows++
	if err := w.enc.Encode(rec); err != nil {
		return fmt.Errorf("sql: writing spill run: %w", err)
	}
	return nil
}

// finish flushes the run, records its stats, and returns a handle for
// reading it back. The writer is dead afterwards.
func (w *spillWriter) finish() (*spillRun, error) {
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return nil, fmt.Errorf("sql: flushing spill run: %w", err)
	}
	info, err := w.f.Stat()
	if err != nil {
		w.f.Close()
		return nil, fmt.Errorf("sql: sizing spill run: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return nil, fmt.Errorf("sql: closing spill run: %w", err)
	}
	w.se.noteSpillRun(w.rows, info.Size())
	return &spillRun{se: w.se, path: w.f.Name(), rows: w.rows}, nil
}

// abort discards a half-written run.
func (w *spillWriter) abort() {
	w.f.Close()
	w.se.removeSpillFile(w.f.Name())
}

// spillRun is one finished on-disk run.
type spillRun struct {
	se   *streamExec
	path string
	rows int
}

func (r *spillRun) open() (*spillReader, error) {
	f, err := os.Open(r.path)
	if err != nil {
		return nil, fmt.Errorf("sql: opening spill run: %w", err)
	}
	br := bufio.NewReaderSize(f, 1<<16)
	return &spillReader{run: r, f: f, dec: gob.NewDecoder(br)}, nil
}

// remove deletes the run's file; safe to call more than once.
func (r *spillRun) remove() { r.se.removeSpillFile(r.path) }

// spillReader streams a run's records back in write order.
type spillReader struct {
	run *spillRun
	f   *os.File
	dec *gob.Decoder
}

// next returns the following record, or nil at end of run.
func (r *spillReader) next() (*spillRec, error) {
	rec := &spillRec{}
	if err := r.dec.Decode(rec); err != nil {
		if err == io.EOF {
			return nil, nil
		}
		return nil, fmt.Errorf("sql: reading spill run: %w", err)
	}
	return rec, nil
}

// close releases the reader and deletes the underlying file — a run is read
// exactly once.
func (r *spillReader) close() {
	r.f.Close()
	r.run.remove()
}

// ---------------------------------------------------------------------------
// External sorter: sorted in-memory runs that spill to disk under budget
// pressure and merge back streaming.

// sortedSource is one run in the final merge: in-memory or on disk. Rows
// within a source are already in output order; across sources ties are
// broken by startSeq, which reproduces a global stable sort because every
// source covers a contiguous, disjoint range of input sequence numbers.
type sortedSource interface {
	head() (vals, keys []dataset.Value, ok bool, err error)
	pop() error
	startSeq() int
}

// memSortRun is one input chunk sorted stably by its keys.
type memSortRun struct {
	seq   int
	vals  [][]dataset.Value
	keys  [][]dataset.Value
	order []int
	pos   int
}

func (r *memSortRun) head() ([]dataset.Value, []dataset.Value, bool, error) {
	if r.pos >= len(r.order) {
		return nil, nil, false, nil
	}
	i := r.order[r.pos]
	return r.vals[i], r.keys[i], true, nil
}

func (r *memSortRun) pop() error    { r.pos++; return nil }
func (r *memSortRun) startSeq() int { return r.seq }

// diskSortRun reads a merged run back from disk with one-record lookahead.
type diskSortRun struct {
	seq int
	rd  *spillReader
	cur *spillRec
	eof bool
}

func (r *diskSortRun) fill() error {
	if r.cur != nil || r.eof {
		return nil
	}
	rec, err := r.rd.next()
	if err != nil {
		return err
	}
	if rec == nil {
		r.eof = true
		r.rd.close()
		return nil
	}
	r.cur = rec
	return nil
}

func (r *diskSortRun) head() ([]dataset.Value, []dataset.Value, bool, error) {
	if err := r.fill(); err != nil {
		return nil, nil, false, err
	}
	if r.eof {
		return nil, nil, false, nil
	}
	return r.cur.A, r.cur.B, true, nil
}

func (r *diskSortRun) pop() error    { r.cur = nil; return nil }
func (r *diskSortRun) startSeq() int { return r.seq }

// extSorter accumulates sorted runs under the memory budget, merging the
// buffered runs into an on-disk run whenever the budget would overflow.
type extSorter struct {
	se      *streamExec
	op      string
	orderBy []OrderItem
	mem     []*memSortRun
	disk    []*diskSortRun
	total   int // rows across mem runs, the budget charge
}

func newExtSorter(se *streamExec, op string, orderBy []OrderItem) *extSorter {
	return &extSorter{se: se, op: op, orderBy: orderBy}
}

func (s *extSorter) lessKeys(a, b []dataset.Value) bool {
	for k, o := range s.orderBy {
		cmp := dataset.Compare(a[k], b[k])
		if cmp == 0 {
			continue
		}
		if o.Desc {
			return cmp > 0
		}
		return cmp < 0
	}
	return false
}

// addRun ingests one chunk's rows (in input order) as sequence seq. Rows are
// sorted stably within the run — order may carry a precomputed stable sort
// (from a pipeline worker); nil means sort here. Budget overflow triggers a
// spill of the buffered runs.
func (s *extSorter) addRun(seq int, vals, keys [][]dataset.Value, order []int) error {
	n := len(vals)
	if n == 0 {
		return nil
	}
	r := &memSortRun{seq: seq, vals: vals, keys: keys, order: order}
	if r.order == nil {
		r.order = sortIndexes(n, s.orderBy, func(row, k int) dataset.Value { return keys[row][k] })
	}
	if !s.se.tryBuffer(s.op, s.total+n) {
		if err := s.spillMemRuns(); err != nil {
			return err
		}
		if !s.se.tryBuffer(s.op, n) {
			// One chunk alone exceeds the budget: write it straight to disk
			// as its own run rather than failing.
			s.mem = append(s.mem, r)
			s.total = n
			return s.spillMemRuns()
		}
	}
	s.mem = append(s.mem, r)
	s.total += n
	return nil
}

// spillMemRuns merges every buffered in-memory run (a contiguous sequence
// range) into one on-disk run and resets the budget charge.
func (s *extSorter) spillMemRuns() error {
	if len(s.mem) == 0 {
		return nil
	}
	w, err := s.se.newSpillWriter(s.op)
	if err != nil {
		return err
	}
	srcs := make([]sortedSource, len(s.mem))
	startSeq := s.mem[0].seq
	for i, r := range s.mem {
		if r.seq < startSeq {
			startSeq = r.seq
		}
		srcs[i] = r
	}
	for {
		vals, keys, ok, err := s.mergeStep(srcs)
		if err != nil {
			w.abort()
			return err
		}
		if !ok {
			break
		}
		if err := w.write(&spillRec{Seq: startSeq, A: vals, B: keys}); err != nil {
			w.abort()
			return err
		}
	}
	run, err := w.finish()
	if err != nil {
		return err
	}
	rd, err := run.open()
	if err != nil {
		return err
	}
	s.disk = append(s.disk, &diskSortRun{seq: startSeq, rd: rd})
	s.mem = nil
	s.total = 0
	return s.se.buffer(s.op, 0)
}

// mergeStep pops the globally-least row across sources. Strictly-less
// replacement with the earliest startSeq winning ties preserves input order
// the way a global stable sort does.
func (s *extSorter) mergeStep(srcs []sortedSource) ([]dataset.Value, []dataset.Value, bool, error) {
	best := -1
	var bestKeys []dataset.Value
	for i, src := range srcs {
		_, keys, ok, err := src.head()
		if err != nil {
			return nil, nil, false, err
		}
		if !ok {
			continue
		}
		if best < 0 || s.lessKeys(keys, bestKeys) ||
			(!s.lessKeys(bestKeys, keys) && srcs[i].startSeq() < srcs[best].startSeq()) {
			best, bestKeys = i, keys
		}
	}
	if best < 0 {
		return nil, nil, false, nil
	}
	vals, keys, _, err := srcs[best].head()
	if err != nil {
		return nil, nil, false, err
	}
	if err := srcs[best].pop(); err != nil {
		return nil, nil, false, err
	}
	return vals, keys, true, nil
}

// sources returns the final merge set: disk runs plus surviving mem runs.
func (s *extSorter) sources() []sortedSource {
	srcs := make([]sortedSource, 0, len(s.disk)+len(s.mem))
	for _, d := range s.disk {
		srcs = append(srcs, d)
	}
	for _, m := range s.mem {
		srcs = append(srcs, m)
	}
	return srcs
}

// rows returns the final merge as a row source, in sorted order.
func (s *extSorter) rows() func() ([]dataset.Value, bool, error) {
	srcs := s.sources()
	return func() ([]dataset.Value, bool, error) {
		vals, _, ok, err := s.mergeStep(srcs)
		return vals, ok, err
	}
}
