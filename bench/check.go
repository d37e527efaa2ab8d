package main

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"datachat/internal/dataset"
	"datachat/internal/sqlengine"
	"datachat/internal/wire"
)

// hasher folds a table's cells, in row order, into one order-sensitive
// checksum (FNV-1a over each cell's wire text, with cell and row separators).
// The generator feeds it the cells it expects; the client feeds it the cells
// it decoded; equal sums mean equal pages.
type hasher struct {
	h   uint64 // 0 until the first cell: the zero hasher is ready to use
	buf [40]byte
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	cellEnd   = 0x1f
	rowEnd    = 0x1e
)

// fold mixes text and then the separator end into the running hash.
func fold[T string | []byte](h *hasher, text T, end byte) {
	x := h.h
	if x == 0 {
		x = fnvOffset
	}
	for i := 0; i < len(text); i++ {
		x = (x ^ uint64(text[i])) * fnvPrime
	}
	h.h = (x ^ uint64(end)) * fnvPrime
}

func (h *hasher) str(s string) { fold(h, s, cellEnd) }

func (h *hasher) int(v int64) { fold(h, strconv.AppendInt(h.buf[:0], v, 10), cellEnd) }

// label hashes a cell like "g7" or "c412" without building the string.
func (h *hasher) label(prefix byte, v int64) {
	h.buf[0] = prefix
	fold(h, strconv.AppendInt(h.buf[:1], v, 10), cellEnd)
}

// time hashes a whole-second timestamp the way the wire encodes time cells.
func (h *hasher) time(unix int64) {
	fold(h, time.Unix(unix, 0).UTC().AppendFormat(h.buf[:0], time.RFC3339Nano), cellEnd)
}

func (h *hasher) null() { fold(h, "\x00", cellEnd) }

func (h *hasher) endRow() { fold(h, "", rowEnd) }

func (h *hasher) sum() uint64 { return h.h }

// wireRows folds decoded wire rows into h. Cells arrive from wire.DecodeJSON
// as json.Number, string, bool or nil.
func (h *hasher) wireRows(rows [][]any) error {
	for _, row := range rows {
		for _, cell := range row {
			switch c := cell.(type) {
			case json.Number:
				h.str(string(c))
			case string:
				h.str(c)
			case nil:
				h.null()
			case bool:
				h.str(strconv.FormatBool(c))
			default:
				return fmt.Errorf("unexpected %T cell in a wire row", cell)
			}
		}
		h.endRow()
	}
	return nil
}

// checkPage compares one response table with what the generator expected.
func checkPage(t *wire.Table, want expectation) error {
	if t == nil {
		return fmt.Errorf("response carries no table")
	}
	if t.TotalRows != want.rows {
		return fmt.Errorf("result has %d rows, want %d", t.TotalRows, want.rows)
	}
	var h hasher
	if err := h.wireRows(t.Rows); err != nil {
		return err
	}
	if h.sum() != want.sum {
		return fmt.Errorf("checksum of the %d inlined rows is %x, want %x", len(t.Rows), h.sum(), want.sum)
	}
	return nil
}

// referenceCheck compares a response page cell for cell with the row-at-a-time
// reference engine running sql over the benchmark's own copy of the facts
// table. It runs once per step shape, after the timed window.
func referenceCheck(catalog sqlengine.Catalog, sql string, got *wire.Table) error {
	stmt, err := sqlengine.Parse(sql)
	if err != nil {
		return fmt.Errorf("reference %q: %w", sql, err)
	}
	ref, err := sqlengine.ExecStmtOptions(catalog, stmt, sqlengine.Options{DisableVectorized: true})
	if err != nil {
		return fmt.Errorf("reference %q: %w", sql, err)
	}
	if got.TotalRows != ref.NumRows() {
		return fmt.Errorf("reference %q: response has %d rows, reference %d", sql, got.TotalRows, ref.NumRows())
	}
	page, err := got.Decode()
	if err != nil {
		return fmt.Errorf("reference %q: decoding the response: %w", sql, err)
	}
	want := ref.Head(page.NumRows())
	if page.NumCols() != want.NumCols() {
		return fmt.Errorf("reference %q: response has columns %v, reference %v", sql, page.ColumnNames(), want.ColumnNames())
	}
	for c, col := range want.Columns() {
		if name := page.Columns()[c].Name(); name != col.Name() {
			return fmt.Errorf("reference %q: column %d is %q, reference %q", sql, c, name, col.Name())
		}
		for r := 0; r < want.NumRows(); r++ {
			if a, b := page.Columns()[c].Value(r), col.Value(r); !dataset.Equal(a, b) {
				return fmt.Errorf("reference %q: cell (%d,%s) is %v, reference %v", sql, r, col.Name(), a, b)
			}
		}
	}
	return nil
}
