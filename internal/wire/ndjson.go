package wire

import (
	"encoding/json"
	"math"
	"strconv"
	"time"
	"unicode/utf8"

	"datachat/internal/dataset"
)

// AppendRowChunk appends to dst the NDJSON line a row stream carries for rows
// [from, to) of t: the bytes json.Encoder writes for
// RowChunk{Offset: offset, Rows: EncodeRows(t, from, to)}, newline included,
// written straight from the columns' typed storage — no cell is boxed and
// nothing is reflected, so a stream can reuse one buffer for every chunk.
// JSON has no number for NaN or ±Inf: such a cell fails with the error
// encoding/json reports for it, and dst comes back unextended.
func AppendRowChunk(dst []byte, offset int, t *dataset.Table, from, to int) ([]byte, error) {
	start := len(dst)
	dst = append(dst, `{"offset":`...)
	dst = strconv.AppendInt(dst, int64(offset), 10)
	if to <= from {
		// EncodeRows gives an empty slice, which omitempty leaves out.
		return append(dst, "}\n"...), nil
	}
	cols := make([]cellWriter, t.NumCols())
	for j, c := range t.Columns() {
		cols[j] = newCellWriter(c)
	}
	dst = append(dst, `,"rows":[`...)
	for i := from; i < to; i++ {
		if i > from {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for j := range cols {
			if j > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = cols[j].append(dst, i); err != nil {
				return dst[:start], err
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, "]}\n"...), nil
}

// cellWriter is one column's typed storage, fetched once per chunk.
type cellWriter struct {
	typ   dataset.Type
	ints  []int64 // int values, or a time column's unix nanoseconds
	fls   []float64
	strs  []string
	bools []bool
	nulls []bool
}

func newCellWriter(c *dataset.Column) cellWriter {
	w := cellWriter{typ: c.Type(), nulls: c.Nulls()}
	switch w.typ {
	case dataset.TypeInt:
		w.ints, _, _ = c.Ints()
	case dataset.TypeTime:
		w.ints, _, _ = c.Times()
	case dataset.TypeFloat:
		w.fls, _, _ = c.FloatVals()
	case dataset.TypeString:
		w.strs, _, _ = c.Strs()
	case dataset.TypeBool:
		w.bools, _, _ = c.Bools()
	}
	return w
}

// append writes row i's cell the way encodeCell's value marshals.
func (w *cellWriter) append(dst []byte, i int) ([]byte, error) {
	if w.nulls != nil && w.nulls[i] {
		return append(dst, "null"...), nil
	}
	switch w.typ {
	case dataset.TypeInt:
		return strconv.AppendInt(dst, w.ints[i], 10), nil
	case dataset.TypeFloat:
		return appendFloat(dst, w.fls[i])
	case dataset.TypeString:
		return appendString(dst, w.strs[i]), nil
	case dataset.TypeBool:
		return strconv.AppendBool(dst, w.bools[i]), nil
	case dataset.TypeTime:
		dst = append(dst, '"')
		dst = time.Unix(0, w.ints[i]).UTC().AppendFormat(dst, time.RFC3339Nano)
		return append(dst, '"'), nil
	default:
		return append(dst, "null"...), nil
	}
}

// appendFloat formats f as encoding/json does: like ES6, 'e' notation below
// 1e-6 and from 1e21 on, with the exponent's leading zero dropped.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		_, err := json.Marshal(f) // the encoder's own UnsupportedValueError
		return dst, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	n0 := len(dst)
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n-n0 >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// htmlSafe marks the ASCII bytes a JSON string carries unescaped under
// json.Encoder's default HTML escaping.
var htmlSafe = func() (safe [utf8.RuneSelf]bool) {
	for b := byte(' '); b < utf8.RuneSelf; b++ {
		safe[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// appendString quotes s as encoding/json does with HTML escaping on: short
// escapes for \ " \b \f \n \r \t, \u00XX for other control bytes and < > &,
// \ufffd for each invalid UTF-8 byte, and U+2028/U+2029 as \u2028/\u2029.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
