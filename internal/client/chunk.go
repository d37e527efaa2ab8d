package client

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"unicode/utf8"

	"datachat/internal/wire"
)

// rowChunkDecoder decodes the data lines of one row stream without
// reflection. It takes exactly the compact form the server writes,
// {"offset":N,"rows":[[…],…]}, and yields what wire.DecodeJSON would: cells
// are json.Number, string, bool or nil. The numbers and the strings without
// escapes are substrings of one copy of the line, and every row's cells are a
// window of one slice per chunk, so a chunk's rows stay valid however many
// chunks follow. It declines anything else — a header, a sentinel, a board
// event, whitespace, a nested value, any malformation — for the caller to hand
// to wire.DecodeJSON.
type rowChunkDecoder struct {
	ends  []int // scratch: where each row's cells end
	cells int   // the previous chunk's cell count, to size the next
}

const chunkHead = `{"offset":`

// decode returns line's chunk, or ok false when it declines the line.
func (d *rowChunkDecoder) decode(line []byte) (rc wire.RowChunk, ok bool) {
	if !bytes.HasPrefix(line, []byte(chunkHead)) {
		return wire.RowChunk{}, false
	}
	p := chunkParser{s: string(line), i: len(chunkHead)}
	start := p.i
	if !p.integer() {
		return wire.RowChunk{}, false
	}
	offset, err := strconv.Atoi(p.s[start:p.i])
	if err != nil || !p.literal(`,"rows":[`) {
		return wire.RowChunk{}, false
	}
	cells := make([]any, 0, max(d.cells, 64))
	d.ends = d.ends[:0]
	ok = p.list(func() bool {
		if !p.char('[') {
			return false
		}
		ok := p.list(func() bool {
			cell, ok := p.cell()
			cells = append(cells, cell)
			return ok
		})
		d.ends = append(d.ends, len(cells))
		return ok
	})
	if !ok || !p.char('}') || p.i != len(p.s) {
		return wire.RowChunk{}, false
	}
	rows := make([][]any, len(d.ends))
	from := 0
	for r, end := range d.ends {
		rows[r] = cells[from:end:end]
		from = end
	}
	d.cells = len(cells)
	return wire.RowChunk{Offset: offset, Rows: rows}, true
}

// chunkParser walks one line; every method advances past what it accepts
// and reports false, leaving the line declined, on anything else.
type chunkParser struct {
	s string
	i int
}

func (p *chunkParser) literal(lit string) bool {
	if !strings.HasPrefix(p.s[p.i:], lit) {
		return false
	}
	p.i += len(lit)
	return true
}

func (p *chunkParser) char(c byte) bool {
	if p.i == len(p.s) || p.s[p.i] != c {
		return false
	}
	p.i++
	return true
}

// list accepts the rest of an array whose '[' is behind: elements, each
// accepted by elem, separated by commas, then ']'.
func (p *chunkParser) list(elem func() bool) bool {
	if p.char(']') {
		return true
	}
	for elem() {
		if p.char(']') {
			return true
		}
		if !p.char(',') {
			return false
		}
	}
	return false
}

func (p *chunkParser) digits() int {
	n := 0
	for p.i < len(p.s) && '0' <= p.s[p.i] && p.s[p.i] <= '9' {
		p.i++
		n++
	}
	return n
}

// integer accepts JSON's integer syntax: -?(0|[1-9][0-9]*).
func (p *chunkParser) integer() bool {
	p.char('-')
	if p.char('0') {
		return true
	}
	return p.digits() > 0
}

// number accepts a JSON number: an integer, then an optional fraction and
// exponent.
func (p *chunkParser) number() bool {
	if !p.integer() {
		return false
	}
	if p.char('.') && p.digits() == 0 {
		return false
	}
	if p.char('e') || p.char('E') {
		_ = p.char('+') || p.char('-')
		return p.digits() > 0
	}
	return true
}

// cell accepts one scalar cell.
func (p *chunkParser) cell() (any, bool) {
	if p.i == len(p.s) {
		return nil, false
	}
	switch c := p.s[p.i]; {
	case c == '"':
		return p.str()
	case c == '-' || '0' <= c && c <= '9':
		start := p.i
		if !p.number() {
			return nil, false
		}
		return json.Number(p.s[start:p.i]), true
	case p.literal("true"):
		return true, true
	case p.literal("false"):
		return false, true
	case p.literal("null"):
		return nil, true
	}
	return nil, false
}

// str accepts a string cell. One without escapes, in valid UTF-8, is its own
// substring of the line; any other goes through encoding/json, which applies
// the escapes and replaces invalid bytes exactly as the reference decode does.
func (p *chunkParser) str() (any, bool) {
	start := p.i
	plain := true
	for p.i++; p.i < len(p.s); p.i++ {
		switch c := p.s[p.i]; {
		case c == '"':
			p.i++
			raw := p.s[start:p.i]
			if plain {
				return raw[1 : len(raw)-1], true
			}
			var s string
			if err := json.Unmarshal([]byte(raw), &s); err != nil {
				return nil, false
			}
			return s, true
		case c == '\\':
			plain = false
			p.i++ // the escaped byte
		case c < ' ':
			return nil, false // JSON allows no raw control bytes
		case c >= utf8.RuneSelf && plain:
			r, size := utf8.DecodeRuneInString(p.s[p.i:])
			plain = r != utf8.RuneError || size > 1
			p.i += size - 1
		}
	}
	return nil, false
}
