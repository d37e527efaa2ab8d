// Package gel implements Guided English Language (§1, §2.3): the controlled
// natural language DataChat recipes are written in. It provides a parser
// from GEL text to skill invocations over the sentence forms each skill
// declares, friendly date/condition phrases, autocomplete for the console
// (Figure 3c), and the IDE-like recipe stepper with breakpoints (Figure 2a).
package gel

import (
	"strings"

	"datachat/internal/skills"
)

// pattern is one skill sentence form the parser matches.
type pattern struct {
	def  *skills.Definition
	form *skills.Form
}

// columnSlot reports whether a slot takes column names (for autocomplete).
func (p *pattern) columnSlot(slot string) bool {
	for _, param := range p.def.Params {
		if param.Name == slot {
			return param.Type == "column" || param.Type == "columns"
		}
	}
	return false
}

// tokenize splits a GEL sentence into tokens, keeping quoted strings
// together and treating commas as separators.
func tokenize(s string) []string {
	var tokens []string
	var cur strings.Builder
	inQuote := byte(0)
	flush := func() {
		if cur.Len() > 0 {
			tokens = append(tokens, cur.String())
			cur.Reset()
		}
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case inQuote != 0:
			cur.WriteByte(c)
			if c == inQuote {
				inQuote = 0
			}
		case c == '\'' || c == '"':
			inQuote = c
			cur.WriteByte(c)
		case c == ' ' || c == '\t':
			flush()
		case c == ',':
			flush()
			tokens = append(tokens, ",")
		default:
			cur.WriteByte(c)
		}
	}
	flush()
	return tokens
}

// unquote reads a word token back: one wrapped in matching quotes loses
// them, and its doubled inner quotes become single — the inverse of how
// RenderGEL quotes a value.
func unquote(tok string) string {
	if len(tok) >= 2 && (tok[0] == '\'' || tok[0] == '"') && tok[len(tok)-1] == tok[0] {
		q := tok[:1]
		return strings.ReplaceAll(tok[1:len(tok)-1], q+q, q)
	}
	return tok
}

// match attempts to bind the pattern against tokens, returning captured
// slot values. Lists absorb comma/"and"-separated tokens until the next
// literal matches; rest absorbs everything remaining.
func (p *pattern) match(tokens []string) (map[string]any, bool) {
	caps := map[string]any{}
	ti := 0
	for _, seg := range p.form.Segments() {
		switch {
		case seg.Literal != "":
			if ti >= len(tokens) || !strings.EqualFold(tokens[ti], seg.Literal) {
				return nil, false
			}
			ti++
		case seg.Kind == skills.SlotRest:
			if ti >= len(tokens) {
				return nil, false
			}
			caps[seg.Slot] = strings.Join(tokens[ti:], " ")
			ti = len(tokens)
		case seg.Kind == skills.SlotWord, seg.Kind == skills.SlotNumber:
			if ti >= len(tokens) || tokens[ti] == "," {
				return nil, false
			}
			if seg.Kind == skills.SlotNumber && !skills.IsNumberToken(tokens[ti]) {
				return nil, false
			}
			caps[seg.Slot] = unquote(tokens[ti])
			ti++
		case seg.Kind == skills.SlotList:
			var items []string
			for ti < len(tokens) && (seg.Next == "" || !strings.EqualFold(tokens[ti], seg.Next)) {
				tok := tokens[ti]
				ti++
				if tok == "," || strings.EqualFold(tok, "and") {
					continue
				}
				items = append(items, unquote(tok))
			}
			if len(items) == 0 {
				return nil, false
			}
			caps[seg.Slot] = items
		}
	}
	if ti != len(tokens) {
		return nil, false
	}
	return caps, true
}

// next returns the segment that continues the pattern once tokens consume
// a prefix of it; ok is false when they do not, or end inside free text.
func (p *pattern) next(tokens []string) (skills.Segment, bool) {
	ti := 0
	for _, seg := range p.form.Segments() {
		if ti >= len(tokens) {
			return seg, true
		}
		switch {
		case seg.Literal != "":
			if !strings.EqualFold(tokens[ti], seg.Literal) {
				return seg, false
			}
			ti++
		case seg.Kind == skills.SlotRest:
			return seg, false
		case seg.Kind == skills.SlotWord, seg.Kind == skills.SlotNumber:
			ti++
		case seg.Kind == skills.SlotList:
			for ti < len(tokens) && !strings.EqualFold(tokens[ti], seg.Next) {
				ti++
			}
		}
	}
	return skills.Segment{}, false
}
