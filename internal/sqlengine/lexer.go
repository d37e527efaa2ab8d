// Package sqlengine implements the SQL subset DataChat compiles skill DAGs
// into: SELECT with expressions, joins, grouping, having, ordering, limits,
// and subqueries in FROM. The engine executes against any Catalog of
// dataset.Tables and reports plan shape (query-block counts) so the DAG
// compiler's consolidation behaviour (paper §2.2, Figure 4) is observable.
//
// Statements run on the morsel pipeline (ExecStmt, ExecStreamStmt), checked
// against a row-at-a-time reference (Options.DisableVectorized): the pipeline
// answers every statement the reference answers with the same table, and
// fails every statement whose result needs a row the reference fails on. It
// may skip an expression on rows that cannot reach the result — rows with a
// null join key, rows past an early-stopping LIMIT — and so answer where the
// reference, having evaluated them, fails; it never raises an error the
// reference does not.
package sqlengine

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexer tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokOp
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

// lexer turns SQL text into tokens. Keywords are plain identifiers matched
// case-insensitively by the parser.
type lexer struct {
	src    string
	pos    int
	tokens []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.tokens = append(l.tokens, token{kind: tokEOF, pos: l.pos})
			return l.tokens, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case isIdentStart(rune(c)):
			l.lexIdent()
		case c >= '0' && c <= '9', c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
			l.lexNumber()
		case c == '\'':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case c == '"':
			if err := l.lexQuotedIdent(); err != nil {
				return nil, err
			}
		default:
			if !l.lexOp() {
				return nil, fmt.Errorf("sql: unexpected character %q at offset %d", c, start)
			}
		}
	}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		break
	}
}

func isIdentStart(r rune) bool { return unicode.IsLetter(r) || r == '_' }
func isDigit(c byte) bool      { return c >= '0' && c <= '9' }

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) {
		r := rune(l.src[l.pos])
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' {
			l.pos++
			continue
		}
		break
	}
	l.tokens = append(l.tokens, token{kind: tokIdent, text: l.src[start:l.pos], pos: start})
}

func (l *lexer) lexNumber() {
	start := l.pos
	seenDot, seenExp := false, false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case isDigit(c):
			l.pos++
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			l.pos++
		case (c == 'e' || c == 'E') && !seenExp && l.pos > start:
			seenExp = true
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
		default:
			l.tokens = append(l.tokens, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
			return
		}
	}
	l.tokens = append(l.tokens, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			l.tokens = append(l.tokens, token{kind: tokString, text: b.String(), pos: start})
			return nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("sql: unterminated string starting at offset %d", start)
}

func (l *lexer) lexQuotedIdent() error {
	start := l.pos
	l.pos++ // opening quote
	end := strings.IndexByte(l.src[l.pos:], '"')
	if end < 0 {
		return fmt.Errorf("sql: unterminated quoted identifier at offset %d", start)
	}
	l.tokens = append(l.tokens, token{kind: tokIdent, text: l.src[l.pos : l.pos+end], pos: start})
	l.pos += end + 1
	return nil
}

var twoCharOps = []string{"<=", ">=", "<>", "!=", "||"}

func (l *lexer) lexOp() bool {
	for _, op := range twoCharOps {
		if strings.HasPrefix(l.src[l.pos:], op) {
			l.tokens = append(l.tokens, token{kind: tokOp, text: op, pos: l.pos})
			l.pos += 2
			return true
		}
	}
	switch c := l.src[l.pos]; c {
	case '(', ')', ',', '*', '+', '-', '/', '%', '=', '<', '>', '.':
		l.tokens = append(l.tokens, token{kind: tokOp, text: string(c), pos: l.pos})
		l.pos++
		return true
	}
	return false
}
