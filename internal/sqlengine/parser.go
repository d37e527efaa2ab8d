package sqlengine

import (
	"fmt"
	"strconv"
	"strings"

	"datachat/internal/dataset"
	"datachat/internal/expr"
)

// Parse parses a single SELECT statement.
func Parse(src string) (*SelectStmt, error) {
	tokens, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{tokens: tokens}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, fmt.Errorf("sql: unexpected trailing input %q", p.peek().text)
	}
	return stmt, nil
}

// ParseExpr parses a standalone scalar expression (used by skills and GEL
// filter phrases).
func ParseExpr(src string) (expr.Expr, error) {
	tokens, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{tokens: tokens}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, fmt.Errorf("sql: unexpected trailing input %q", p.peek().text)
	}
	return e, nil
}

type parser struct {
	tokens []token
	i      int
}

func (p *parser) peek() token { return p.tokens[p.i] }
func (p *parser) next() token { t := p.tokens[p.i]; p.i++; return t }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }

// keyword reports whether the next token is the given keyword (case-insensitive).
func (p *parser) keyword(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

// acceptKeyword consumes the keyword if present.
func (p *parser) acceptKeyword(kw string) bool {
	if p.keyword(kw) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("sql: expected %s, found %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) acceptOp(op string) bool {
	t := p.peek()
	if t.kind == tokOp && t.text == op {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return fmt.Errorf("sql: expected %q, found %q", op, p.peek().text)
	}
	return nil
}

// reservedAfterExpr lists keywords that terminate clauses; identifiers equal
// to these are never treated as aliases.
var reservedAfterExpr = map[string]bool{
	"FROM": true, "WHERE": true, "GROUP": true, "HAVING": true, "ORDER": true,
	"LIMIT": true, "OFFSET": true, "JOIN": true, "LEFT": true, "INNER": true,
	"CROSS": true, "ON": true, "AND": true, "OR": true, "NOT": true, "AS": true,
	"ASC": true, "DESC": true, "UNION": true, "BY": true, "IN": true,
	"BETWEEN": true, "LIKE": true, "IS": true, "NULL": true, "DISTINCT": true,
	"CASE": true, "WHEN": true, "THEN": true, "ELSE": true, "END": true,
	"SELECT": true,
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1}
	stmt.Distinct = p.acceptKeyword("DISTINCT")
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKeyword("FROM") {
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		stmt.From = ref
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, e)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = e
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		n, err := p.parseIntLiteral()
		if err != nil {
			return nil, err
		}
		stmt.Limit = n
	}
	if p.acceptKeyword("OFFSET") {
		n, err := p.parseIntLiteral()
		if err != nil {
			return nil, err
		}
		stmt.Offset = n
	}
	return stmt, nil
}

func (p *parser) parseIntLiteral() (int, error) {
	t := p.peek()
	if t.kind != tokNumber {
		return 0, fmt.Errorf("sql: expected integer, found %q", t.text)
	}
	p.i++
	n, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, fmt.Errorf("sql: invalid integer %q", t.text)
	}
	return n, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.acceptOp("*") {
		return SelectItem{Star: true}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		t := p.peek()
		if t.kind != tokIdent {
			return SelectItem{}, fmt.Errorf("sql: expected alias after AS, found %q", t.text)
		}
		p.i++
		item.Alias = t.text
	} else if t := p.peek(); t.kind == tokIdent && !reservedAfterExpr[strings.ToUpper(t.text)] {
		p.i++
		item.Alias = t.text
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	left, err := p.parsePrimaryRef()
	if err != nil {
		return nil, err
	}
	for {
		var kind JoinKind
		switch {
		case p.acceptKeyword("JOIN"):
			kind = InnerJoin
		case p.keyword("INNER"):
			p.i++
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			kind = InnerJoin
		case p.keyword("LEFT"):
			p.i++
			p.acceptKeyword("OUTER")
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			kind = LeftJoin
		case p.keyword("CROSS"):
			p.i++
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			kind = CrossJoin
		default:
			return left, nil
		}
		right, err := p.parsePrimaryRef()
		if err != nil {
			return nil, err
		}
		join := &Join{Kind: kind, Left: left, Right: right}
		if kind != CrossJoin {
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			join.On = on
		}
		left = join
	}
}

func (p *parser) parsePrimaryRef() (TableRef, error) {
	if p.acceptOp("(") {
		stmt, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		sub := &Subquery{Stmt: stmt}
		sub.Alias, err = p.parseOptionalAlias()
		return sub, err
	}
	t := p.peek()
	if t.kind != tokIdent {
		return nil, fmt.Errorf("sql: expected table name, found %q", t.text)
	}
	p.i++
	ref := &BaseTable{Name: t.text}
	alias, err := p.parseOptionalAlias()
	if alias == "" {
		alias = ref.Name
	}
	ref.Alias = alias
	return ref, err
}

func (p *parser) parseOptionalAlias() (string, error) {
	if p.acceptKeyword("AS") {
		if t := p.peek(); t.kind != tokIdent {
			return "", fmt.Errorf("sql: expected alias after AS, found %q", t.text)
		}
		return p.next().text, nil
	}
	if t := p.peek(); t.kind == tokIdent && !reservedAfterExpr[strings.ToUpper(t.text)] {
		p.i++
		return t.text, nil
	}
	return "", nil
}

// ---- expression parsing ----

func (p *parser) parseExpr() (expr.Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (expr.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = expr.Bin(expr.OpOr, left, right)
	}
	return left, nil
}

func (p *parser) parseAnd() (expr.Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = expr.Bin(expr.OpAnd, left, right)
	}
	return left, nil
}

func (p *parser) parseNot() (expr.Expr, error) {
	if p.acceptKeyword("NOT") {
		operand, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return expr.Not(operand), nil
	}
	return p.parseComparison()
}

var comparisonOps = map[string]expr.BinOp{
	"=": expr.OpEq, "<>": expr.OpNe, "!=": expr.OpNe,
	"<": expr.OpLt, "<=": expr.OpLe, ">": expr.OpGt, ">=": expr.OpGe,
}

func (p *parser) parseComparison() (expr.Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokOp {
			if op, ok := comparisonOps[t.text]; ok {
				p.i++
				right, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				left = expr.Bin(op, left, right)
				continue
			}
		}
		negated := false
		save := p.i
		if p.acceptKeyword("NOT") {
			negated = true
		}
		switch {
		case p.acceptKeyword("LIKE"):
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			like := expr.Bin(expr.OpLike, left, right)
			if negated {
				left = expr.Not(like)
			} else {
				left = like
			}
		case p.acceptKeyword("IN"):
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			var list []expr.Expr
			for {
				item, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				list = append(list, item)
				if !p.acceptOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			left = &expr.In{Operand: left, List: list, Negated: negated}
		case p.acceptKeyword("BETWEEN"):
			lo, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AND"); err != nil {
				return nil, err
			}
			hi, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			left = &expr.Between{Operand: left, Lo: lo, Hi: hi, Negated: negated}
		case !negated && p.acceptKeyword("IS"):
			isNot := p.acceptKeyword("NOT")
			if err := p.expectKeyword("NULL"); err != nil {
				return nil, err
			}
			left = &expr.IsNull{Operand: left, Negated: isNot}
		default:
			if negated {
				p.i = save
			}
			return left, nil
		}
	}
}

func (p *parser) parseAdditive() (expr.Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptOp("+"):
			right, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = expr.Bin(expr.OpAdd, left, right)
		case p.acceptOp("-"):
			right, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = expr.Bin(expr.OpSub, left, right)
		case p.acceptOp("||"):
			right, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = expr.Bin(expr.OpConcat, left, right)
		default:
			return left, nil
		}
	}
}

func (p *parser) parseMultiplicative() (expr.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptOp("*"):
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = expr.Bin(expr.OpMul, left, right)
		case p.acceptOp("/"):
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = expr.Bin(expr.OpDiv, left, right)
		case p.acceptOp("%"):
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = expr.Bin(expr.OpMod, left, right)
		default:
			return left, nil
		}
	}
}

func (p *parser) parseUnary() (expr.Expr, error) {
	if p.acceptOp("-") {
		operand, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return expr.Neg(operand), nil
	}
	p.acceptOp("+")
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (expr.Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.i++
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, fmt.Errorf("sql: invalid number %q", t.text)
			}
			return expr.Lit(dataset.Float(f)), nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sql: invalid number %q", t.text)
		}
		return expr.Lit(dataset.Int(n)), nil
	case tokString:
		p.i++
		return expr.Lit(dataset.Str(t.text)), nil
	case tokOp:
		if t.text == "(" {
			p.i++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, fmt.Errorf("sql: unexpected token %q in expression", t.text)
	case tokIdent:
		return p.parseIdentExpr()
	default:
		return nil, fmt.Errorf("sql: unexpected end of input in expression")
	}
}

func (p *parser) parseIdentExpr() (expr.Expr, error) {
	t := p.next()
	upper := strings.ToUpper(t.text)
	switch upper {
	case "NULL":
		return expr.Lit(dataset.Null), nil
	case "TRUE":
		return expr.Lit(dataset.Bool(true)), nil
	case "FALSE":
		return expr.Lit(dataset.Bool(false)), nil
	case "CASE":
		return p.parseCase()
	case "CAST":
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		operand, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AS"); err != nil {
			return nil, err
		}
		typeTok := p.next()
		if typeTok.kind != tokIdent {
			return nil, fmt.Errorf("sql: expected type name in CAST, found %q", typeTok.text)
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return expr.Func("CAST", operand, expr.Lit(dataset.Str(typeTok.text))), nil
	}
	if reservedAfterExpr[upper] {
		return nil, fmt.Errorf("sql: unexpected keyword %q in expression", t.text)
	}
	// Function call or aggregate?
	if p.acceptOp("(") {
		if aggregateNames[upper] {
			return p.parseAggTail(upper)
		}
		if _, known := expr.ScalarFuncs[upper]; !known {
			return nil, fmt.Errorf("sql: unknown function %q", t.text)
		}
		var args []expr.Expr
		if !p.acceptOp(")") {
			for {
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, arg)
				if !p.acceptOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
		}
		return expr.Func(upper, args...), nil
	}
	// Qualified column reference: ident(.ident)*
	name := t.text
	for p.acceptOp(".") {
		part := p.next()
		if part.kind != tokIdent {
			return nil, fmt.Errorf("sql: expected identifier after '.', found %q", part.text)
		}
		name += "." + part.text
	}
	return expr.Column(name), nil
}

func (p *parser) parseAggTail(name string) (expr.Expr, error) {
	agg := &AggCall{Name: name}
	if p.acceptOp("*") {
		if name != "COUNT" {
			return nil, fmt.Errorf("sql: %s(*) is not valid; only COUNT(*)", name)
		}
		agg.Star = true
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return agg, nil
	}
	agg.Distinct = p.acceptKeyword("DISTINCT")
	arg, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	agg.Arg = arg
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return agg, nil
}

// parseCase parses a searched CASE expression; the CASE keyword has been
// consumed.
func (p *parser) parseCase() (expr.Expr, error) {
	c := &expr.Case{}
	for p.acceptKeyword("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		result, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, expr.When{Cond: cond, Result: result})
	}
	if len(c.Whens) == 0 {
		return nil, fmt.Errorf("sql: CASE requires at least one WHEN arm")
	}
	if p.acceptKeyword("ELSE") {
		alt, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = alt
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return c, nil
}
