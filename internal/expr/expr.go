// Package expr defines the scalar expression AST and evaluator shared by
// the SQL engine and the skill layer. Expressions are built either by the
// SQL parser or directly by skills (e.g. GEL filter phrases). Expr.Eval
// evaluates one row against an Env; Eval and Select are the one way an
// expression meets a Batch of rows — a typed kernel when the whole tree
// compiles, the row evaluator otherwise.
package expr

import (
	"fmt"
	"strings"

	"datachat/internal/dataset"
)

// Env resolves column references during evaluation.
type Env interface {
	// Lookup returns the value bound to name in the current row.
	Lookup(name string) (dataset.Value, error)
}

// MapEnv is an Env backed by a map; used in tests and for constant folding.
type MapEnv map[string]dataset.Value

// Lookup implements Env.
func (m MapEnv) Lookup(name string) (dataset.Value, error) {
	if v, ok := m[name]; ok {
		return v, nil
	}
	for k, v := range m {
		if strings.EqualFold(k, name) {
			return v, nil
		}
	}
	return dataset.Null, fmt.Errorf("expr: unknown column %q", name)
}

// Expr is a scalar expression node.
type Expr interface {
	// Eval computes the expression's value for the row bound in env.
	Eval(env Env) (dataset.Value, error)
	// String renders the expression in SQL-compatible syntax.
	String() string
	// Columns appends the column names the expression references.
	Columns(dst []string) []string
}

// Literal is a constant value.
type Literal struct{ Value dataset.Value }

// Lit builds a literal expression.
func Lit(v dataset.Value) *Literal { return &Literal{Value: v} }

// Eval implements Expr.
func (l *Literal) Eval(Env) (dataset.Value, error) { return l.Value, nil }

// String implements Expr.
func (l *Literal) String() string {
	switch l.Value.Type {
	case dataset.TypeString:
		return "'" + strings.ReplaceAll(l.Value.S, "'", "''") + "'"
	case dataset.TypeTime:
		return "'" + l.Value.String() + "'"
	case dataset.TypeNull:
		return "NULL"
	default:
		return l.Value.String()
	}
}

// Columns implements Expr.
func (l *Literal) Columns(dst []string) []string { return dst }

// Col is a column reference.
type Col struct{ Name string }

// Column builds a column reference expression.
func Column(name string) *Col { return &Col{Name: name} }

// Eval implements Expr.
func (c *Col) Eval(env Env) (dataset.Value, error) { return env.Lookup(c.Name) }

// String implements Expr.
func (c *Col) String() string {
	if needsQuoting(c.Name) {
		return `"` + c.Name + `"`
	}
	return c.Name
}

func needsQuoting(name string) bool {
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9' && i > 0:
		case r == '.' && i > 0:
		default:
			return true
		}
	}
	return name == ""
}

// Columns implements Expr.
func (c *Col) Columns(dst []string) []string { return append(dst, c.Name) }

// BinOp identifies a binary operator.
type BinOp int

// Binary operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpLike
	OpConcat
)

var binOpNames = map[BinOp]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR", OpLike: "LIKE", OpConcat: "||",
}

// String returns the SQL spelling of the operator.
func (op BinOp) String() string { return binOpNames[op] }

// Binary is a binary operation node.
type Binary struct {
	Op          BinOp
	Left, Right Expr
}

// Bin builds a binary expression.
func Bin(op BinOp, left, right Expr) *Binary { return &Binary{Op: op, Left: left, Right: right} }

// String implements Expr.
func (b *Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", b.Left.String(), b.Op, b.Right.String())
}

// Columns implements Expr.
func (b *Binary) Columns(dst []string) []string {
	return b.Right.Columns(b.Left.Columns(dst))
}

// Eval implements Expr with SQL three-valued null semantics: any null
// operand yields null, except AND/OR which short-circuit where determined.
func (b *Binary) Eval(env Env) (dataset.Value, error) {
	if b.Op == OpAnd || b.Op == OpOr {
		return b.evalLogical(env)
	}
	left, err := b.Left.Eval(env)
	if err != nil {
		return dataset.Null, err
	}
	right, err := b.Right.Eval(env)
	if err != nil {
		return dataset.Null, err
	}
	if left.IsNull() || right.IsNull() {
		return dataset.Null, nil
	}
	switch b.Op {
	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		return evalArith(b.Op, left, right)
	case OpEq:
		return dataset.Bool(dataset.Equal(left, right)), nil
	case OpNe:
		return dataset.Bool(!dataset.Equal(left, right)), nil
	case OpLt:
		return dataset.Bool(dataset.Compare(left, right) < 0), nil
	case OpLe:
		return dataset.Bool(dataset.Compare(left, right) <= 0), nil
	case OpGt:
		return dataset.Bool(dataset.Compare(left, right) > 0), nil
	case OpGe:
		return dataset.Bool(dataset.Compare(left, right) >= 0), nil
	case OpLike:
		return evalLike(left, right)
	case OpConcat:
		return dataset.Str(left.String() + right.String()), nil
	default:
		return dataset.Null, fmt.Errorf("expr: unsupported binary op %v", b.Op)
	}
}

func (b *Binary) evalLogical(env Env) (dataset.Value, error) {
	left, err := b.Left.Eval(env)
	if err != nil {
		return dataset.Null, err
	}
	lb, lok := asBool(left)
	if b.Op == OpAnd && lok && !lb {
		return dataset.Bool(false), nil
	}
	if b.Op == OpOr && lok && lb {
		return dataset.Bool(true), nil
	}
	right, err := b.Right.Eval(env)
	if err != nil {
		return dataset.Null, err
	}
	rb, rok := asBool(right)
	switch b.Op {
	case OpAnd:
		switch {
		case lok && rok:
			return dataset.Bool(lb && rb), nil
		case rok && !rb:
			return dataset.Bool(false), nil
		default:
			return dataset.Null, nil
		}
	default: // OpOr
		switch {
		case lok && rok:
			return dataset.Bool(lb || rb), nil
		case rok && rb:
			return dataset.Bool(true), nil
		default:
			return dataset.Null, nil
		}
	}
}

func asBool(v dataset.Value) (bool, bool) {
	switch v.Type {
	case dataset.TypeBool:
		return v.B, true
	case dataset.TypeInt:
		return v.I != 0, true
	case dataset.TypeFloat:
		return v.F != 0, true
	default:
		return false, false
	}
}

func evalArith(op BinOp, left, right dataset.Value) (dataset.Value, error) {
	lf, lok := left.AsFloat()
	rf, rok := right.AsFloat()
	if !lok || !rok {
		if op == OpAdd && (left.Type == dataset.TypeString || right.Type == dataset.TypeString) {
			return dataset.Str(left.String() + right.String()), nil
		}
		return dataset.Null, fmt.Errorf("expr: cannot apply %v to %v and %v", op, left.Type, right.Type)
	}
	bothInt := left.Type == dataset.TypeInt && right.Type == dataset.TypeInt
	switch op {
	case OpAdd:
		if bothInt {
			return dataset.Int(left.I + right.I), nil
		}
		return dataset.Float(lf + rf), nil
	case OpSub:
		if bothInt {
			return dataset.Int(left.I - right.I), nil
		}
		return dataset.Float(lf - rf), nil
	case OpMul:
		if bothInt {
			return dataset.Int(left.I * right.I), nil
		}
		return dataset.Float(lf * rf), nil
	case OpDiv:
		if rf == 0 {
			return dataset.Null, nil
		}
		return dataset.Float(lf / rf), nil
	case OpMod:
		if !bothInt || right.I == 0 {
			return dataset.Null, nil
		}
		return dataset.Int(left.I % right.I), nil
	}
	return dataset.Null, fmt.Errorf("expr: unsupported arithmetic op %v", op)
}

// evalLike implements SQL LIKE with % and _ wildcards, case-insensitively
// (matching the forgiving behaviour of the DataChat UI).
func evalLike(left, right dataset.Value) (dataset.Value, error) {
	p := compileLikePattern(right.String())
	return dataset.Bool(p.match(left.String())), nil
}

// likeKind classifies a LIKE pattern by the cheapest matcher that decides it.
type likeKind int

const (
	likeExact    likeKind = iota // no '%'; '_' wildcards allowed (fixed length)
	likePrefix                   // lit%
	likeSuffix                   // %lit
	likeContains                 // %lit%
	likeSegments                 // only '%' wildcards, several literal segments
	likeGeneral                  // '%' and '_' mixed: dynamic-programming match
)

// likePattern is a LIKE pattern compiled once: the pattern is lowered a
// single time and classified so the common shapes (exact, prefix%, %suffix,
// %contains%, and multi-segment %-only patterns) match without allocating.
// Only likeGeneral still runs the DP table.
type likePattern struct {
	kind       likeKind
	lit        string   // lowered literal for exact/prefix/suffix/contains
	segs       []string // lowered middle segments for likeSegments
	anchorHead bool     // likeSegments: pattern does not start with '%'
	anchorTail bool     // likeSegments: pattern does not end with '%'
	lowered    string   // lowered whole pattern for likeGeneral
}

// compileLikePattern lowers and classifies pattern.
func compileLikePattern(pattern string) *likePattern {
	lowered := strings.ToLower(pattern)
	hasPct := strings.IndexByte(lowered, '%') >= 0
	hasUnd := strings.IndexByte(lowered, '_') >= 0
	switch {
	case !hasPct:
		return &likePattern{kind: likeExact, lit: lowered}
	case hasUnd:
		return &likePattern{kind: likeGeneral, lowered: lowered}
	}
	segs := strings.Split(lowered, "%")
	head, tail := segs[0] != "", segs[len(segs)-1] != ""
	var mid []string
	for _, s := range segs {
		if s != "" {
			mid = append(mid, s)
		}
	}
	switch {
	case len(mid) == 0: // all wildcards: matches everything
		return &likePattern{kind: likeContains, lit: ""}
	case len(mid) == 1 && head && !tail:
		return &likePattern{kind: likePrefix, lit: mid[0]}
	case len(mid) == 1 && !head && tail:
		return &likePattern{kind: likeSuffix, lit: mid[0]}
	case len(mid) == 1:
		return &likePattern{kind: likeContains, lit: mid[0]}
	default:
		return &likePattern{kind: likeSegments, segs: mid, anchorHead: head, anchorTail: tail}
	}
}

// match reports whether s matches the pattern, case-insensitively. ASCII
// inputs fold byte-wise with no allocation; non-ASCII inputs lower once so
// results agree with the byte-DP over two ToLower'd strings.
func (p *likePattern) match(s string) bool {
	if p.kind == likeGeneral {
		return likeMatch(strings.ToLower(s), p.lowered)
	}
	if !isASCII(s) {
		s = strings.ToLower(s)
	}
	switch p.kind {
	case likeExact:
		return foldEqualWild(s, p.lit)
	case likePrefix:
		return foldHasPrefix(s, p.lit)
	case likeSuffix:
		return foldHasSuffix(s, p.lit)
	case likeContains:
		return foldIndex(s, p.lit) >= 0
	default: // likeSegments
		if p.anchorHead {
			if !foldHasPrefix(s, p.segs[0]) {
				return false
			}
			s = s[len(p.segs[0]):]
		}
		segs := p.segs
		if p.anchorHead {
			segs = segs[1:]
		}
		if p.anchorTail {
			last := segs[len(segs)-1]
			if !foldHasSuffix(s, last) {
				return false
			}
			s = s[:len(s)-len(last)]
			segs = segs[:len(segs)-1]
		}
		for _, seg := range segs {
			i := foldIndex(s, seg)
			if i < 0 {
				return false
			}
			s = s[i+len(seg):]
		}
		return true
	}
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// foldByte lowers an ASCII byte; non-ASCII bytes (and already-lowered
// input) pass through unchanged, so folding a ToLower'd string is identity.
func foldByte(b byte) byte {
	if 'A' <= b && b <= 'Z' {
		return b + 32
	}
	return b
}

// foldEqualWild compares s against an already-lowered fixed-length pattern
// where '_' matches any single byte.
func foldEqualWild(s, pat string) bool {
	if len(s) != len(pat) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if pat[i] != '_' && foldByte(s[i]) != pat[i] {
			return false
		}
	}
	return true
}

func foldEqual(s, pat string) bool {
	if len(s) != len(pat) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if foldByte(s[i]) != pat[i] {
			return false
		}
	}
	return true
}

func foldHasPrefix(s, pat string) bool {
	return len(s) >= len(pat) && foldEqual(s[:len(pat)], pat)
}

func foldHasSuffix(s, pat string) bool {
	return len(s) >= len(pat) && foldEqual(s[len(s)-len(pat):], pat)
}

func foldIndex(s, pat string) int {
	if pat == "" {
		return 0
	}
	for i := 0; i+len(pat) <= len(s); i++ {
		if foldEqual(s[i:i+len(pat)], pat) {
			return i
		}
	}
	return -1
}

// likeMatch is the general matcher for patterns mixing '%' and '_': a
// byte-wise dynamic program over the two lowered strings. It is the
// reference the fast paths above must agree with (see the property test).
func likeMatch(s, pattern string) bool {
	// Dynamic-programming match over bytes; patterns are short.
	m, n := len(s), len(pattern)
	prev := make([]bool, m+1)
	cur := make([]bool, m+1)
	prev[0] = true
	for j := 1; j <= n; j++ {
		p := pattern[j-1]
		cur[0] = prev[0] && p == '%'
		for i := 1; i <= m; i++ {
			switch p {
			case '%':
				cur[i] = cur[i-1] || prev[i]
			case '_':
				cur[i] = prev[i-1]
			default:
				cur[i] = prev[i-1] && s[i-1] == p
			}
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

// Unary is a unary operation: NOT or numeric negation.
type Unary struct {
	Negate  bool // true for numeric -, false for logical NOT
	Operand Expr
}

// Not builds a logical negation.
func Not(operand Expr) *Unary { return &Unary{Negate: false, Operand: operand} }

// Neg builds a numeric negation.
func Neg(operand Expr) *Unary { return &Unary{Negate: true, Operand: operand} }

// Eval implements Expr.
func (u *Unary) Eval(env Env) (dataset.Value, error) {
	v, err := u.Operand.Eval(env)
	if err != nil {
		return dataset.Null, err
	}
	if v.IsNull() {
		return dataset.Null, nil
	}
	if u.Negate {
		switch v.Type {
		case dataset.TypeInt:
			return dataset.Int(-v.I), nil
		case dataset.TypeFloat:
			return dataset.Float(-v.F), nil
		default:
			return dataset.Null, fmt.Errorf("expr: cannot negate %v", v.Type)
		}
	}
	b, ok := asBool(v)
	if !ok {
		return dataset.Null, fmt.Errorf("expr: NOT applied to %v", v.Type)
	}
	return dataset.Bool(!b), nil
}

// String implements Expr.
func (u *Unary) String() string {
	if u.Negate {
		return "(-" + u.Operand.String() + ")"
	}
	return "(NOT " + u.Operand.String() + ")"
}

// Columns implements Expr.
func (u *Unary) Columns(dst []string) []string { return u.Operand.Columns(dst) }

// IsNull tests a value for (non-)nullness.
type IsNull struct {
	Operand Expr
	Negated bool // IS NOT NULL
}

// Eval implements Expr.
func (e *IsNull) Eval(env Env) (dataset.Value, error) {
	v, err := e.Operand.Eval(env)
	if err != nil {
		return dataset.Null, err
	}
	return dataset.Bool(v.IsNull() != e.Negated), nil
}

// String implements Expr.
func (e *IsNull) String() string {
	if e.Negated {
		return "(" + e.Operand.String() + " IS NOT NULL)"
	}
	return "(" + e.Operand.String() + " IS NULL)"
}

// Columns implements Expr.
func (e *IsNull) Columns(dst []string) []string { return e.Operand.Columns(dst) }

// In tests membership in a literal list.
type In struct {
	Operand Expr
	List    []Expr
	Negated bool
}

// Eval implements Expr.
func (e *In) Eval(env Env) (dataset.Value, error) {
	v, err := e.Operand.Eval(env)
	if err != nil {
		return dataset.Null, err
	}
	if v.IsNull() {
		return dataset.Null, nil
	}
	sawNull := false
	for _, item := range e.List {
		iv, err := item.Eval(env)
		if err != nil {
			return dataset.Null, err
		}
		if iv.IsNull() {
			sawNull = true
			continue
		}
		if dataset.Equal(v, iv) {
			return dataset.Bool(!e.Negated), nil
		}
	}
	if sawNull {
		return dataset.Null, nil
	}
	return dataset.Bool(e.Negated), nil
}

// String implements Expr.
func (e *In) String() string {
	items := make([]string, len(e.List))
	for i, item := range e.List {
		items[i] = item.String()
	}
	op := "IN"
	if e.Negated {
		op = "NOT IN"
	}
	return fmt.Sprintf("(%s %s (%s))", e.Operand.String(), op, strings.Join(items, ", "))
}

// Columns implements Expr.
func (e *In) Columns(dst []string) []string {
	dst = e.Operand.Columns(dst)
	for _, item := range e.List {
		dst = item.Columns(dst)
	}
	return dst
}

// Between tests range membership, inclusive on both ends.
type Between struct {
	Operand Expr
	Lo, Hi  Expr
	Negated bool
}

// Eval implements Expr.
func (e *Between) Eval(env Env) (dataset.Value, error) {
	v, err := e.Operand.Eval(env)
	if err != nil {
		return dataset.Null, err
	}
	lo, err := e.Lo.Eval(env)
	if err != nil {
		return dataset.Null, err
	}
	hi, err := e.Hi.Eval(env)
	if err != nil {
		return dataset.Null, err
	}
	if v.IsNull() || lo.IsNull() || hi.IsNull() {
		return dataset.Null, nil
	}
	in := dataset.Compare(v, lo) >= 0 && dataset.Compare(v, hi) <= 0
	return dataset.Bool(in != e.Negated), nil
}

// String implements Expr.
func (e *Between) String() string {
	op := "BETWEEN"
	if e.Negated {
		op = "NOT BETWEEN"
	}
	return fmt.Sprintf("(%s %s %s AND %s)", e.Operand.String(), op, e.Lo.String(), e.Hi.String())
}

// Columns implements Expr.
func (e *Between) Columns(dst []string) []string {
	return e.Hi.Columns(e.Lo.Columns(e.Operand.Columns(dst)))
}

// Case is a searched CASE expression.
type Case struct {
	Whens []When
	Else  Expr // may be nil
}

// When is one WHEN cond THEN result arm.
type When struct {
	Cond, Result Expr
}

// Eval implements Expr.
func (c *Case) Eval(env Env) (dataset.Value, error) {
	for _, w := range c.Whens {
		cond, err := w.Cond.Eval(env)
		if err != nil {
			return dataset.Null, err
		}
		if b, ok := asBool(cond); ok && b {
			return w.Result.Eval(env)
		}
	}
	if c.Else != nil {
		return c.Else.Eval(env)
	}
	return dataset.Null, nil
}

// String implements Expr.
func (c *Case) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range c.Whens {
		fmt.Fprintf(&b, " WHEN %s THEN %s", w.Cond.String(), w.Result.String())
	}
	if c.Else != nil {
		fmt.Fprintf(&b, " ELSE %s", c.Else.String())
	}
	b.WriteString(" END")
	return b.String()
}

// Columns implements Expr.
func (c *Case) Columns(dst []string) []string {
	for _, w := range c.Whens {
		dst = w.Result.Columns(w.Cond.Columns(dst))
	}
	if c.Else != nil {
		dst = c.Else.Columns(dst)
	}
	return dst
}

// EvalBool evaluates e and interprets the result as a predicate: null and
// false both reject the row, matching SQL WHERE semantics.
func EvalBool(e Expr, env Env) (bool, error) {
	v, err := e.Eval(env)
	if err != nil {
		return false, err
	}
	b, ok := asBool(v)
	return ok && b, nil
}
