package expr

import (
	"time"

	"datachat/internal/dataset"
)

// This file is the typed half of Eval: it compiles an Expr tree into a
// kernel that evaluates whole columns at once instead of boxing one Value per
// row. Compilation resolves types statically — every supported operator
// knows its operand vector types at compile time, so the per-row work inside
// a kernel is a tight typed loop with no interface dispatch and no allocation
// beyond the output vector.
//
// The compiler is deliberately partial. Any construct whose row-at-a-time
// semantics are not cheap to replicate exactly (scalar functions, CASE,
// cross-type comparisons that fall into Compare's string-render ordering,
// LIKE with a non-literal pattern, …) fails compilation, and Eval runs the
// whole tree through the row evaluator instead. The row evaluator stays
// authoritative: a kernel either reproduces its results bit for bit —
// including SQL three-valued null logic, NaN comparing equal to everything
// under cmpFloat, and / by zero yielding null — or it does not exist.

// Vec is a vector of N values: one typed backing slice (chosen by Type)
// plus an optional null mask. A nil Nulls means no row is null; a vec of
// TypeNull has every row null and no backing slice at all. A vec the row
// evaluator filled with values of several types holds them boxed in V
// instead, and Type is the common type its column takes; no kernel reads
// such a vec. Vecs bound from columns alias column storage and must be
// treated as read-only.
type Vec struct {
	Type  dataset.Type
	I     []int64
	F     []float64
	S     []string
	B     []bool
	T     []int64 // unix nanoseconds, as time columns store them
	Nulls []bool
	V     []dataset.Value
	N     int
}

// NullAt reports whether row i is null.
func (v *Vec) NullAt(i int) bool {
	if v.V != nil {
		return v.V[i].IsNull()
	}
	return v.Type == dataset.TypeNull || (v.Nulls != nil && v.Nulls[i])
}

// ValueAt boxes row i into a Value — interop with row-at-a-time code paths;
// not for use in per-row hot loops.
func (v *Vec) ValueAt(i int) dataset.Value {
	if v.V != nil {
		return v.V[i]
	}
	if v.NullAt(i) {
		return dataset.Null
	}
	switch v.Type {
	case dataset.TypeInt:
		return dataset.Int(v.I[i])
	case dataset.TypeFloat:
		return dataset.Float(v.F[i])
	case dataset.TypeString:
		return dataset.Str(v.S[i])
	case dataset.TypeBool:
		return dataset.Bool(v.B[i])
	case dataset.TypeTime:
		return dataset.Time(time.Unix(0, v.T[i]).UTC())
	default:
		return dataset.Null
	}
}

// Column wraps the vec into a dataset column sharing its storage. All-null
// vecs become all-null string columns and boxed values are coerced to their
// common type, as a column built from the row evaluator's values is.
func (v *Vec) Column(name string) *dataset.Column {
	if v.V != nil {
		c := dataset.NewColumn(name, v.Type)
		for _, x := range v.V {
			c.Append(x)
		}
		return c
	}
	switch v.Type {
	case dataset.TypeInt:
		return dataset.IntColumn(name, v.I, v.Nulls)
	case dataset.TypeFloat:
		return dataset.FloatColumn(name, v.F, v.Nulls)
	case dataset.TypeString:
		return dataset.StringColumn(name, v.S, v.Nulls)
	case dataset.TypeBool:
		return dataset.BoolColumn(name, v.B, v.Nulls)
	case dataset.TypeTime:
		return dataset.TimeNanosColumn(name, v.T, v.Nulls)
	default:
		nulls := make([]bool, v.N)
		for i := range nulls {
			nulls[i] = true
		}
		return dataset.StringColumn(name, make([]string, v.N), nulls)
	}
}

// ColumnVec wraps a column's backing storage as a Vec without copying.
func ColumnVec(c *dataset.Column) *Vec {
	n := c.Len()
	switch c.Type() {
	case dataset.TypeInt:
		vals, nulls, _ := c.Ints()
		return &Vec{Type: dataset.TypeInt, I: vals, Nulls: nulls, N: n}
	case dataset.TypeFloat:
		vals, nulls, _ := c.FloatVals()
		return &Vec{Type: dataset.TypeFloat, F: vals, Nulls: nulls, N: n}
	case dataset.TypeString:
		vals, nulls, _ := c.Strs()
		return &Vec{Type: dataset.TypeString, S: vals, Nulls: nulls, N: n}
	case dataset.TypeBool:
		vals, nulls, _ := c.Bools()
		return &Vec{Type: dataset.TypeBool, B: vals, Nulls: nulls, N: n}
	case dataset.TypeTime:
		vals, nulls, _ := c.Times()
		return &Vec{Type: dataset.TypeTime, T: vals, Nulls: nulls, N: n}
	}
	return &Vec{Type: dataset.TypeNull, N: n}
}

// selectTrue returns the indexes of rows where the vec is truthy and
// non-null — EvalBool's predicate acceptance rule (null and false reject;
// int and float vecs are true when non-zero; string and time vecs are never
// true). limit < 0 means no cap. It counts the rows before gathering them,
// so the result is allocated at its size, not the vec's.
func (v *Vec) selectTrue(limit int) []int {
	if limit < 0 || limit > v.N {
		limit = v.N
	}
	switch v.Type {
	case dataset.TypeBool:
		return selectNonZero(v.B, v.Nulls, limit)
	case dataset.TypeInt:
		return selectNonZero(v.I, v.Nulls, limit)
	case dataset.TypeFloat:
		return selectNonZero(v.F, v.Nulls, limit)
	}
	return []int{}
}

// selectNonZero is selectTrue over one backing slice. Without a cap it
// counts the matches, then gathers them into an exact-size result; both
// passes are branch-free, since a predicate over unordered rows keeps and
// drops them in no pattern a branch predictor can follow.
func selectNonZero[T bool | int64 | float64](vals []T, nulls []bool, limit int) []int {
	var zero T
	if limit < len(vals) {
		sel := make([]int, 0, limit)
		for i := 0; i < len(vals) && len(sel) < limit; i++ {
			if vals[i] != zero && (nulls == nil || !nulls[i]) {
				sel = append(sel, i)
			}
		}
		return sel
	}
	n := 0
	for i, x := range vals {
		n += b2i(x != zero) & b2i(nulls == nil || !nulls[i])
	}
	sel := make([]int, n+1) // the last write of the gather lands in the spare slot
	n = 0
	for i, x := range vals {
		sel[n] = i
		n += b2i(x != zero) & b2i(nulls == nil || !nulls[i])
	}
	return sel[:n]
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// floats returns the vec's values widened to float64, copying for int vecs.
// Only valid on numeric vecs.
func (v *Vec) floats() []float64 {
	if v.Type == dataset.TypeFloat {
		return v.F
	}
	out := make([]float64, v.N)
	for i, x := range v.I {
		out[i] = float64(x)
	}
	return out
}

// kernel evaluates a compiled expression over all rows of its batch at once.
type kernel func() (*Vec, error)

// compile compiles e into a kernel over the rows of b. ok is false when e
// uses a construct the compiler does not support, or reads a column whose
// values mix types.
func compile(e Expr, b Batch) (kernel, bool) {
	k, _, ok := compileVec(e, b, b.Len())
	return k, ok
}

func compileVec(e Expr, b Batch, n int) (kernel, dataset.Type, bool) {
	switch node := e.(type) {
	case *Literal:
		return compileLiteral(node.Value, n)
	case *Col:
		v, err := b.Vec(node.Name)
		if err != nil || v.N != n || v.V != nil {
			return nil, 0, false
		}
		return func() (*Vec, error) { return v, nil }, v.Type, true
	case *Binary:
		return compileBinary(node, b, n)
	case *Unary:
		return compileUnary(node, b, n)
	case *IsNull:
		return compileIsNull(node, b, n)
	case *In:
		return compileIn(node, b, n)
	case *Between:
		return compileBetween(node, b, n)
	}
	return nil, 0, false
}

func constNull(n int) kernel {
	return func() (*Vec, error) { return &Vec{Type: dataset.TypeNull, N: n}, nil }
}

func compileLiteral(v dataset.Value, n int) (kernel, dataset.Type, bool) {
	// Broadcast once at compile time: the vec is read-only downstream
	// (kernels never mutate operand storage), so every evaluation can
	// return the same instance.
	var vec *Vec
	switch v.Type {
	case dataset.TypeNull:
		return constNull(n), dataset.TypeNull, true
	case dataset.TypeInt:
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = v.I
		}
		vec = &Vec{Type: dataset.TypeInt, I: vals, N: n}
	case dataset.TypeFloat:
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = v.F
		}
		vec = &Vec{Type: dataset.TypeFloat, F: vals, N: n}
	case dataset.TypeString:
		vals := make([]string, n)
		for i := range vals {
			vals[i] = v.S
		}
		vec = &Vec{Type: dataset.TypeString, S: vals, N: n}
	case dataset.TypeBool:
		vals := make([]bool, n)
		for i := range vals {
			vals[i] = v.B
		}
		vec = &Vec{Type: dataset.TypeBool, B: vals, N: n}
	case dataset.TypeTime:
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = v.T.UnixNano()
		}
		vec = &Vec{Type: dataset.TypeTime, T: vals, N: n}
	default:
		return nil, 0, false
	}
	return func() (*Vec, error) { return vec, nil }, vec.Type, true
}

func compileBinary(node *Binary, b Batch, n int) (kernel, dataset.Type, bool) {
	lk, lt, lok := compileVec(node.Left, b, n)
	if !lok {
		return nil, 0, false
	}
	// Scalar fast paths: a literal right operand folds into the loop as a
	// constant, skipping both its broadcast and the pair evaluation.
	if lit, isLit := node.Right.(*Literal); isLit && !lit.Value.IsNull() {
		switch op := node.Op; {
		case op <= OpMod:
			if k, t, ok := compileArithScalar(op, lk, lt, lit.Value, n); ok {
				return k, t, true
			}
		case op >= OpEq && op <= OpGe:
			if k, t, ok := compileCompareScalar(op, lk, lt, lit.Value, n); ok {
				return k, t, true
			}
		}
	}
	rk, rt, rok := compileVec(node.Right, b, n)
	if !rok {
		return nil, 0, false
	}
	// Mirror case: a literal LEFT operand of a comparison flips onto the
	// right. (Non-commutative arithmetic keeps the broadcast path.)
	if lit, isLit := node.Left.(*Literal); isLit && !lit.Value.IsNull() {
		if op := node.Op; op >= OpEq && op <= OpGe {
			if k, t, ok := compileCompareScalar(flipCmp(op), rk, rt, lit.Value, n); ok {
				return k, t, true
			}
		}
	}
	switch op := node.Op; {
	case op == OpAnd || op == OpOr:
		boolish := func(t dataset.Type) bool { return t == dataset.TypeBool || t == dataset.TypeNull }
		if !boolish(lt) || !boolish(rt) {
			return nil, 0, false
		}
		return logicalKernel(op, lk, rk, n), dataset.TypeBool, true
	case op == OpLike:
		return compileLike(node, lk, lt, n)
	case op == OpConcat:
		if lt == dataset.TypeNull || rt == dataset.TypeNull {
			return constNull(n), dataset.TypeNull, true
		}
		if lt != dataset.TypeString || rt != dataset.TypeString {
			return nil, 0, false
		}
		return concatKernel(lk, rk, n), dataset.TypeString, true
	case op <= OpMod:
		return compileArith(op, lk, lt, rk, rt, n)
	default: // OpEq … OpGe
		return compileCompare(op, lk, lt, rk, rt, n)
	}
}

// flipCmp mirrors a comparison operator so `lit op vec` can run as
// `vec flip(op) lit`.
func flipCmp(op BinOp) BinOp {
	switch op {
	case OpLt:
		return OpGt
	case OpGt:
		return OpLt
	case OpLe:
		return OpGe
	case OpGe:
		return OpLe
	}
	return op // Eq, Ne are symmetric
}

// compileCompareScalar compares a vector against a non-null literal. The
// type pairings mirror compileCompare exactly; anything else reports !ok
// and the caller uses the broadcast path.
func compileCompareScalar(op BinOp, k kernel, vt dataset.Type, lit dataset.Value, n int) (kernel, dataset.Type, bool) {
	switch {
	case vt == dataset.TypeInt && lit.Type == dataset.TypeInt:
		return cmpScalarKernel(op, k, func(v *Vec) []int64 { return v.I }, lit.I, n), dataset.TypeBool, true
	case vt.Numeric() && (lit.Type == dataset.TypeInt || lit.Type == dataset.TypeFloat):
		f, _ := lit.AsFloat()
		return cmpScalarKernel(op, k, (*Vec).floats, f, n), dataset.TypeBool, true
	case vt == dataset.TypeString && lit.Type == dataset.TypeString:
		return cmpScalarKernel(op, k, func(v *Vec) []string { return v.S }, lit.S, n), dataset.TypeBool, true
	case vt == dataset.TypeTime && lit.Type == dataset.TypeTime:
		return cmpScalarKernel(op, k, func(v *Vec) []int64 { return v.T }, lit.T.UnixNano(), n), dataset.TypeBool, true
	case vt == dataset.TypeBool && lit.Type == dataset.TypeBool:
		var c int64
		if lit.B {
			c = 1
		}
		return cmpScalarKernel(op, k, boolInts, c, n), dataset.TypeBool, true
	}
	return nil, 0, false
}

// cmpScalarKernel is cmpKernel with the right operand fixed; same derived
// operators, same NaN behavior.
func cmpScalarKernel[T int64 | float64 | string](op BinOp, k kernel, get func(*Vec) []T, c T, n int) kernel {
	return func() (*Vec, error) {
		v, err := k()
		if err != nil {
			return nil, err
		}
		l := get(v)
		out := make([]bool, n)
		switch op {
		case OpEq:
			for i := range out {
				out[i] = !(l[i] < c) && !(l[i] > c)
			}
		case OpNe:
			for i := range out {
				out[i] = l[i] < c || l[i] > c
			}
		case OpLt:
			for i := range out {
				out[i] = l[i] < c
			}
		case OpLe:
			for i := range out {
				out[i] = !(l[i] > c)
			}
		case OpGt:
			for i := range out {
				out[i] = l[i] > c
			}
		case OpGe:
			for i := range out {
				out[i] = !(l[i] < c)
			}
		}
		return &Vec{Type: dataset.TypeBool, B: out, Nulls: v.Nulls, N: n}, nil
	}
}

// compileArithScalar folds a non-null right-hand literal into arithmetic.
// Only vec-op-scalar is specialized; scalar-op-vec stays on the broadcast
// path since subtraction, division, and modulo are not commutative.
func compileArithScalar(op BinOp, lk kernel, lt dataset.Type, lit dataset.Value, n int) (kernel, dataset.Type, bool) {
	if !lt.Numeric() || (lit.Type != dataset.TypeInt && lit.Type != dataset.TypeFloat) {
		return nil, 0, false
	}
	bothInt := lt == dataset.TypeInt && lit.Type == dataset.TypeInt
	switch {
	case op == OpMod:
		if !bothInt {
			return constNull(n), dataset.TypeNull, true
		}
		if lit.I == 0 {
			// x % 0 is null for every row; evalArith agrees.
			return constNull(n), dataset.TypeNull, true
		}
		c := lit.I
		k := func() (*Vec, error) {
			v, err := lk()
			if err != nil {
				return nil, err
			}
			out := make([]int64, n)
			for i, x := range v.I {
				out[i] = x % c
			}
			return &Vec{Type: dataset.TypeInt, I: out, Nulls: v.Nulls, N: n}, nil
		}
		return k, dataset.TypeInt, true
	case bothInt && op != OpDiv:
		c := lit.I
		k := func() (*Vec, error) {
			v, err := lk()
			if err != nil {
				return nil, err
			}
			out := make([]int64, n)
			switch op {
			case OpAdd:
				for i, x := range v.I {
					out[i] = x + c
				}
			case OpSub:
				for i, x := range v.I {
					out[i] = x - c
				}
			case OpMul:
				for i, x := range v.I {
					out[i] = x * c
				}
			}
			return &Vec{Type: dataset.TypeInt, I: out, Nulls: v.Nulls, N: n}, nil
		}
		return k, dataset.TypeInt, true
	default:
		c, _ := lit.AsFloat()
		if op == OpDiv && c == 0 {
			// Division by a constant zero nulls every row, like evalArith.
			return constNull(n), dataset.TypeNull, true
		}
		k := func() (*Vec, error) {
			v, err := lk()
			if err != nil {
				return nil, err
			}
			l := v.floats()
			out := make([]float64, n)
			switch op {
			case OpAdd:
				for i, x := range l {
					out[i] = x + c
				}
			case OpSub:
				for i, x := range l {
					out[i] = x - c
				}
			case OpMul:
				for i, x := range l {
					out[i] = x * c
				}
			case OpDiv:
				for i, x := range l {
					out[i] = x / c
				}
			}
			return &Vec{Type: dataset.TypeFloat, F: out, Nulls: v.Nulls, N: n}, nil
		}
		return k, dataset.TypeFloat, true
	}
}

// logicalKernel implements three-valued AND/OR: a determining operand
// (false for AND, true for OR) wins even when the other side is null.
func logicalKernel(op BinOp, lk, rk kernel, n int) kernel {
	return func() (*Vec, error) {
		lv, rv, err := evalPair(lk, rk)
		if err != nil {
			return nil, err
		}
		out := make([]bool, n)
		lAll, rAll := lv.Type == dataset.TypeNull, rv.Type == dataset.TypeNull
		ln, rn := lv.Nulls, rv.Nulls
		if !lAll && !rAll && ln == nil && rn == nil {
			// Null-free fast path: plain two-valued logic.
			lb, rb := lv.B, rv.B
			if op == OpAnd {
				for i := range out {
					out[i] = lb[i] && rb[i]
				}
			} else {
				for i := range out {
					out[i] = lb[i] || rb[i]
				}
			}
			return &Vec{Type: dataset.TypeBool, B: out, N: n}, nil
		}
		var nulls []bool
		for i := 0; i < n; i++ {
			lnull := lAll || (ln != nil && ln[i])
			rnull := rAll || (rn != nil && rn[i])
			lb := !lnull && lv.B[i]
			rb := !rnull && rv.B[i]
			if op == OpAnd {
				switch {
				case (!lnull && !lb) || (!rnull && !rb):
					// determined false
				case lnull || rnull:
					nulls = markNull(nulls, n, i)
				default:
					out[i] = true
				}
			} else {
				switch {
				case lb || rb:
					out[i] = true
				case lnull || rnull:
					nulls = markNull(nulls, n, i)
				}
			}
		}
		return &Vec{Type: dataset.TypeBool, B: out, Nulls: nulls, N: n}, nil
	}
}

// markNull sets row i in a lazily allocated private mask.
func markNull(nulls []bool, n, i int) []bool {
	if nulls == nil {
		nulls = make([]bool, n)
	}
	nulls[i] = true
	return nulls
}

// setNull marks row i null, copying the mask first when it may still alias
// input storage; owned tracks whether the mask is already private.
func setNull(nulls []bool, n, i int, owned *bool) []bool {
	if !*owned {
		fresh := make([]bool, n)
		copy(fresh, nulls)
		nulls = fresh
		*owned = true
	}
	nulls[i] = true
	return nulls
}

func evalPair(lk, rk kernel) (*Vec, *Vec, error) {
	lv, err := lk()
	if err != nil {
		return nil, nil, err
	}
	rv, err := rk()
	if err != nil {
		return nil, nil, err
	}
	return lv, rv, nil
}

// unionNulls ORs two null masks; either may be nil. The result may alias an
// input, so callers that add more nulls must go through setNull.
func unionNulls(a, b []bool) []bool {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	out := make([]bool, len(a))
	for i := range out {
		out[i] = a[i] || b[i]
	}
	return out
}

func compileLike(node *Binary, lk kernel, lt dataset.Type, n int) (kernel, dataset.Type, bool) {
	lit, ok := node.Right.(*Literal)
	if !ok {
		return nil, 0, false
	}
	if lt == dataset.TypeNull || lit.Value.IsNull() {
		return constNull(n), dataset.TypeNull, true
	}
	if lt != dataset.TypeString {
		return nil, 0, false
	}
	p := compileLikePattern(lit.Value.String())
	k := func() (*Vec, error) {
		lv, err := lk()
		if err != nil {
			return nil, err
		}
		out := make([]bool, n)
		for i := 0; i < n; i++ {
			if lv.Nulls != nil && lv.Nulls[i] {
				continue
			}
			out[i] = p.match(lv.S[i])
		}
		return &Vec{Type: dataset.TypeBool, B: out, Nulls: lv.Nulls, N: n}, nil
	}
	return k, dataset.TypeBool, true
}

func concatKernel(lk, rk kernel, n int) kernel {
	return func() (*Vec, error) {
		lv, rv, err := evalPair(lk, rk)
		if err != nil {
			return nil, err
		}
		nulls := unionNulls(lv.Nulls, rv.Nulls)
		out := make([]string, n)
		for i := range out {
			if nulls != nil && nulls[i] {
				continue
			}
			out[i] = lv.S[i] + rv.S[i]
		}
		return &Vec{Type: dataset.TypeString, S: out, Nulls: nulls, N: n}, nil
	}
}

func compileArith(op BinOp, lk kernel, lt dataset.Type, rk kernel, rt dataset.Type, n int) (kernel, dataset.Type, bool) {
	if lt == dataset.TypeNull || rt == dataset.TypeNull {
		return constNull(n), dataset.TypeNull, true
	}
	// Bool operands are excluded even though AsFloat accepts them: keeping
	// the domain to int/float keeps every result type static.
	if !lt.Numeric() || !rt.Numeric() {
		return nil, 0, false
	}
	bothInt := lt == dataset.TypeInt && rt == dataset.TypeInt
	switch {
	case op == OpMod:
		if !bothInt {
			// evalArith yields null for every non-int-int mod, whatever the values
			return constNull(n), dataset.TypeNull, true
		}
		return intModKernel(lk, rk, n), dataset.TypeInt, true
	case bothInt && op != OpDiv:
		return intArithKernel(op, lk, rk, n), dataset.TypeInt, true
	default:
		return floatArithKernel(op, lk, rk, n), dataset.TypeFloat, true
	}
}

func intArithKernel(op BinOp, lk, rk kernel, n int) kernel {
	return func() (*Vec, error) {
		lv, rv, err := evalPair(lk, rk)
		if err != nil {
			return nil, err
		}
		nulls := unionNulls(lv.Nulls, rv.Nulls)
		l, r := lv.I, rv.I
		out := make([]int64, n)
		switch op {
		case OpAdd:
			for i := range out {
				out[i] = l[i] + r[i]
			}
		case OpSub:
			for i := range out {
				out[i] = l[i] - r[i]
			}
		case OpMul:
			for i := range out {
				out[i] = l[i] * r[i]
			}
		}
		return &Vec{Type: dataset.TypeInt, I: out, Nulls: nulls, N: n}, nil
	}
}

func intModKernel(lk, rk kernel, n int) kernel {
	return func() (*Vec, error) {
		lv, rv, err := evalPair(lk, rk)
		if err != nil {
			return nil, err
		}
		nulls := unionNulls(lv.Nulls, rv.Nulls)
		owned := false
		l, r := lv.I, rv.I
		out := make([]int64, n)
		for i := range out {
			if r[i] == 0 {
				nulls = setNull(nulls, n, i, &owned)
				continue
			}
			out[i] = l[i] % r[i]
		}
		return &Vec{Type: dataset.TypeInt, I: out, Nulls: nulls, N: n}, nil
	}
}

func floatArithKernel(op BinOp, lk, rk kernel, n int) kernel {
	return func() (*Vec, error) {
		lv, rv, err := evalPair(lk, rk)
		if err != nil {
			return nil, err
		}
		nulls := unionNulls(lv.Nulls, rv.Nulls)
		l, r := lv.floats(), rv.floats()
		out := make([]float64, n)
		switch op {
		case OpAdd:
			for i := range out {
				out[i] = l[i] + r[i]
			}
		case OpSub:
			for i := range out {
				out[i] = l[i] - r[i]
			}
		case OpMul:
			for i := range out {
				out[i] = l[i] * r[i]
			}
		case OpDiv:
			owned := false
			for i := range out {
				if r[i] == 0 {
					nulls = setNull(nulls, n, i, &owned)
					continue
				}
				out[i] = l[i] / r[i]
			}
		}
		return &Vec{Type: dataset.TypeFloat, F: out, Nulls: nulls, N: n}, nil
	}
}

func compileCompare(op BinOp, lk kernel, lt dataset.Type, rk kernel, rt dataset.Type, n int) (kernel, dataset.Type, bool) {
	if lt == dataset.TypeNull || rt == dataset.TypeNull {
		return constNull(n), dataset.TypeNull, true
	}
	switch {
	case lt == dataset.TypeInt && rt == dataset.TypeInt:
		// int64 compares must not round-trip through float64: values past
		// 2^53 would collapse. Compare uses cmpInt here, so do we.
		return cmpKernel(op, lk, rk, func(v *Vec) []int64 { return v.I }, n), dataset.TypeBool, true
	case lt.Numeric() && rt.Numeric():
		return cmpKernel(op, lk, rk, (*Vec).floats, n), dataset.TypeBool, true
	case lt == dataset.TypeString && rt == dataset.TypeString:
		return cmpKernel(op, lk, rk, func(v *Vec) []string { return v.S }, n), dataset.TypeBool, true
	case lt == dataset.TypeTime && rt == dataset.TypeTime:
		return cmpKernel(op, lk, rk, func(v *Vec) []int64 { return v.T }, n), dataset.TypeBool, true
	case lt == dataset.TypeBool && rt == dataset.TypeBool:
		return cmpKernel(op, lk, rk, boolInts, n), dataset.TypeBool, true
	default:
		// Mixed non-numeric types land in Compare's string-render ordering;
		// leave those to the row path.
		return nil, 0, false
	}
}

// boolInts widens a bool vec to int64s so bool comparisons reuse the
// ordered-compare kernels with false < true.
func boolInts(v *Vec) []int64 {
	out := make([]int64, v.N)
	for i, bit := range v.B {
		if bit {
			out[i] = 1
		}
	}
	return out
}

// cmpKernel builds a comparison kernel over any ordered element type. Every
// operator is derived from (a<b, a>b) so float semantics match cmpFloat,
// where a NaN operand makes both false and the pair compares "equal".
func cmpKernel[T int64 | float64 | string](op BinOp, lk, rk kernel, get func(*Vec) []T, n int) kernel {
	return func() (*Vec, error) {
		lv, rv, err := evalPair(lk, rk)
		if err != nil {
			return nil, err
		}
		nulls := unionNulls(lv.Nulls, rv.Nulls)
		l, r := get(lv), get(rv)
		out := make([]bool, n)
		switch op {
		case OpEq:
			for i := range out {
				out[i] = !(l[i] < r[i]) && !(l[i] > r[i])
			}
		case OpNe:
			for i := range out {
				out[i] = l[i] < r[i] || l[i] > r[i]
			}
		case OpLt:
			for i := range out {
				out[i] = l[i] < r[i]
			}
		case OpLe:
			for i := range out {
				out[i] = !(l[i] > r[i])
			}
		case OpGt:
			for i := range out {
				out[i] = l[i] > r[i]
			}
		case OpGe:
			for i := range out {
				out[i] = !(l[i] < r[i])
			}
		}
		return &Vec{Type: dataset.TypeBool, B: out, Nulls: nulls, N: n}, nil
	}
}

func compileUnary(node *Unary, b Batch, n int) (kernel, dataset.Type, bool) {
	k, kt, ok := compileVec(node.Operand, b, n)
	if !ok {
		return nil, 0, false
	}
	if kt == dataset.TypeNull {
		return constNull(n), dataset.TypeNull, true
	}
	if node.Negate {
		switch kt {
		case dataset.TypeInt:
			run := func() (*Vec, error) {
				v, err := k()
				if err != nil {
					return nil, err
				}
				out := make([]int64, n)
				for i, x := range v.I {
					out[i] = -x
				}
				return &Vec{Type: dataset.TypeInt, I: out, Nulls: v.Nulls, N: n}, nil
			}
			return run, dataset.TypeInt, true
		case dataset.TypeFloat:
			run := func() (*Vec, error) {
				v, err := k()
				if err != nil {
					return nil, err
				}
				out := make([]float64, n)
				for i, x := range v.F {
					out[i] = -x
				}
				return &Vec{Type: dataset.TypeFloat, F: out, Nulls: v.Nulls, N: n}, nil
			}
			return run, dataset.TypeFloat, true
		}
		return nil, 0, false
	}
	// NOT: int/float operands would coerce through asBool; restricting to
	// bool keeps this a pure flip.
	if kt != dataset.TypeBool {
		return nil, 0, false
	}
	run := func() (*Vec, error) {
		v, err := k()
		if err != nil {
			return nil, err
		}
		out := make([]bool, n)
		for i, x := range v.B {
			out[i] = !x
		}
		return &Vec{Type: dataset.TypeBool, B: out, Nulls: v.Nulls, N: n}, nil
	}
	return run, dataset.TypeBool, true
}

func compileIsNull(node *IsNull, b Batch, n int) (kernel, dataset.Type, bool) {
	k, _, ok := compileVec(node.Operand, b, n)
	if !ok {
		return nil, 0, false
	}
	neg := node.Negated
	run := func() (*Vec, error) {
		v, err := k()
		if err != nil {
			return nil, err
		}
		out := make([]bool, n)
		switch {
		case v.Type == dataset.TypeNull:
			for i := range out {
				out[i] = !neg
			}
		case v.Nulls == nil:
			for i := range out {
				out[i] = neg
			}
		default:
			for i := range out {
				out[i] = v.Nulls[i] != neg
			}
		}
		return &Vec{Type: dataset.TypeBool, B: out, N: n}, nil
	}
	return run, dataset.TypeBool, true
}

func compileIn(node *In, b Batch, n int) (kernel, dataset.Type, bool) {
	k, kt, ok := compileVec(node.Operand, b, n)
	if !ok {
		return nil, 0, false
	}
	if kt == dataset.TypeNull {
		return constNull(n), dataset.TypeNull, true
	}
	sawNull := false
	var items []dataset.Value
	for _, item := range node.List {
		lit, isLit := item.(*Literal)
		if !isLit {
			return nil, 0, false
		}
		if lit.Value.IsNull() {
			sawNull = true
			continue
		}
		items = append(items, lit.Value)
	}
	neg := node.Negated
	switch kt {
	case dataset.TypeInt, dataset.TypeFloat:
		// Numeric and bool items share Equal's AsFloat comparison; string
		// or time items would match through the string-render fallback, so
		// those lists stay on the row path.
		fitems := make([]float64, 0, len(items))
		for _, it := range items {
			f, isNum := it.AsFloat()
			if !isNum {
				return nil, 0, false
			}
			fitems = append(fitems, f)
		}
		return inKernel(k, func(v *Vec) []float64 { return v.floats() }, fitems, sawNull, neg, n), dataset.TypeBool, true
	case dataset.TypeString:
		sitems := make([]string, 0, len(items))
		for _, it := range items {
			if it.Type != dataset.TypeString {
				return nil, 0, false
			}
			sitems = append(sitems, it.S)
		}
		return inKernel(k, func(v *Vec) []string { return v.S }, sitems, sawNull, neg, n), dataset.TypeBool, true
	case dataset.TypeTime:
		titems := make([]int64, 0, len(items))
		for _, it := range items {
			if it.Type != dataset.TypeTime {
				return nil, 0, false
			}
			titems = append(titems, it.T.UnixNano())
		}
		return inKernel(k, func(v *Vec) []int64 { return v.T }, titems, sawNull, neg, n), dataset.TypeBool, true
	}
	// Bool operands compare numerically against int items under Equal;
	// rather than model that, leave bool IN (...) to the row path.
	return nil, 0, false
}

// inKernel tests membership with Compare's equality (derived from < and >,
// so a NaN operand "equals" every numeric item). A null item in the list
// turns non-matches into nulls, per SQL IN.
func inKernel[T int64 | float64 | string](k kernel, get func(*Vec) []T, items []T, sawNull, neg bool, n int) kernel {
	return func() (*Vec, error) {
		v, err := k()
		if err != nil {
			return nil, err
		}
		vals := get(v)
		out := make([]bool, n)
		nulls := v.Nulls
		owned := false
		for i := 0; i < n; i++ {
			if v.Nulls != nil && v.Nulls[i] {
				continue
			}
			x := vals[i]
			match := false
			for _, it := range items {
				if !(x < it) && !(x > it) {
					match = true
					break
				}
			}
			switch {
			case match:
				out[i] = !neg
			case sawNull:
				nulls = setNull(nulls, n, i, &owned)
			default:
				out[i] = neg
			}
		}
		return &Vec{Type: dataset.TypeBool, B: out, Nulls: nulls, N: n}, nil
	}
}

func compileBetween(node *Between, b Batch, n int) (kernel, dataset.Type, bool) {
	vk, vt, ok1 := compileVec(node.Operand, b, n)
	lok, lot, ok2 := compileVec(node.Lo, b, n)
	hik, hit, ok3 := compileVec(node.Hi, b, n)
	if !ok1 || !ok2 || !ok3 {
		return nil, 0, false
	}
	if vt == dataset.TypeNull || lot == dataset.TypeNull || hit == dataset.TypeNull {
		return constNull(n), dataset.TypeNull, true
	}
	neg := node.Negated
	switch {
	case vt == dataset.TypeInt && lot == dataset.TypeInt && hit == dataset.TypeInt:
		return betweenKernel(vk, lok, hik, func(v *Vec) []int64 { return v.I }, neg, n), dataset.TypeBool, true
	case vt.Numeric() && lot.Numeric() && hit.Numeric():
		return betweenKernel(vk, lok, hik, (*Vec).floats, neg, n), dataset.TypeBool, true
	case vt == dataset.TypeString && lot == dataset.TypeString && hit == dataset.TypeString:
		return betweenKernel(vk, lok, hik, func(v *Vec) []string { return v.S }, neg, n), dataset.TypeBool, true
	case vt == dataset.TypeTime && lot == dataset.TypeTime && hit == dataset.TypeTime:
		return betweenKernel(vk, lok, hik, func(v *Vec) []int64 { return v.T }, neg, n), dataset.TypeBool, true
	}
	return nil, 0, false
}

func betweenKernel[T int64 | float64 | string](vk, lok, hik kernel, get func(*Vec) []T, neg bool, n int) kernel {
	return func() (*Vec, error) {
		vv, err := vk()
		if err != nil {
			return nil, err
		}
		lv, err := lok()
		if err != nil {
			return nil, err
		}
		hv, err := hik()
		if err != nil {
			return nil, err
		}
		nulls := unionNulls(unionNulls(vv.Nulls, lv.Nulls), hv.Nulls)
		v, lo, hi := get(vv), get(lv), get(hv)
		out := make([]bool, n)
		for i := range out {
			in := !(v[i] < lo[i]) && !(v[i] > hi[i])
			out[i] = in != neg
		}
		return &Vec{Type: dataset.TypeBool, B: out, Nulls: nulls, N: n}, nil
	}
}
