package expr

import (
	"fmt"
	"math"
	"strings"

	"datachat/internal/dataset"
)

// FuncCall is a scalar function application. The function set mirrors the
// scalar helpers the DataChat skill layer exposes.
type FuncCall struct {
	Name string
	Args []Expr
}

// Func builds a scalar function call expression.
func Func(name string, args ...Expr) *FuncCall {
	return &FuncCall{Name: strings.ToUpper(name), Args: args}
}

// String implements Expr. CAST renders in the SQL form its parser reads,
// CAST(x AS type).
func (f *FuncCall) String() string {
	if typ, ok := f.castType(); ok {
		return "CAST(" + f.Args[0].String() + " AS " + Column(typ).String() + ")"
	}
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", f.Name, strings.Join(args, ", "))
}

// castType returns the target type name of a CAST whose target is a string
// literal.
func (f *FuncCall) castType() (string, bool) {
	if f.Name != "CAST" || len(f.Args) != 2 {
		return "", false
	}
	lit, ok := f.Args[1].(*Literal)
	if !ok || lit.Value.Type != dataset.TypeString {
		return "", false
	}
	return lit.Value.S, true
}

// Columns implements Expr.
func (f *FuncCall) Columns(dst []string) []string {
	for _, a := range f.Args {
		dst = a.Columns(dst)
	}
	return dst
}

// ScalarFuncs lists the supported scalar function names with their arities
// (-1 means variadic). The SQL parser consults this to validate calls.
var ScalarFuncs = map[string]int{
	"ABS": 1, "ROUND": -1, "FLOOR": 1, "CEIL": 1, "SQRT": 1, "LN": 1, "EXP": 1, "POW": 2,
	"UPPER": 1, "LOWER": 1, "LENGTH": 1, "TRIM": 1, "SUBSTR": -1, "REPLACE": 3, "CONCAT": -1,
	"YEAR": 1, "MONTH": 1, "DAY": 1, "DATE": 1,
	"COALESCE": -1, "NULLIF": 2, "IF": 3, "CAST": 2, "SIGN": 1,
}

// Eval implements Expr.
func (f *FuncCall) Eval(env Env) (dataset.Value, error) {
	args := make([]dataset.Value, len(f.Args))
	for i, a := range f.Args {
		v, err := a.Eval(env)
		if err != nil {
			return dataset.Null, err
		}
		args[i] = v
	}
	switch f.Name {
	case "COALESCE":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return dataset.Null, nil
	case "IF":
		if err := f.checkArity(3, args); err != nil {
			return dataset.Null, err
		}
		if b, ok := asBool(args[0]); ok && b {
			return args[1], nil
		}
		return args[2], nil
	case "NULLIF":
		if err := f.checkArity(2, args); err != nil {
			return dataset.Null, err
		}
		if !args[0].IsNull() && !args[1].IsNull() && dataset.Equal(args[0], args[1]) {
			return dataset.Null, nil
		}
		return args[0], nil
	}
	// Remaining functions are strict: null in, null out.
	for _, a := range args {
		if a.IsNull() {
			return dataset.Null, nil
		}
	}
	switch f.Name {
	case "ABS":
		return f.mathUnary(args, math.Abs)
	case "FLOOR":
		return f.mathUnary(args, math.Floor)
	case "CEIL":
		return f.mathUnary(args, math.Ceil)
	case "SQRT":
		return f.mathUnary(args, math.Sqrt)
	case "LN":
		return f.mathUnary(args, math.Log)
	case "EXP":
		return f.mathUnary(args, math.Exp)
	case "SIGN":
		return f.mathUnary(args, func(x float64) float64 {
			switch {
			case x > 0:
				return 1
			case x < 0:
				return -1
			default:
				return 0
			}
		})
	case "POW":
		if err := f.checkArity(2, args); err != nil {
			return dataset.Null, err
		}
		x, ok1 := args[0].AsFloat()
		y, ok2 := args[1].AsFloat()
		if !ok1 || !ok2 {
			return dataset.Null, f.typeErr(args)
		}
		return dataset.Float(math.Pow(x, y)), nil
	case "ROUND":
		if len(args) < 1 || len(args) > 2 {
			return dataset.Null, fmt.Errorf("expr: ROUND takes 1 or 2 arguments, got %d", len(args))
		}
		x, ok := args[0].AsFloat()
		if !ok {
			return dataset.Null, f.typeErr(args)
		}
		digits := int64(0)
		if len(args) == 2 {
			d, ok := args[1].AsInt()
			if !ok {
				return dataset.Null, f.typeErr(args)
			}
			digits = d
		}
		scale := math.Pow(10, float64(digits))
		return dataset.Float(math.Round(x*scale) / scale), nil
	case "UPPER":
		return dataset.Str(strings.ToUpper(args[0].String())), nil
	case "LOWER":
		return dataset.Str(strings.ToLower(args[0].String())), nil
	case "TRIM":
		return dataset.Str(strings.TrimSpace(args[0].String())), nil
	case "LENGTH":
		return dataset.Int(int64(len(args[0].String()))), nil
	case "CONCAT":
		var b strings.Builder
		for _, a := range args {
			b.WriteString(a.String())
		}
		return dataset.Str(b.String()), nil
	case "REPLACE":
		if err := f.checkArity(3, args); err != nil {
			return dataset.Null, err
		}
		return dataset.Str(strings.ReplaceAll(args[0].String(), args[1].String(), args[2].String())), nil
	case "SUBSTR":
		if len(args) < 2 || len(args) > 3 {
			return dataset.Null, fmt.Errorf("expr: SUBSTR takes 2 or 3 arguments, got %d", len(args))
		}
		s := args[0].String()
		start, ok := args[1].AsInt()
		if !ok {
			return dataset.Null, f.typeErr(args)
		}
		// SQL SUBSTR is 1-based.
		begin := int(start) - 1
		if begin < 0 {
			begin = 0
		}
		if begin > len(s) {
			begin = len(s)
		}
		end := len(s)
		if len(args) == 3 {
			n, ok := args[2].AsInt()
			if !ok {
				return dataset.Null, f.typeErr(args)
			}
			if e := begin + int(n); e < end {
				end = e
			}
			if end < begin {
				end = begin
			}
		}
		return dataset.Str(s[begin:end]), nil
	case "YEAR", "MONTH", "DAY":
		t, ok := dataset.Coerce(args[0], dataset.TypeTime)
		if !ok {
			return dataset.Null, f.typeErr(args)
		}
		switch f.Name {
		case "YEAR":
			return dataset.Int(int64(t.T.Year())), nil
		case "MONTH":
			return dataset.Int(int64(t.T.Month())), nil
		default:
			return dataset.Int(int64(t.T.Day())), nil
		}
	case "DATE":
		t, ok := dataset.Coerce(args[0], dataset.TypeTime)
		if !ok {
			return dataset.Null, f.typeErr(args)
		}
		return t, nil
	case "CAST":
		if err := f.checkArity(2, args); err != nil {
			return dataset.Null, err
		}
		var target dataset.Type
		switch strings.ToLower(args[1].String()) {
		case "int", "integer", "bigint":
			target = dataset.TypeInt
		case "float", "double", "real", "numeric":
			target = dataset.TypeFloat
		case "string", "text", "varchar":
			target = dataset.TypeString
		case "bool", "boolean":
			target = dataset.TypeBool
		case "date", "time", "timestamp":
			target = dataset.TypeTime
		default:
			return dataset.Null, fmt.Errorf("expr: CAST to unknown type %q", args[1].String())
		}
		v, ok := dataset.Coerce(args[0], target)
		if !ok {
			return dataset.Null, nil
		}
		return v, nil
	default:
		return dataset.Null, fmt.Errorf("expr: unknown function %q", f.Name)
	}
}

func (f *FuncCall) mathUnary(args []dataset.Value, fn func(float64) float64) (dataset.Value, error) {
	if err := f.checkArity(1, args); err != nil {
		return dataset.Null, err
	}
	x, ok := args[0].AsFloat()
	if !ok {
		return dataset.Null, f.typeErr(args)
	}
	result := fn(x)
	if args[0].Type == dataset.TypeInt && result == math.Trunc(result) &&
		(f.Name == "ABS" || f.Name == "SIGN" || f.Name == "FLOOR" || f.Name == "CEIL") {
		return dataset.Int(int64(result)), nil
	}
	return dataset.Float(result), nil
}

func (f *FuncCall) checkArity(want int, args []dataset.Value) error {
	if len(args) != want {
		return fmt.Errorf("expr: %s takes %d arguments, got %d", f.Name, want, len(args))
	}
	return nil
}

func (f *FuncCall) typeErr(args []dataset.Value) error {
	types := make([]string, len(args))
	for i, a := range args {
		types[i] = a.Type.String()
	}
	return fmt.Errorf("expr: %s cannot be applied to (%s)", f.Name, strings.Join(types, ", "))
}
