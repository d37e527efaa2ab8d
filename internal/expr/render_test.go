package expr

import (
	"strings"
	"testing"

	"datachat/internal/dataset"
)

func TestStringRenderingAllNodes(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{Not(Column("flag")), "(NOT flag)"},
		{Neg(Column("x")), "(-x)"},
		{&IsNull{Operand: Column("x")}, "(x IS NULL)"},
		{&IsNull{Operand: Column("x"), Negated: true}, "(x IS NOT NULL)"},
		{&In{Operand: Column("x"), List: []Expr{Lit(dataset.Int(1)), Lit(dataset.Int(2))}},
			"(x IN (1, 2))"},
		{&In{Operand: Column("x"), List: []Expr{Lit(dataset.Str("a"))}, Negated: true},
			"(x NOT IN ('a'))"},
		{&Between{Operand: Column("x"), Lo: Lit(dataset.Int(1)), Hi: Lit(dataset.Int(9))},
			"(x BETWEEN 1 AND 9)"},
		{&Between{Operand: Column("x"), Lo: Lit(dataset.Int(1)), Hi: Lit(dataset.Int(9)), Negated: true},
			"(x NOT BETWEEN 1 AND 9)"},
		{&Case{
			Whens: []When{{Cond: Bin(OpGt, Column("x"), Lit(dataset.Int(0))), Result: Lit(dataset.Str("pos"))}},
			Else:  Lit(dataset.Str("neg")),
		}, "CASE WHEN (x > 0) THEN 'pos' ELSE 'neg' END"},
		{Func("ROUND", Column("x"), Lit(dataset.Int(2))), "ROUND(x, 2)"},
		{Func("CAST", Column("x"), Lit(dataset.Str("string"))), "CAST(x AS string)"},
		{Func("CAST", Column("x"), Lit(dataset.Str("big int"))), `CAST(x AS "big int")`},
		{Lit(dataset.Null), "NULL"},
		{Lit(dataset.Str("it's")), "'it''s'"},
		{Bin(OpConcat, Column("a"), Column("b")), "(a || b)"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestColumnsCollectionAllNodes(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{Not(Column("a")), "a"},
		{&IsNull{Operand: Column("b")}, "b"},
		{&Between{Operand: Column("a"), Lo: Column("b"), Hi: Column("c")}, "a,b,c"},
		{&Case{
			Whens: []When{{Cond: Column("a"), Result: Column("b")}},
			Else:  Column("c"),
		}, "a,b,c"},
		{Func("CONCAT", Column("a"), Column("b")), "a,b"},
		{Lit(dataset.Int(1)), ""},
	}
	for _, c := range cases {
		got := strings.Join(c.e.Columns(nil), ",")
		if got != c.want {
			t.Errorf("Columns(%s) = %q, want %q", c.e, got, c.want)
		}
	}
}

func TestUnaryEvalErrors(t *testing.T) {
	if _, err := Neg(Lit(dataset.Str("x"))).Eval(nil); err == nil {
		t.Error("negating a string should error")
	}
	if _, err := Not(Lit(dataset.Str("x"))).Eval(nil); err == nil {
		t.Error("NOT of a string should error")
	}
	if got, _ := Not(Lit(dataset.Bool(true))).Eval(nil); got.B {
		t.Error("NOT true should be false")
	}
	if got, _ := Not(Lit(dataset.Int(0))).Eval(nil); !got.B {
		t.Error("NOT 0 should be true")
	}
}

func TestFunctionTypeErrors(t *testing.T) {
	bad := []Expr{
		Func("ABS", Lit(dataset.Str("x"))),
		Func("POW", Lit(dataset.Str("x")), Lit(dataset.Int(2))),
		Func("ROUND", Lit(dataset.Str("x"))),
		Func("SUBSTR", Lit(dataset.Str("x")), Lit(dataset.Str("y"))),
		Func("YEAR", Lit(dataset.Int(3))),
		Func("CAST", Lit(dataset.Int(3)), Lit(dataset.Str("madeuptype"))),
		Func("ABS", Lit(dataset.Int(1)), Lit(dataset.Int(2))), // arity
		Func("ROUND"), // arity
	}
	for _, e := range bad {
		if _, err := e.Eval(nil); err == nil {
			t.Errorf("%s should error", e)
		}
	}
}

func TestMoreErrorPropagation(t *testing.T) {
	// Errors inside operands surface through every composite node.
	bad := Column("missing")
	env := MapEnv{}
	nodes := []Expr{
		Bin(OpAdd, bad, Lit(dataset.Int(1))),
		Bin(OpAnd, bad, Lit(dataset.Bool(true))),
		Bin(OpOr, Lit(dataset.Bool(false)), bad),
		Not(bad),
		&IsNull{Operand: bad},
		&In{Operand: bad, List: []Expr{Lit(dataset.Int(1))}},
		&In{Operand: Lit(dataset.Int(1)), List: []Expr{bad}},
		&Between{Operand: bad, Lo: Lit(dataset.Int(1)), Hi: Lit(dataset.Int(2))},
		&Between{Operand: Lit(dataset.Int(1)), Lo: bad, Hi: Lit(dataset.Int(2))},
		&Case{Whens: []When{{Cond: bad, Result: Lit(dataset.Int(1))}}},
		Func("ABS", bad),
	}
	for _, e := range nodes {
		if _, err := e.Eval(env); err == nil {
			t.Errorf("%s should propagate the lookup error", e)
		}
	}
}

func TestStringPlusConcatenation(t *testing.T) {
	got, err := Bin(OpAdd, Lit(dataset.Str("a")), Lit(dataset.Int(1))).Eval(nil)
	if err != nil || got.S != "a1" {
		t.Errorf("string + = %v, %v", got, err)
	}
	if _, err := Bin(OpSub, Lit(dataset.Str("a")), Lit(dataset.Int(1))).Eval(nil); err == nil {
		t.Error("string - should error")
	}
}
