// Package dataset provides the columnar table substrate that every other
// DataChat subsystem builds on: typed columns with null masks, tables with
// schema operations, and a CSV codec with type inference.
//
// The design mirrors the spreadsheet-without-limits model from the paper's
// §1: a Table is an immutable-by-convention collection of equal-length typed
// columns, cheap to project and slice, and safe to share across sessions.
package dataset

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// Type identifies the logical type of a column or value.
type Type int

// The supported logical types. TypeNull is used for untyped all-null columns
// and for the null Value.
const (
	TypeNull Type = iota
	TypeInt
	TypeFloat
	TypeString
	TypeBool
	TypeTime
)

// String returns the lower-case name of the type as used in schemas and GEL.
func (t Type) String() string {
	switch t {
	case TypeNull:
		return "null"
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	case TypeString:
		return "string"
	case TypeBool:
		return "bool"
	case TypeTime:
		return "time"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// Numeric reports whether the type supports arithmetic.
func (t Type) Numeric() bool { return t == TypeInt || t == TypeFloat }

// TimeLayout is the canonical wire format for time values in CSV and GEL.
const TimeLayout = "2006-01-02"

// TimeLayoutFull is accepted on input for timestamp-resolution values.
const TimeLayoutFull = "2006-01-02 15:04:05"

// Value is a dynamically typed scalar: the unit of data exchanged between
// rows, expressions, and skills. The zero Value is null.
type Value struct {
	Type Type
	I    int64
	F    float64
	S    string
	B    bool
	T    time.Time
}

// Null is the null value.
var Null = Value{}

// Int returns an int value.
func Int(v int64) Value { return Value{Type: TypeInt, I: v} }

// Float returns a float value.
func Float(v float64) Value { return Value{Type: TypeFloat, F: v} }

// Str returns a string value.
func Str(v string) Value { return Value{Type: TypeString, S: v} }

// Bool returns a bool value.
func Bool(v bool) Value { return Value{Type: TypeBool, B: v} }

// Time returns a time value.
func Time(v time.Time) Value { return Value{Type: TypeTime, T: v} }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.Type == TypeNull }

// AsFloat converts a numeric or bool value to float64. Returns false for
// null, string, and time values.
func (v Value) AsFloat() (float64, bool) {
	switch v.Type {
	case TypeInt:
		return float64(v.I), true
	case TypeFloat:
		return v.F, true
	case TypeBool:
		if v.B {
			return 1, true
		}
		return 0, true
	default:
		return 0, false
	}
}

// AsInt converts a numeric value to int64, truncating floats.
func (v Value) AsInt() (int64, bool) {
	switch v.Type {
	case TypeInt:
		return v.I, true
	case TypeFloat:
		return int64(v.F), true
	case TypeBool:
		if v.B {
			return 1, true
		}
		return 0, true
	default:
		return 0, false
	}
}

// String renders the value the way DataChat prints cells: nulls as "null",
// floats with minimal digits, times with the canonical layout.
func (v Value) String() string {
	switch v.Type {
	case TypeNull:
		return "null"
	case TypeInt:
		return strconv.FormatInt(v.I, 10)
	case TypeFloat:
		if math.IsNaN(v.F) {
			return "NaN"
		}
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TypeString:
		return v.S
	case TypeBool:
		return strconv.FormatBool(v.B)
	case TypeTime:
		if v.T.Hour() == 0 && v.T.Minute() == 0 && v.T.Second() == 0 {
			return v.T.Format(TimeLayout)
		}
		return v.T.Format(TimeLayoutFull)
	default:
		return "?"
	}
}

// Compare orders two values. Nulls sort before everything; values of
// different non-null types are coerced numerically when possible and
// otherwise ordered by their string rendering. It returns -1, 0, or 1.
func Compare(a, b Value) int {
	an, bn := a.IsNull(), b.IsNull()
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	if a.Type == b.Type {
		switch a.Type {
		case TypeInt:
			return cmpInt(a.I, b.I)
		case TypeFloat:
			return cmpFloat(a.F, b.F)
		case TypeString:
			return strings.Compare(a.S, b.S)
		case TypeBool:
			return cmpInt(b2i(a.B), b2i(b.B))
		case TypeTime:
			switch {
			case a.T.Before(b.T):
				return -1
			case a.T.After(b.T):
				return 1
			default:
				return 0
			}
		}
	}
	if af, ok := a.AsFloat(); ok {
		if bf, ok2 := b.AsFloat(); ok2 {
			return cmpFloat(af, bf)
		}
	}
	return strings.Compare(a.String(), b.String())
}

// Equal reports whether two values compare equal under Compare.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// ParseValue parses a string into the most specific Value it can represent:
// empty, "null" and "nan" parse as null, then bool, int, float, date, and
// finally string, which keeps the cell as given, untrimmed. This drives CSV
// type inference and GEL literal parsing.
//
// ParseValue looks at the trimmed cell's leading bytes before it parses and,
// where they settle the answer, runs only the one parse that can succeed. A
// cell that starts with a letter (or a non-ASCII byte) is a string unless it
// names null, a bool or an infinity; up to 18 digits after an optional sign
// are an int; the dddd-dd-dd and dddd-dd-dd dd:dd:dd shapes go straight to
// their layouts. Every other cell, and a date shape whose parse fails, takes
// the ordered tries of parseOrdered, which define the syntax.
func ParseValue(s string) Value {
	t := strings.TrimSpace(s)
	if t == "" {
		return Null
	}
	switch c := t[0]; {
	case c >= utf8.RuneSelf:
		return Str(s)
	case 'a' <= c|0x20 && c|0x20 <= 'z':
		switch {
		case foldEqual(t, "null"), foldEqual(t, "nan"):
			return Null
		case foldEqual(t, "true"):
			return Bool(true)
		case foldEqual(t, "false"):
			return Bool(false)
		case !foldEqual(t, "inf") && !foldEqual(t, "infinity"):
			return Str(s)
		}
	case isSmallInt(t):
		i, _ := strconv.ParseInt(t, 10, 64) // at most 18 digits: cannot fail
		return Int(i)
	default:
		if layout := isoLayout(t); layout != "" {
			if tm, err := time.Parse(layout, t); err == nil && inNanoRange(tm) {
				return Time(tm)
			}
		}
	}
	return parseOrdered(s, t)
}

// parseOrdered tries int, float and date in turn on the trimmed cell t, and
// falls back to the cell s as a string. Null and bool need no try: every such
// cell starts with a letter, and ParseValue has settled those.
func parseOrdered(s, t string) Value {
	if i, err := strconv.ParseInt(t, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(t, 64); err == nil {
		return Float(f)
	}
	if tm, err := ParseTime(t); err == nil {
		return Time(tm)
	}
	return Str(s)
}

// foldEqual reports whether s is the lower-case ASCII word w in any mix of
// cases. w must be letters only.
func foldEqual(s, w string) bool {
	if len(s) != len(w) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i]|0x20 != w[i] {
			return false
		}
	}
	return true
}

// isSmallInt reports whether t is an optional sign and 1 to 18 ASCII digits,
// which always fits an int64.
func isSmallInt(t string) bool {
	digits := t
	if t[0] == '+' || t[0] == '-' {
		digits = t[1:]
	}
	if len(digits) == 0 || len(digits) > 18 {
		return false
	}
	for i := 0; i < len(digits); i++ {
		if digits[i] < '0' || digits[i] > '9' {
			return false
		}
	}
	return true
}

// isoLayout returns TimeLayout for a dddd-dd-dd cell, TimeLayoutFull for a
// dddd-dd-dd dd:dd:dd one, and "" for any other shape.
func isoLayout(t string) string {
	switch {
	case fitsShape(t, "dddd-dd-dd"):
		return TimeLayout
	case fitsShape(t, "dddd-dd-dd dd:dd:dd"):
		return TimeLayoutFull
	}
	return ""
}

// fitsShape reports whether s matches shape byte for byte, where each 'd' in
// shape stands for any ASCII digit.
func fitsShape(s, shape string) bool {
	if len(s) != len(shape) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if shape[i] == 'd' {
			if s[i] < '0' || s[i] > '9' {
				return false
			}
		} else if s[i] != shape[i] {
			return false
		}
	}
	return true
}

// timeLayouts are the date formats ParseTime tries, in order.
var timeLayouts = []string{TimeLayout, TimeLayoutFull, "01-02-2006", "01/02/2006", time.RFC3339}

// The instants a time column can hold: it stores int64 unix nanoseconds.
var (
	minNanoTime = time.Unix(0, math.MinInt64)
	maxNanoTime = time.Unix(0, math.MaxInt64)
)

func inNanoRange(t time.Time) bool { return !t.Before(minNanoTime) && !t.After(maxNanoTime) }

// ParseTime parses the date formats DataChat accepts: 2006-01-02,
// 2006-01-02 15:04:05, 01-02-2006, 01/02/2006 and RFC3339
// (2006-01-02T15:04:05Z07:00). A date outside what a time column's int64
// unix nanoseconds can hold, 1677-09-21 to 2262-04-11, is an error, so such a
// cell stays text rather than wrapping round to another date.
func ParseTime(s string) (time.Time, error) {
	for _, layout := range timeLayouts {
		if t, err := time.Parse(layout, s); err == nil {
			if !inNanoRange(t) {
				return time.Time{}, fmt.Errorf("dataset: date %q is outside 1677-09-21 to 2262-04-11", s)
			}
			return t, nil
		}
	}
	return time.Time{}, fmt.Errorf("dataset: cannot parse %q as a date", s)
}

// Coerce converts v to the target type when a lossless or conventional
// conversion exists (int↔float, anything→string, string→parsed). It returns
// false when no sensible conversion exists.
func Coerce(v Value, t Type) (Value, bool) {
	if v.IsNull() {
		return Null, true
	}
	if v.Type == t {
		return v, true
	}
	switch t {
	case TypeFloat:
		if f, ok := v.AsFloat(); ok {
			return Float(f), true
		}
	case TypeInt:
		if v.Type == TypeFloat && v.F == math.Trunc(v.F) {
			return Int(int64(v.F)), true
		}
		if i, ok := v.AsInt(); ok && v.Type != TypeFloat {
			return Int(i), true
		}
	case TypeString:
		return Str(v.String()), true
	case TypeBool:
		if v.Type == TypeInt {
			return Bool(v.I != 0), true
		}
	case TypeTime:
		if v.Type == TypeString {
			if tm, err := ParseTime(v.S); err == nil {
				return Time(tm), true
			}
		}
	}
	return Null, false
}

// CommonType returns the narrowest type that can represent both inputs:
// equal types stay, int+float widens to float, null defers to the other,
// and anything else falls back to string.
func CommonType(a, b Type) Type {
	if a == b {
		return a
	}
	if a == TypeNull {
		return b
	}
	if b == TypeNull {
		return a
	}
	if a.Numeric() && b.Numeric() {
		return TypeFloat
	}
	return TypeString
}
