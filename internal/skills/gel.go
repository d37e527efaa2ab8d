package skills

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
)

// SlotKind types a slot of a GEL sentence form.
type SlotKind int

// The slot kinds a form template writes as {x}, {x:number}, {x:list} and
// {x:rest}.
const (
	SlotWord   SlotKind = iota // one token, quoted when it holds a space, comma or quote
	SlotNumber                 // one numeric token
	SlotList                   // words separated by commas or "and", up to the next literal
	SlotRest                   // free text to the end of the sentence
)

// Segment is one element of a compiled form: a literal word or a slot.
type Segment struct {
	// Literal is the word as the template writes it ("," included); "" for
	// a slot.
	Literal string
	Slot    string
	Kind    SlotKind
	// Next is the literal that follows the segment ("" at the end or
	// before a slot): the word that ends a list.
	Next string
}

// Form is one GEL sentence form of a skill: a template of literal words and
// typed slots, plus the arguments every sentence of the form implies (the
// "in descending order" variant of SortRows implies descending). The
// {inputs:list} slot names the invocation's datasets; every other slot is the
// argument of its name. Register compiles the template.
type Form struct {
	Template string
	Implies  Args

	segments []Segment
}

// Segments returns the compiled template.
func (f *Form) Segments() []Segment { return f.segments }

var slotKinds = map[string]SlotKind{"": SlotWord, "number": SlotNumber, "list": SlotList, "rest": SlotRest}

// compile reads the template against the skill's parameters — the one place
// the template syntax is read.
func (f *Form) compile(def *Definition) error {
	params := map[string]bool{"inputs": true}
	for _, p := range def.Params {
		params[p.Name] = true
	}
	bad := func(format string, a ...any) error {
		return fmt.Errorf("skills: %s sentence %q: %s", def.Name, f.Template, fmt.Sprintf(format, a...))
	}
	f.segments = nil
	for _, word := range strings.Fields(strings.ReplaceAll(f.Template, ",", " , ")) {
		seg := Segment{Literal: word}
		if strings.HasPrefix(word, "{") && strings.HasSuffix(word, "}") {
			name, kind, _ := strings.Cut(word[1:len(word)-1], ":")
			k, ok := slotKinds[kind]
			if !ok || !params[name] {
				return bad("slot %s is not a parameter of a known kind", word)
			}
			seg = Segment{Slot: name, Kind: k}
		}
		if n := len(f.segments); n > 0 {
			// Free text runs to the end; a list runs to the next word.
			prev := &f.segments[n-1]
			if prev.Literal == "" && (prev.Kind == SlotRest || prev.Kind == SlotList && seg.Literal == "") {
				return bad("{%s} must end the sentence or precede a word", prev.Slot)
			}
			prev.Next = seg.Literal
		}
		f.segments = append(f.segments, seg)
	}
	for k := range f.Implies {
		if !params[k] {
			return bad("implies %q, which is not a parameter", k)
		}
	}
	return nil
}

// RenderGEL renders an invocation as its GEL sentence — the controlled
// natural language every recipe step is shown in (§2.3): the first of the
// skill's forms that carries the whole invocation, so the sentence parses
// back to it. An invocation no form carries is an error, never a lossy
// sentence. Compute's irregular sentence is rendered by hand.
func (r *Registry) RenderGEL(inv Invocation) (string, error) {
	def, err := r.Lookup(inv.Skill)
	if err != nil {
		return "", err
	}
	if def.Name == "Compute" {
		return renderComputeGEL(inv)
	}
	for i := range def.GEL {
		if s, ok := def.GEL[i].render(inv); ok {
			return s, nil
		}
	}
	return "", fmt.Errorf("skills: no GEL sentence of %s carries the arguments %v", def.Name, inv.Args)
}

// render fills the form when it carries inv: every slot has a value of its
// kind, every implied argument holds, and inv sets no other argument.
func (f *Form) render(inv Invocation) (string, bool) {
	carried := len(f.Implies)
	for k, v := range f.Implies {
		if inv.Args[k] != v {
			return "", false
		}
	}
	var b strings.Builder
	for _, seg := range f.segments {
		word, ok := seg.Literal, true
		switch {
		case seg.Literal != "":
		case seg.Slot == "inputs":
			word, ok = joinAnd(quoteItems(inv.Inputs, seg.Next)), len(inv.Inputs) > 0
		default:
			word, ok = slotText(seg.Kind, inv.Args, seg.Slot, seg.Next)
			carried++
		}
		if !ok {
			return "", false
		}
		if b.Len() > 0 && seg.Literal != "," {
			b.WriteByte(' ')
		}
		b.WriteString(word)
	}
	for _, v := range inv.Args {
		if !isUnset(v) {
			carried--
		}
	}
	return b.String(), carried == 0
}

// isUnset reports whether an argument says nothing a sentence must carry: a
// false flag or an empty list.
func isUnset(v any) bool {
	switch v := v.(type) {
	case nil:
		return true
	case bool:
		return !v
	case []string:
		return len(v) == 0
	case []any:
		return len(v) == 0
	}
	return false
}

// slotText writes args[key] in a slot of the given kind, or reports that the
// slot cannot carry it.
func slotText(kind SlotKind, args Args, key, stop string) (string, bool) {
	switch kind {
	case SlotList:
		items, err := args.StringList(key)
		return strings.Join(quoteItems(items, stop), ", "), err == nil && len(items) > 0
	case SlotRest:
		s, ok := args[key].(string)
		return s, ok && strings.TrimSpace(s) != ""
	}
	switch v := args[key].(type) {
	case string:
		if kind == SlotNumber {
			return v, IsNumberToken(v)
		}
		return quoteWord(v), true
	case bool:
		return strconv.FormatBool(v), kind == SlotWord
	case int:
		return strconv.Itoa(v), true
	case int64:
		return strconv.FormatInt(v, 10), true
	case float64:
		return strconv.FormatFloat(v, 'f', -1, 64), !math.IsNaN(v) && !math.IsInf(v, 0)
	}
	return "", false
}

// IsNumberToken reports whether a token fills a {x:number} slot: digits
// with at most one point, an optional leading sign, an optional trailing %.
func IsNumberToken(tok string) bool {
	if tok == "" {
		return false
	}
	dot := false
	for i := 0; i < len(tok); i++ {
		c := tok[i]
		switch {
		case c >= '0' && c <= '9':
		case c == '.' && !dot:
			dot = true
		case (c == '-' || c == '+') && i == 0 && len(tok) > 1:
		case c == '%' && i == len(tok)-1:
		default:
			return false
		}
	}
	return true
}

// quoteWord writes a value so the GEL tokenizer reads it back as one token:
// as is, or — when it is empty or holds a space, comma or quote — in single
// quotes with its own single quotes doubled.
func quoteWord(s string) string {
	if s != "" && !strings.ContainsFunc(s, func(r rune) bool {
		return unicode.IsSpace(r) || r == ',' || r == '\'' || r == '"'
	}) {
		return s
	}
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

// quoteItems quotes list items, including the words a list reads as its
// separator ("and") or its end (stop).
func quoteItems(items []string, stop string) []string {
	out := make([]string, len(items))
	for i, item := range items {
		out[i] = quoteWord(item)
		if out[i] == item && (strings.EqualFold(item, "and") || strings.EqualFold(item, stop)) {
			out[i] = "'" + item + "'"
		}
	}
	return out
}

func renderComputeGEL(inv Invocation) (string, error) {
	aggs, err := inv.Args.AggSpecs("aggregates")
	if err != nil {
		return "", err
	}
	parts := make([]string, len(aggs))
	var aliases []string
	for i, a := range aggs {
		col := a.Column
		if col == "*" || col == "" {
			col = "records"
		}
		parts[i] = fmt.Sprintf("%s of %s", strings.ToLower(a.Func), col)
		if a.As != "" {
			aliases = append(aliases, quoteWord(a.As))
		}
	}
	sentence := "Compute the " + joinAnd(parts)
	if keys := inv.Args.StringListOr("for_each"); len(keys) > 0 {
		sentence += " for each " + joinAnd(quoteItems(keys, ""))
	}
	if len(aliases) > 0 {
		sentence += " and call the computed columns " + joinAnd(aliases)
	}
	return sentence, nil
}

func joinAnd(parts []string) string {
	switch len(parts) {
	case 0:
		return ""
	case 1:
		return parts[0]
	default:
		return strings.Join(parts[:len(parts)-1], ", ") + " and " + parts[len(parts)-1]
	}
}

// BindCurrent applies GEL's current-dataset rule to a parsed sentence: one
// that names no dataset acts on current, unless its skill is Standalone. It
// fails when the sentence needs a dataset and current is "".
func (r *Registry) BindCurrent(inv *Invocation, current string) error {
	if len(inv.Inputs) > 0 {
		return nil
	}
	def, err := r.Lookup(inv.Skill)
	if err != nil || def.Standalone {
		return err
	}
	if current == "" {
		return fmt.Errorf("skills: %s needs a dataset; load or use one first", def.Name)
	}
	inv.Inputs = []string{current}
	return nil
}

// AdvancesCurrent reports whether the table a sentence of the skill produces
// becomes the current dataset. Exploration, visualization and collaboration
// skills answer beside the working dataset and leave it where it is.
func (d *Definition) AdvancesCurrent() bool {
	switch d.Category {
	case DataExploration, DataVisualization, Collaboration:
		return false
	}
	return true
}
