package gel

import (
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"time"

	"datachat/internal/dataset"
	"datachat/internal/skills"
)

// Parser parses GEL sentences into skill invocations.
type Parser struct {
	// Registry declares the sentence forms the parser reads.
	Registry *skills.Registry
	// Now anchors relative date phrases ("Today - 10 years"). The zero
	// value selects a fixed date so recipes replay deterministically.
	Now time.Time

	patterns []pattern
}

// defaultNow pins relative dates when no clock is configured.
var defaultNow = time.Date(2023, 6, 18, 0, 0, 0, 0, time.UTC) // SIGMOD'23 week

// NewParser collects the sentence forms of every skill in the registry, in
// registration order; each skill lists its own most specific form first.
// Skills registered later are not parsed.
func NewParser(reg *skills.Registry) *Parser {
	p := &Parser{Registry: reg}
	for _, name := range reg.Names() {
		def, _ := reg.Lookup(name) // a registered name
		for i := range def.GEL {
			p.patterns = append(p.patterns, pattern{def: def, form: &def.GEL[i]})
		}
	}
	return p
}

func (p *Parser) now() time.Time {
	if p.Now.IsZero() {
		return defaultNow
	}
	return p.Now
}

// Parse converts one GEL sentence into a skill invocation. Dataset inputs
// named in the sentence (Concatenate, Join) land in Inv.Inputs; other
// skills leave Inputs empty for the caller to bind to the current dataset
// (skills.Registry.BindCurrent).
func (p *Parser) Parse(line string) (skills.Invocation, error) {
	tokens := tokenize(strings.TrimSpace(line))
	if len(tokens) == 0 {
		return skills.Invocation{}, fmt.Errorf("gel: empty sentence")
	}
	if strings.EqualFold(tokens[0], "compute") {
		return p.parseCompute(tokens)
	}
	for _, pat := range p.patterns {
		caps, ok := pat.match(tokens)
		if !ok {
			continue
		}
		inv := skills.Invocation{Skill: pat.def.Name, Args: skills.Args{}}
		for k, v := range caps {
			if k == "inputs" {
				inv.Inputs, _ = v.([]string)
				continue
			}
			inv.Args[k] = p.convertCapture(k, v)
		}
		for k, v := range pat.form.Implies {
			inv.Args[k] = v
		}
		return inv, nil
	}
	return skills.Invocation{}, fmt.Errorf("gel: cannot understand %q; try 'Keep the rows where …' or another skill sentence", line)
}

// RoundTrip renders inv as GEL and parses the sentence back. It fails unless
// the parse reproduces inv — the same skill, inputs and arguments, free text
// compared token by token and Compute's aggregates by what they compute —
// and returns the sentence.
func (p *Parser) RoundTrip(inv skills.Invocation) (string, error) {
	sentence, err := p.Registry.RenderGEL(inv)
	if err != nil {
		return "", err
	}
	back, err := p.Parse(sentence)
	if err != nil {
		return sentence, fmt.Errorf("gel: %q does not parse back: %w", sentence, err)
	}
	if !p.sameInvocation(inv, back) {
		return sentence, fmt.Errorf("gel: %q parses back as %s %v %v, not %s %v %v",
			sentence, back.Skill, back.Inputs, back.Args, inv.Skill, inv.Inputs, inv.Args)
	}
	return sentence, nil
}

func (p *Parser) sameInvocation(a, b skills.Invocation) bool {
	if a.Skill != b.Skill || !slices.Equal(a.Inputs, b.Inputs) || len(a.Args) != len(b.Args) {
		return false
	}
	def, err := p.Registry.Lookup(a.Skill)
	if err != nil {
		return false
	}
	text := map[string]bool{}
	for i := range def.GEL {
		for _, seg := range def.GEL[i].Segments() {
			if seg.Literal == "" && seg.Kind == skills.SlotRest {
				text[seg.Slot] = true
			}
		}
	}
	for k, va := range a.Args {
		vb, ok := b.Args[k]
		switch {
		case !ok:
			return false
		case text[k]:
			sa, _ := va.(string)
			sb, _ := vb.(string)
			if !slices.Equal(tokenize(sa), tokenize(sb)) {
				return false
			}
		case a.Skill == "Compute" && k == "aggregates":
			aa, erra := a.Args.AggSpecs(k)
			ab, errb := b.Args.AggSpecs(k)
			if erra != nil || errb != nil || !slices.Equal(aa, ab) {
				return false
			}
		case !reflect.DeepEqual(va, vb):
			return false
		}
	}
	return true
}

// convertCapture post-processes captured values: numbers become numeric and
// conditions run through the friendly-phrase translator.
func (p *Parser) convertCapture(key string, v any) any {
	s, isStr := v.(string)
	if !isStr {
		return v
	}
	switch key {
	case "count", "steps", "k", "version", "bins":
		if n, err := strconv.Atoi(s); err == nil {
			return n
		}
		return s
	case "rate", "fraction", "size", "threshold":
		num := strings.TrimSuffix(s, "%")
		if f, err := strconv.ParseFloat(num, 64); err == nil {
			if num != s {
				return f / 100
			}
			return f
		}
		return s
	case "condition", "filter":
		return p.TranslateCondition(s)
	default:
		return s
	}
}

// parseCompute handles the irregular Compute sentence:
//
//	Compute the count of case_id and sum of amount for each a, b and call
//	the computed columns X and Y
func (p *Parser) parseCompute(tokens []string) (skills.Invocation, error) {
	if len(tokens) < 2 || !strings.EqualFold(tokens[1], "the") {
		return skills.Invocation{}, fmt.Errorf("gel: expected 'Compute the …'")
	}
	rest := tokens[2:]
	// Split off the alias clause.
	var aliases []string
	if i := indexPhrase(rest, "and", "call", "the", "computed", "columns"); i >= 0 {
		aliases = splitList(rest[i+5:])
		rest = rest[:i]
	}
	// Split off the grouping clause.
	var keys []string
	if i := indexPhrase(rest, "for", "each"); i >= 0 {
		keys = splitList(rest[i+2:])
		rest = rest[:i]
	}
	// What remains is "func of column (and func of column)*".
	var aggStrings []string
	var cur []string
	flush := func() {
		if len(cur) > 0 {
			aggStrings = append(aggStrings, strings.Join(cur, " "))
			cur = nil
		}
	}
	for _, tok := range rest {
		if strings.EqualFold(tok, "and") || tok == "," {
			flush()
			continue
		}
		cur = append(cur, tok)
	}
	flush()
	if len(aggStrings) == 0 {
		return skills.Invocation{}, fmt.Errorf("gel: Compute needs at least one aggregate like 'count of case_id'")
	}
	// Attach aliases positionally.
	aggs := make([]any, 0, len(aggStrings))
	for i, s := range aggStrings {
		if i < len(aliases) {
			s += " as " + aliases[i]
		}
		aggs = append(aggs, s)
	}
	inv := skills.Invocation{Skill: "Compute", Args: skills.Args{"aggregates": aggs}}
	if len(keys) > 0 {
		inv.Args["for_each"] = keys
	}
	// Validate eagerly so bad sentences fail at parse time.
	if _, err := inv.Args.AggSpecs("aggregates"); err != nil {
		return skills.Invocation{}, fmt.Errorf("gel: %w", err)
	}
	return inv, nil
}

func indexPhrase(tokens []string, phrase ...string) int {
	for i := 0; i+len(phrase) <= len(tokens); i++ {
		match := true
		for j, w := range phrase {
			if !strings.EqualFold(tokens[i+j], w) {
				match = false
				break
			}
		}
		if match {
			return i
		}
	}
	return -1
}

func splitList(tokens []string) []string {
	var out []string
	for _, tok := range tokens {
		if tok == "," || strings.EqualFold(tok, "and") {
			continue
		}
		out = append(out, unquote(tok))
	}
	return out
}

// TranslateCondition rewrites GEL's friendly condition phrases into SQL
// expressions the engine evaluates:
//
//	DATE is between the dates 01-01-2005 to 12-31-2020
//	DATE is after Today - 10 years
//	amount is at least 100
//
// Anything it does not recognize passes through as a SQL expression.
func (p *Parser) TranslateCondition(cond string) string {
	tokens := tokenize(cond)
	if len(tokens) >= 2 && strings.EqualFold(tokens[1], "is") {
		col := tokens[0]
		rest := tokens[2:]
		switch {
		case len(rest) >= 5 && strings.EqualFold(rest[0], "between") && strings.EqualFold(rest[1], "the") && strings.EqualFold(rest[2], "dates"):
			// col is between the dates D1 to D2
			if i := indexOfFold(rest, "to"); i > 3 {
				d1 := p.resolveDate(strings.Join(rest[3:i], " "))
				d2 := p.resolveDate(strings.Join(rest[i+1:], " "))
				if d1 != "" && d2 != "" {
					return fmt.Sprintf("%s BETWEEN '%s' AND '%s'", col, d1, d2)
				}
			}
		case len(rest) >= 2 && strings.EqualFold(rest[0], "after"):
			if d := p.resolveDate(strings.Join(rest[1:], " ")); d != "" {
				return fmt.Sprintf("%s > '%s'", col, d)
			}
		case len(rest) >= 2 && strings.EqualFold(rest[0], "before"):
			if d := p.resolveDate(strings.Join(rest[1:], " ")); d != "" {
				return fmt.Sprintf("%s < '%s'", col, d)
			}
		case len(rest) >= 3 && strings.EqualFold(rest[0], "at") && strings.EqualFold(rest[1], "least"):
			return fmt.Sprintf("%s >= %s", col, strings.Join(rest[2:], " "))
		case len(rest) >= 3 && strings.EqualFold(rest[0], "at") && strings.EqualFold(rest[1], "most"):
			return fmt.Sprintf("%s <= %s", col, strings.Join(rest[2:], " "))
		case len(rest) >= 2 && strings.EqualFold(rest[0], "not") && !strings.EqualFold(rest[1], "null"):
			return fmt.Sprintf("%s <> %s", col, quoteIfNeeded(strings.Join(rest[1:], " ")))
		case len(rest) == 2 && strings.EqualFold(rest[0], "not") && strings.EqualFold(rest[1], "null"):
			return col + " IS NOT NULL"
		case len(rest) == 1 && strings.EqualFold(rest[0], "null"):
			return col + " IS NULL"
		case len(rest) >= 1:
			return fmt.Sprintf("%s = %s", col, quoteIfNeeded(strings.Join(rest, " ")))
		}
	}
	return cond
}

func indexOfFold(tokens []string, word string) int {
	for i, tok := range tokens {
		if strings.EqualFold(tok, word) {
			return i
		}
	}
	return -1
}

func quoteIfNeeded(s string) string {
	if s == "" {
		return "''"
	}
	if s[0] == '\'' {
		return s
	}
	if skills.IsNumberToken(s) {
		return s
	}
	if strings.EqualFold(s, "true") || strings.EqualFold(s, "false") {
		return s
	}
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

// resolveDate turns a GEL date phrase into an ISO date, handling absolute
// dates (several formats) and "Today [- N years|months|days]". Returns ""
// when the phrase is not a date.
func (p *Parser) resolveDate(phrase string) string {
	phrase = strings.TrimSpace(phrase)
	if t, err := dataset.ParseTime(phrase); err == nil {
		return t.Format(dataset.TimeLayout)
	}
	tokens := tokenize(phrase)
	if len(tokens) == 0 || !strings.EqualFold(tokens[0], "today") {
		return ""
	}
	t := p.now()
	if len(tokens) == 1 {
		return t.Format(dataset.TimeLayout)
	}
	if len(tokens) != 4 || (tokens[1] != "-" && tokens[1] != "+") {
		return ""
	}
	n, err := strconv.Atoi(tokens[2])
	if err != nil {
		return ""
	}
	if tokens[1] == "-" {
		n = -n
	}
	switch strings.ToLower(strings.TrimSuffix(tokens[3], "s")) {
	case "year":
		t = t.AddDate(n, 0, 0)
	case "month":
		t = t.AddDate(0, n, 0)
	case "day":
		t = t.AddDate(0, 0, n)
	default:
		return ""
	}
	return t.Format(dataset.TimeLayout)
}

// Suggest returns autocomplete candidates for a partial GEL sentence
// (Figure 3c): the next literal keywords of any pattern the prefix could
// still match, plus column names when the cursor sits in a column slot.
func (p *Parser) Suggest(prefix string, columns []string) []string {
	tokens := tokenize(strings.TrimSpace(prefix))
	seen := map[string]bool{}
	var out []string
	add := func(s string) {
		if s != "" && !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, pat := range p.patterns {
		seg, ok := pat.next(tokens)
		switch {
		case !ok:
		case seg.Literal != "":
			add(strings.ToLower(seg.Literal))
		case pat.columnSlot(seg.Slot):
			for _, c := range columns {
				add(c)
			}
		default:
			add("<" + seg.Slot + ">")
		}
	}
	return out
}
