package skills

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// RenderPython renders an invocation as a DataChat Python API call — the
// polyglot dialect the NL2Code generator targets (§4.1, Figure 3b).
func (r *Registry) RenderPython(inv Invocation) (string, error) {
	def, err := r.Lookup(inv.Skill)
	if err != nil {
		return "", err
	}
	receiver := "dc"
	if len(inv.Inputs) > 0 {
		receiver = sanitizePyIdent(inv.Inputs[0])
	}
	var argParts []string
	// Emit parameters in the declared order for stable rendering.
	emitted := map[string]bool{}
	for _, p := range def.Params {
		v, ok := inv.Args[p.Name]
		if !ok {
			continue
		}
		emitted[p.Name] = true
		rendered, err := pyValue(def, p.Name, v, inv)
		if err != nil {
			return "", err
		}
		argParts = append(argParts, fmt.Sprintf("%s = %s", p.Name, rendered))
	}
	// Any extra args, name-sorted for determinism.
	var extras []string
	for k := range inv.Args {
		if !emitted[k] {
			extras = append(extras, k)
		}
	}
	sort.Strings(extras)
	for _, k := range extras {
		rendered, err := pyValue(def, k, inv.Args[k], inv)
		if err != nil {
			return "", err
		}
		argParts = append(argParts, fmt.Sprintf("%s = %s", k, rendered))
	}
	if len(inv.Inputs) > 1 {
		others := make([]string, 0, len(inv.Inputs)-1)
		for _, name := range inv.Inputs[1:] {
			others = append(others, sanitizePyIdent(name))
		}
		argParts = append([]string{"with_datasets = [" + strings.Join(others, ", ") + "]"}, argParts...)
	}
	call := fmt.Sprintf("%s.%s(%s)", receiver, def.PyName, strings.Join(argParts, ", "))
	if inv.Output != "" {
		return sanitizePyIdent(inv.Output) + " = " + call, nil
	}
	return call, nil
}

func pyValue(def *Definition, name string, v any, inv Invocation) (string, error) {
	if name == "aggregates" || name == "measure" {
		aggs, err := inv.Args.AggSpecs(name)
		if err != nil {
			return "", err
		}
		parts := make([]string, len(aggs))
		for i, a := range aggs {
			ctor := strings.Title(strings.ToLower(a.Func))
			if strings.EqualFold(a.Func, "count_distinct") {
				ctor = "CountDistinct"
			}
			col := a.Column
			if col == "" {
				col = "*"
			}
			if a.As != "" {
				parts[i] = fmt.Sprintf("%s(%q, as_name=%q)", ctor, col, a.As)
			} else {
				parts[i] = fmt.Sprintf("%s(%q)", ctor, col)
			}
		}
		return "[" + strings.Join(parts, ", ") + "]", nil
	}
	switch vv := v.(type) {
	case string:
		return strconv.Quote(vv), nil
	case []string:
		parts := make([]string, len(vv))
		for i, s := range vv {
			parts[i] = strconv.Quote(s)
		}
		return "[" + strings.Join(parts, ", ") + "]", nil
	case []any:
		parts := make([]string, len(vv))
		for i, item := range vv {
			s, ok := item.(string)
			if !ok {
				parts[i] = fmt.Sprint(item)
				continue
			}
			parts[i] = strconv.Quote(s)
		}
		return "[" + strings.Join(parts, ", ") + "]", nil
	case float64:
		return strconv.FormatFloat(vv, 'g', -1, 64), nil
	case int:
		return strconv.Itoa(vv), nil
	case bool:
		if vv {
			return "True", nil
		}
		return "False", nil
	default:
		return fmt.Sprint(v), nil
	}
}

func sanitizePyIdent(name string) string {
	var b strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "data"
	}
	return b.String()
}
