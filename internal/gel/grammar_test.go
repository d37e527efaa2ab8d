package gel

import (
	"reflect"
	"strings"
	"testing"

	"datachat/internal/skills"
)

// TestGrammarConsistency checks that every declared sentence form compiles:
// registration compiles each skill's forms, every skill but Compute (parsed
// by hand) declares at least one, and a malformed form is refused.
func TestGrammarConsistency(t *testing.T) {
	for _, name := range reg.Names() {
		def, _ := reg.Lookup(name)
		if len(def.GEL) == 0 && name != "Compute" {
			t.Errorf("%s declares no GEL sentence", name)
		}
		for i := range def.GEL {
			if len(def.GEL[i].Segments()) == 0 {
				t.Errorf("%s form %q compiled to nothing", name, def.GEL[i].Template)
			}
		}
	}
	params := []skills.ParamSpec{{Name: "x"}, {Name: "y"}}
	for _, bad := range []skills.Form{
		{Template: "Frob {x:float}"},
		{Template: "Frob {z}"},
		{Template: "Frob {x:rest} now"},
		{Template: "Frob {x:list} {y}"},
		{Template: "Frob {x}", Implies: skills.Args{"z": true}},
	} {
		def := &skills.Definition{Name: "Frob", Params: params, GEL: []skills.Form{bad}}
		if err := skills.NewRegistry().Register(def); err == nil || !strings.Contains(err.Error(), bad.Template) {
			t.Errorf("Register accepted the form %q (err %v)", bad.Template, err)
		}
	}
}

// TestEveryGrammarTemplateParsesItsOwnShape fills every declared sentence
// form with each kind of value and checks the parser maps the sentence back
// to the form's own skill, with the values it was filled with and the
// arguments the form implies — the grammar's own round trip.
func TestEveryGrammarTemplateParsesItsOwnShape(t *testing.T) {
	p := parser(t)
	eachFilledForm(func(def *skills.Definition, form *skills.Form, v formValue, sentence string) {
		inv, err := p.Parse(sentence)
		if err != nil {
			t.Errorf("form %q: %q does not parse: %v", form.Template, sentence, err)
			return
		}
		if inv.Skill != def.Name {
			t.Errorf("form %q: %q parsed as %s", form.Template, sentence, inv.Skill)
			return
		}
		for _, seg := range form.Segments() {
			got, want := inv.Args[seg.Slot], any(v.word)
			switch {
			case seg.Literal != "", seg.Kind == skills.SlotNumber, seg.Kind == skills.SlotRest:
				continue
			case seg.Slot == "inputs":
				got = inv.Inputs
				fallthrough
			case seg.Kind == skills.SlotList:
				want = v.list
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("form %q: %q captured %s = %#v, want %#v", form.Template, sentence, seg.Slot, got, want)
			}
		}
		for k, want := range form.Implies {
			if inv.Args[k] != want {
				t.Errorf("form %q: %q does not imply %s = %v", form.Template, sentence, k, want)
			}
		}
	})
}
