package conformance

import (
	"slices"
	"strings"
	"testing"

	"datachat/internal/core"
	"datachat/internal/dag"
	"datachat/internal/dataset"
	"datachat/internal/gel"
	"datachat/internal/skills"
)

// bareSentence renders a skill's first sentence form with every slot filled
// by the dataset name d (or a number, a list of d, a condition), and reports
// whether the sentence names its datasets.
func bareSentence(t *testing.T, reg *skills.Registry, def *skills.Definition) (string, bool) {
	t.Helper()
	if len(def.GEL) == 0 {
		return "Compute the count of records", false
	}
	inv := skills.Invocation{Skill: def.Name, Args: skills.Args{}}
	form := &def.GEL[0]
	for k, v := range form.Implies {
		inv.Args[k] = v
	}
	for _, seg := range form.Segments() {
		switch {
		case seg.Literal != "":
		case seg.Slot == "inputs":
			inv.Inputs = []string{"d", "d"}
		case seg.Kind == skills.SlotNumber:
			inv.Args[seg.Slot] = 1
		case seg.Kind == skills.SlotList:
			inv.Args[seg.Slot] = []string{"d"}
		case seg.Kind == skills.SlotRest:
			inv.Args[seg.Slot] = "d = 1"
		default:
			inv.Args[seg.Slot] = "d"
		}
	}
	s, err := reg.RenderGEL(inv)
	if err != nil {
		t.Fatalf("%s: %v", def.Name, err)
	}
	return s, len(inv.Inputs) > 0
}

// binding classifies what a route made of a sentence: it acts on the current
// dataset, names its own inputs (or needs none), or fails for want of one.
func binding(inputs []string, current string, err error) string {
	switch {
	case err != nil:
		return "no dataset"
	case current != "" && slices.Equal(inputs, []string{current}):
		return "current"
	}
	return "own"
}

// TestOneCurrentDatasetRule runs every skill's bare sentence, with and
// without a current dataset, through the console's gel.Runner,
// core.ParseGEL and the conformance lowering: all three read the skills'
// one current-dataset rule, so all three bind it alike.
func TestOneCurrentDatasetRule(t *testing.T) {
	reg, parser := frontEnds()
	p := core.New()
	for _, name := range reg.Names() {
		def, _ := reg.Lookup(name)
		sentence, named := bareSentence(t, reg, def)
		for _, withCurrent := range []bool{false, true} {
			// The core route names the current dataset d; the lowering and
			// the console make the "Use the dataset d" step's output current.
			current, lowerCurrent, lines, want := "", "", []string{sentence}, "no dataset"
			if withCurrent {
				current, lowerCurrent, lines, want = "d", "s1", []string{"Use the dataset d", sentence}, "current"
			}
			if def.Standalone || named {
				want = "own"
			}

			inv, err := p.ParseGEL(sentence, current)
			viaCore := binding(inv.Inputs, current, err)

			var lowered []string
			invs, err := lowerGEL(strings.Join(lines, "\n"), reg, parser)
			if err == nil {
				lowered = invs[len(invs)-1].Inputs
			}
			viaLower := binding(lowered, lowerCurrent, err)

			ctx := skills.NewContext()
			ctx.Datasets["d"] = dataset.MustNewTable("d", dataset.IntColumn("d", []int64{1, 2}, nil))
			r := gel.NewRunner(p.Parser, dag.NewExecutor(p.Registry, ctx), lines)
			if withCurrent {
				if _, err := r.Step(); err != nil {
					t.Fatal(err)
				}
			}
			runnerCurrent := r.CurrentDataset()
			// The step may fail to execute (no model, no snapshot store);
			// only a sentence the rule refuses never becomes a node.
			step, _ := r.Step()
			var ran []string
			err = step.Err
			if step.NodeID >= 0 {
				node, _ := r.Graph().Node(step.NodeID)
				ran, err = node.Inv.Inputs, nil
			}
			viaRunner := binding(ran, runnerCurrent, err)

			if viaCore != want || viaLower != want || viaRunner != want {
				t.Errorf("%q (current dataset %v): core %s, lowering %s, console %s; the rule says %s",
					sentence, withCurrent, viaCore, viaLower, viaRunner, want)
			}
		}
	}
}
