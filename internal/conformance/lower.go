package conformance

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"datachat/internal/core"
	"datachat/internal/dataset"
	"datachat/internal/gel"
	"datachat/internal/phrase"
	"datachat/internal/recipe"
	"datachat/internal/semantic"
	"datachat/internal/skills"
)

// The lowering front ends are stateless; share one registry + parser
// across every case.
var (
	lowerOnce   sync.Once
	lowerReg    *skills.Registry
	lowerParser *gel.Parser
)

func frontEnds() (*skills.Registry, *gel.Parser) {
	lowerOnce.Do(func() {
		lowerReg = skills.NewRegistry()
		lowerParser = gel.NewParser(lowerReg)
	})
	return lowerReg, lowerParser
}

// Lower fills c.Steps: the canonical recipe-step program every route
// executes. Outputs are normalized to py-safe names s1, s2, ... so the
// same program renders back to GEL and the Python API losslessly.
func Lower(c *Case) error {
	reg, parser := frontEnds()
	var invs []skills.Invocation
	var steps []recipe.Step
	var err error
	switch c.Dialect {
	case "gel":
		invs, err = lowerGEL(c.Body, reg, parser)
	case "pyapi":
		invs, err = core.LowerPython(reg, c.Body)
	case "recipe":
		err = json.Unmarshal([]byte(c.Body), &steps)
	case "phrase":
		invs, err = lowerPhrase(c)
	default:
		err = fmt.Errorf("unknown dialect %q", c.Dialect)
	}
	for _, inv := range invs {
		steps = append(steps, recipe.Step{Skill: inv.Skill, Inputs: inv.Inputs, Output: inv.Output, Args: inv.Args})
	}
	if err == nil && len(steps) == 0 {
		err = fmt.Errorf("%s body has no steps", c.Dialect)
	}
	if err != nil {
		return fmt.Errorf("conformance: lowering case %q: %w", c.Name, err)
	}
	for i := range steps {
		if steps[i].Output == "" {
			steps[i].Output = fmt.Sprintf("s%d", i+1)
		}
	}
	c.Steps = steps
	return nil
}

// lowerGEL parses a GEL body line by line under the skills' current-dataset
// rule, naming each step's output sN.
func lowerGEL(body string, reg *skills.Registry, parser *gel.Parser) ([]skills.Invocation, error) {
	var invs []skills.Invocation
	current := ""
	for _, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		inv, err := parser.Parse(line)
		if err != nil {
			return nil, err
		}
		if err := reg.BindCurrent(&inv, current); err != nil {
			return nil, err
		}
		inv.Output = fmt.Sprintf("s%d", len(invs)+1)
		invs = append(invs, inv)
		if def, err := reg.Lookup(inv.Skill); err == nil && def.AdvancesCurrent() {
			current = inv.Output
		}
	}
	return invs, nil
}

func lowerPhrase(c *Case) ([]skills.Invocation, error) {
	var csv string
	for _, f := range c.Fixtures {
		if f.Name == c.PhraseDataset {
			csv = f.CSV
		}
	}
	if csv == "" {
		return nil, fmt.Errorf("phrase dataset %q is not a fixture", c.PhraseDataset)
	}
	t, err := dataset.ReadCSVString(c.PhraseDataset, csv)
	if err != nil {
		return nil, err
	}
	// A phrase session may hold several statements, one per line. The
	// phrase surface is Visualize-only — statements answer questions about
	// the dataset without transforming it — so every line lowers against
	// the same fixture schema and defaults its input to the same dataset.
	tr := &phrase.Translator{Layer: semantic.NewLayer()}
	var invs []skills.Invocation
	for _, line := range strings.Split(c.Body, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		trans, err := tr.Translate(line, t)
		if err != nil {
			return nil, err
		}
		invs = append(invs, core.PhraseInvocation(trans, c.PhraseDataset))
	}
	return invs, nil
}
