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
	"datachat/internal/pyapi"
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
		lowerParser = gel.MustNewParser(lowerReg)
	})
	return lowerReg, lowerParser
}

// Lower fills c.Steps: the canonical recipe-step program every route
// executes. Outputs are normalized to py-safe names s1, s2, ... so the
// same program renders back to GEL and the Python API losslessly.
func Lower(c *Case) error {
	reg, parser := frontEnds()
	var steps []recipe.Step
	var err error
	switch c.Dialect {
	case "gel":
		steps, err = lowerGEL(c.Body, reg, parser)
	case "pyapi":
		steps, err = lowerPyAPI(c.Body, reg)
	case "recipe":
		err = json.Unmarshal([]byte(c.Body), &steps)
		if err == nil && len(steps) == 0 {
			err = fmt.Errorf("recipe body has no steps")
		}
	case "phrase":
		steps, err = lowerPhrase(c)
	default:
		err = fmt.Errorf("unknown dialect %q", c.Dialect)
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

func lowerGEL(body string, reg *skills.Registry, parser *gel.Parser) ([]recipe.Step, error) {
	var steps []recipe.Step
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
		if len(inv.Inputs) == 0 && core.NeedsInput(inv.Skill) {
			if current == "" {
				return nil, fmt.Errorf("%q needs a dataset; use one first", line)
			}
			inv.Inputs = []string{current}
		}
		out := fmt.Sprintf("s%d", len(steps)+1)
		steps = append(steps, recipe.Step{Skill: inv.Skill, Inputs: inv.Inputs, Output: out, Args: inv.Args})
		if advancesCurrent(reg, inv.Skill) {
			current = out
		}
	}
	if len(steps) == 0 {
		return nil, fmt.Errorf("gel body has no sentences")
	}
	return steps, nil
}

func lowerPyAPI(body string, reg *skills.Registry) ([]recipe.Step, error) {
	prog, err := pyapi.Parse(body)
	if err != nil {
		return nil, err
	}
	invs, err := pyapi.NewTranslator(reg).Invocations(prog)
	if err != nil {
		return nil, err
	}
	steps := make([]recipe.Step, len(invs))
	for i, inv := range invs {
		steps[i] = recipe.Step{Skill: inv.Skill, Inputs: inv.Inputs, Output: inv.Output, Args: inv.Args}
	}
	return steps, nil
}

func lowerPhrase(c *Case) ([]recipe.Step, error) {
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
	var steps []recipe.Step
	for _, line := range strings.Split(c.Body, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		trans, err := tr.Translate(line, t)
		if err != nil {
			return nil, err
		}
		inv := trans.Invocation
		if len(inv.Inputs) == 0 {
			inv.Inputs = []string{c.PhraseDataset}
		}
		steps = append(steps, recipe.Step{Skill: inv.Skill, Inputs: inv.Inputs,
			Output: fmt.Sprintf("s%d", len(steps)+1), Args: inv.Args})
	}
	if len(steps) == 0 {
		return nil, fmt.Errorf("phrase body has no sentences")
	}
	return steps, nil
}

// advancesCurrent mirrors gel.Runner.record: ingestion skills and
// table-producing transforms advance the working dataset; exploration,
// visualization, and collaboration skills produce side results without
// moving it.
func advancesCurrent(reg *skills.Registry, skill string) bool {
	switch skill {
	case "UseDataset", "LoadData", "LoadTable", "SampleTable",
		"UseSnapshot", "CreateSnapshot", "RefreshSnapshot":
		return true
	case "ListDatasets", "Define":
		return false
	}
	def, err := reg.Lookup(skill)
	if err != nil {
		return false
	}
	switch def.Category {
	case skills.DataExploration, skills.DataVisualization, skills.Collaboration:
		return false
	}
	return true
}
