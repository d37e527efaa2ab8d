// Package recipe implements §2.3's recipes: the serialized skill DAG that
// accompanies every artifact. A recipe is a portable, JSON-serializable
// list of steps that can be rendered as GEL (the default human view),
// Python API code, or consolidated SQL; replayed to reproduce the artifact;
// and refreshed to recompute it on the latest data.
package recipe

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"datachat/internal/dag"
	"datachat/internal/faults"
	"datachat/internal/skills"
)

// Step is one serialized skill call.
type Step struct {
	// Skill is the canonical skill name.
	Skill string `json:"skill"`
	// Inputs are the dataset names consumed (outputs of earlier steps or
	// external session datasets).
	Inputs []string `json:"inputs,omitempty"`
	// Output is the dataset name produced.
	Output string `json:"output,omitempty"`
	// Args are the skill parameters.
	Args skills.Args `json:"args,omitempty"`
}

// Invocation is the step as a skill call, over its own copy of the inputs.
func (s Step) Invocation() skills.Invocation {
	return skills.Invocation{Skill: s.Skill, Inputs: append([]string{}, s.Inputs...), Output: s.Output, Args: s.Args}
}

// Recipe is a serialized skill DAG plus metadata.
type Recipe struct {
	// Name labels the recipe (usually the artifact name).
	Name string `json:"name"`
	// CreatedAt records when the recipe was captured.
	CreatedAt time.Time `json:"created_at"`
	// Steps are the skill calls in topological order.
	Steps []Step `json:"steps"`
}

// FromGraph serializes a DAG into a recipe stamped with the wall clock.
func FromGraph(name string, g *dag.Graph) (*Recipe, error) {
	return FromGraphAt(name, g, nil)
}

// FromGraphAt is FromGraph with an injected clock, so tests and replay
// tooling can produce byte-identical recipes. A nil clock uses real time.
// Output names are made explicit so the graph rebuilds with identical wiring.
func FromGraphAt(name string, g *dag.Graph, clock faults.Clock) (*Recipe, error) {
	if clock == nil {
		clock = faults.Real()
	}
	r := &Recipe{Name: name, CreatedAt: clock.Now().UTC()}
	for _, id := range g.Order() {
		node, err := g.Node(id)
		if err != nil {
			return nil, err
		}
		inv := *node.Inv
		step := Step{
			Skill:  inv.Skill,
			Inputs: append([]string{}, inv.Inputs...),
			Output: node.OutputName(),
			Args:   inv.Args,
		}
		// Rewrite parent references to the parents' explicit output names.
		for i, p := range node.Parents {
			if p >= 0 {
				parent, err := g.Node(p)
				if err != nil {
					return nil, err
				}
				step.Inputs[i] = parent.OutputName()
			}
		}
		r.Steps = append(r.Steps, step)
	}
	return r, nil
}

// Graph rebuilds the DAG from the recipe.
func (r *Recipe) Graph() *dag.Graph {
	g := dag.NewGraph()
	for _, step := range r.Steps {
		g.Add(step.Invocation())
	}
	return g
}

// MarshalJSON gives recipes a stable JSON form.
func (r *Recipe) MarshalJSON() ([]byte, error) {
	type alias Recipe
	return json.Marshal((*alias)(r))
}

// Fingerprint hashes the recipe's canonical content — name and steps, but
// not CreatedAt — so two captures of the same pipeline compare equal no
// matter when they were taken.
func (r *Recipe) Fingerprint() (string, error) {
	canon := struct {
		Name  string `json:"name"`
		Steps []Step `json:"steps"`
	}{Name: r.Name, Steps: r.Steps}
	data, err := json.Marshal(canon)
	if err != nil {
		return "", fmt.Errorf("recipe: fingerprinting: %w", err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(data)), nil
}

// Encode serializes the recipe as indented JSON.
func (r *Recipe) Encode() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Decode parses a JSON recipe. Callers receiving recipes from outside the
// platform should run Validate before replaying them.
func Decode(data []byte) (*Recipe, error) {
	var r Recipe
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("recipe: decoding: %w", err)
	}
	if len(r.Steps) == 0 {
		return nil, fmt.Errorf("recipe: %q has no steps", r.Name)
	}
	return &r, nil
}

// GEL renders the recipe as numbered GEL lines — the view users see first
// (Figure 2a).
func (r *Recipe) GEL(reg *skills.Registry) ([]string, error) {
	lines := make([]string, len(r.Steps))
	for i, step := range r.Steps {
		sentence, err := reg.RenderGEL(step.Invocation())
		if err != nil {
			return nil, fmt.Errorf("recipe: rendering step %d: %w", i+1, err)
		}
		lines[i] = sentence
	}
	return lines, nil
}

// Python renders the recipe as a DataChat Python API program.
func (r *Recipe) Python(reg *skills.Registry) (string, error) {
	lines := make([]string, len(r.Steps))
	for i, step := range r.Steps {
		code, err := reg.RenderPython(step.Invocation())
		if err != nil {
			return "", fmt.Errorf("recipe: rendering step %d: %w", i+1, err)
		}
		lines[i] = code
	}
	return strings.Join(lines, "\n"), nil
}

// SQL renders the consolidated SQL for the recipe's final step when the
// whole tail is relational; it errors otherwise (technical users get SQL
// "where possible", per §2.3).
func (r *Recipe) SQL(ex *dag.Executor) (string, error) {
	g := r.Graph()
	return ex.CompileSQL(g, g.Last())
}

// Validate statically checks a recipe against a skill registry before
// replay: every step must name a known skill, carry its required
// parameters, and consume datasets that are either earlier steps' outputs
// or plausibly external. Decoded recipes from outside the platform go
// through this before they touch an executor.
func (r *Recipe) Validate(reg *skills.Registry) error {
	if len(r.Steps) == 0 {
		return fmt.Errorf("recipe: %q has no steps", r.Name)
	}
	produced := map[string]bool{}
	for i, step := range r.Steps {
		def, err := reg.Lookup(step.Skill)
		if err != nil {
			return fmt.Errorf("recipe: step %d: %w", i+1, err)
		}
		for _, p := range def.Params {
			if !p.Required {
				continue
			}
			if _, ok := step.Args[p.Name]; !ok {
				return fmt.Errorf("recipe: step %d (%s) is missing required parameter %q",
					i+1, def.Name, p.Name)
			}
		}
		if step.Output != "" {
			if produced[step.Output] {
				return fmt.Errorf("recipe: step %d redefines output %q", i+1, step.Output)
			}
			produced[step.Output] = true
		}
		// Forward references are impossible in a topologically ordered
		// recipe: an input must be an earlier output or an external name
		// that no LATER step produces.
		for _, in := range step.Inputs {
			if produced[in] {
				continue
			}
			for j := i + 1; j < len(r.Steps); j++ {
				if r.Steps[j].Output == in {
					return fmt.Errorf("recipe: step %d consumes %q before step %d produces it",
						i+1, in, j+1)
				}
			}
		}
	}
	return nil
}
