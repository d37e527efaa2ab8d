package gel

import (
	"fmt"
	"strings"

	"datachat/internal/dag"
	"datachat/internal/plan"
	"datachat/internal/skills"
)

// StepState describes one recipe line in the runner.
type StepState int

// Step lifecycle states shown in the recipe editor margin.
const (
	StepPending StepState = iota
	StepDone
	StepFailed
)

// Step is one line of a recipe under execution.
type Step struct {
	// Line is the GEL sentence.
	Line string
	// State is the execution state.
	State StepState
	// NodeID is the DAG node the line became (valid once parsed).
	NodeID dag.NodeID
	// Result holds the execution result once run.
	Result *skills.Result
	// Err records a failure.
	Err error
	// Breakpoint marks a debugger breakpoint on this line (Figure 2a's
	// red dot).
	Breakpoint bool
}

// Runner is the IDE-like recipe stepper of Figure 2a: it executes a GEL
// recipe line by line, honoring breakpoints, and maintains the versioned
// dataset bookkeeping GEL sentences rely on ("Use the dataset fredgraph,
// version 1").
type Runner struct {
	Parser   *Parser
	Executor *dag.Executor

	steps []Step
	graph *dag.Graph
	pc    int

	// versions tracks every version of each dataset name: versions[name][i]
	// is the output-name of version i+1.
	versions map[string][]string
	// current is the output name the next transform consumes.
	current string
	// currentName is the base dataset name of current.
	currentName string
}

// NewRunner prepares a runner over recipe lines. Blank lines and lines
// starting with '#' are kept (and skipped at execution) so line numbers
// match the editor.
func NewRunner(parser *Parser, executor *dag.Executor, lines []string) *Runner {
	r := &Runner{
		Parser:   parser,
		Executor: executor,
		graph:    dag.NewGraph(),
		versions: map[string][]string{},
	}
	for _, line := range lines {
		r.steps = append(r.steps, Step{Line: line, NodeID: -1})
	}
	// Pre-register session datasets as version 1 of themselves.
	for name := range executor.Ctx.Datasets {
		r.versions[name] = []string{name}
	}
	return r
}

// Steps returns the step list (a copy of the slice header; entries are
// live).
func (r *Runner) Steps() []Step { return r.steps }

// PC returns the index of the next line to execute.
func (r *Runner) PC() int { return r.pc }

// Done reports whether every line has executed.
func (r *Runner) Done() bool { return r.pc >= len(r.steps) }

// SetBreakpoint toggles a breakpoint on a line.
func (r *Runner) SetBreakpoint(line int, on bool) error {
	if line < 0 || line >= len(r.steps) {
		return fmt.Errorf("gel: no line %d", line)
	}
	r.steps[line].Breakpoint = on
	return nil
}

// CurrentDataset returns the output name the next transform would consume.
func (r *Runner) CurrentDataset() string { return r.current }

// Step executes the next line and returns its step record. Comments and
// blank lines complete immediately.
func (r *Runner) Step() (*Step, error) {
	if r.Done() {
		return nil, fmt.Errorf("gel: recipe finished")
	}
	step := &r.steps[r.pc]
	line := strings.TrimSpace(step.Line)
	r.pc++
	if line == "" || strings.HasPrefix(line, "#") {
		step.State = StepDone
		return step, nil
	}
	inv, err := r.Parser.Parse(line)
	if err != nil {
		step.State = StepFailed
		step.Err = err
		return step, err
	}
	if err := r.wire(&inv); err != nil {
		step.State = StepFailed
		step.Err = err
		return step, err
	}
	id := r.graph.Add(inv)
	step.NodeID = id
	res, err := r.Executor.Run(r.graph, id)
	if err != nil {
		step.State = StepFailed
		step.Err = err
		return step, err
	}
	step.State = StepDone
	step.Result = res
	r.record(inv, id, res)
	return step, nil
}

// Continue executes lines until a breakpoint (stopping before it) or the
// end of the recipe, returning the executed steps.
func (r *Runner) Continue() ([]*Step, error) {
	var out []*Step
	for !r.Done() {
		if r.steps[r.pc].Breakpoint && len(out) > 0 {
			break
		}
		step, err := r.Step()
		if step != nil {
			out = append(out, step)
		}
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// RunAll executes the remaining lines, ignoring breakpoints.
func (r *Runner) RunAll() ([]*Step, error) {
	var out []*Step
	for !r.Done() {
		step, err := r.Step()
		if step != nil {
			out = append(out, step)
		}
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// Graph exposes the DAG built so far (for slicing and saving artifacts).
func (r *Runner) Graph() *dag.Graph { return r.graph }

// Explain compiles — without executing — the plan for the most recently
// executed line and returns the EXPLAIN report: the debugger's "what would
// this recipe actually run" view.
func (r *Runner) Explain() (*plan.Explain, error) {
	last := r.graph.Last()
	if last < 0 {
		return nil, fmt.Errorf("gel: no executed lines to explain")
	}
	return r.Executor.Explain(r.graph, last)
}

// wire resolves the invocation's dataset inputs: UseDataset pins a specific
// version, datasets a sentence names resolve to their latest versions, and a
// sentence naming none follows the registry's current-dataset rule.
func (r *Runner) wire(inv *skills.Invocation) error {
	if inv.Skill == "UseDataset" {
		name, err := inv.Args.String("dataset")
		if err != nil {
			return err
		}
		versions, ok := r.versions[name]
		if !ok {
			return fmt.Errorf("gel: no dataset named %q", name)
		}
		v := inv.Args.IntOr("version", len(versions))
		if v < 1 || v > len(versions) {
			return fmt.Errorf("gel: dataset %q has versions 1..%d, not %d", name, len(versions), v)
		}
		inv.Args["dataset"] = versions[v-1]
		delete(inv.Args, "version") // resolved into the dataset name
		return nil
	}
	for i, name := range inv.Inputs {
		if versions, ok := r.versions[name]; ok {
			inv.Inputs[i] = versions[len(versions)-1]
		}
	}
	return r.Parser.Registry.BindCurrent(inv, r.current)
}

// record updates version bookkeeping after a successful step.
func (r *Runner) record(inv skills.Invocation, id dag.NodeID, res *skills.Result) {
	node, err := r.graph.Node(id)
	if err != nil {
		return
	}
	out := node.OutputName()
	if inv.Skill == "UseDataset" {
		// Current becomes the pinned dataset itself; no new version. Later
		// transforms version under the dataset's base name, so recover it
		// from the version registry.
		pinned, _ := inv.Args.String("dataset")
		r.current = pinned
		r.currentName = pinned
		for name, outs := range r.versions {
			for _, o := range outs {
				if o == pinned {
					r.currentName = name
				}
			}
		}
		return
	}
	def, err := r.Parser.Registry.Lookup(inv.Skill)
	if err != nil || res.Table == nil || !def.AdvancesCurrent() {
		return // charts, messages and side results leave the current dataset
	}
	name := res.Table.Name()
	if def.Standalone || (name != "" && name != r.currentName && looksLikeNewDataset(inv.Skill)) {
		// A sentence reading its own source (LoadData), or a skill minting a
		// distinct dataset (PredictTimeSeries), starts or extends a version
		// history under the table's own name.
		r.versions[name] = append(r.versions[name], out)
		r.current = out
		r.currentName = name
		return
	}
	// A transform of the current dataset: bump its version.
	if r.currentName == "" {
		r.currentName = name
	}
	r.versions[r.currentName] = append(r.versions[r.currentName], out)
	r.current = out
}

func looksLikeNewDataset(skill string) bool {
	switch skill {
	case "PredictTimeSeries", "Pivot", "Compute", "Concatenate", "JoinDatasets":
		return true
	default:
		return false
	}
}

// Versions returns the recorded versions of a dataset name (output names,
// oldest first).
func (r *Runner) Versions(name string) []string {
	return append([]string{}, r.versions[name]...)
}

// Append adds a line to the end of the recipe; the interactive console
// feeds user input through this before stepping.
func (r *Runner) Append(line string) {
	r.steps = append(r.steps, Step{Line: line, NodeID: -1})
}

// EditLine replaces the text of a recipe line (§2.3: recipes are designed
// to be edited). Everything from the edited line onward is reset to
// pending, and the runner replays the unedited prefix against a fresh DAG —
// cheap, because the executor's sub-DAG cache serves the unchanged steps.
func (r *Runner) EditLine(line int, newText string) error {
	if line < 0 || line >= len(r.steps) {
		return fmt.Errorf("gel: no line %d", line)
	}
	r.steps[line].Line = newText
	// Reset execution state from the edited line on.
	for i := line; i < len(r.steps); i++ {
		r.steps[i].State = StepPending
		r.steps[i].NodeID = -1
		r.steps[i].Result = nil
		r.steps[i].Err = nil
	}
	executed := r.pc
	if executed > line {
		executed = line
	}
	// Rebuild the graph and version bookkeeping by replaying the prefix.
	r.graph = dag.NewGraph()
	r.versions = map[string][]string{}
	for name := range r.Executor.Ctx.Datasets {
		if looksGenerated(name) {
			continue // prior runs' materializations, not source datasets
		}
		r.versions[name] = []string{name}
	}
	r.current, r.currentName = "", ""
	r.pc = 0
	for r.pc < executed {
		if _, err := r.Step(); err != nil {
			return fmt.Errorf("gel: replaying prefix after edit: %w", err)
		}
	}
	return nil
}

// looksGenerated reports whether a dataset name is a prior run's node
// output rather than a user-supplied source.
func looksGenerated(name string) bool {
	if !strings.HasPrefix(name, "node") {
		return false
	}
	for _, r := range name[4:] {
		if r < '0' || r > '9' {
			return false
		}
	}
	return len(name) > 4
}
