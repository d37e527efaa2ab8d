// Package datachat is the public API of this reproduction of "DataChat: An
// Intuitive and Collaborative Data Analytics Platform" (SIGMOD-Companion
// '23). It re-exports the platform façade and the key types a downstream
// user needs: tables, skills, sessions, artifacts, recipes, GEL, the
// NL2Code system, and the cloud/snapshot cost substrates.
//
// Quickstart:
//
//	p := datachat.New()
//	p.RegisterFile("people.csv", csvContent)
//	s, _ := p.CreateSession("analysis", "ann")
//	res, _ := p.RequestGEL("analysis", "ann", "Load data from the file people.csv", "")
//	fmt.Println(res.Table)
//
// See the examples/ directory for runnable end-to-end scenarios, DESIGN.md
// for the system inventory, and EXPERIMENTS.md for the reproduced
// evaluation.
package datachat

import (
	"datachat/internal/artifact"
	"datachat/internal/cloud"
	"datachat/internal/core"
	"datachat/internal/dag"
	"datachat/internal/dataset"
	"datachat/internal/gel"
	"datachat/internal/ml"
	"datachat/internal/nl2code"
	"datachat/internal/phrase"
	"datachat/internal/plan"
	"datachat/internal/recipe"
	"datachat/internal/semantic"
	"datachat/internal/session"
	"datachat/internal/skills"
	"datachat/internal/snapshot"
	"datachat/internal/viz"
)

// Platform is the assembled DataChat system: sessions, skills, artifacts,
// boards, semantic layer, GEL, phrase translation, and NL2Code.
type Platform = core.Platform

// New creates an empty platform.
func New() *Platform { return core.New() }

// Core data types.
type (
	// Table is the columnar dataset every skill consumes and produces.
	Table = dataset.Table
	// Column is one typed column with a null mask.
	Column = dataset.Column
	// Value is a dynamically typed scalar cell.
	Value = dataset.Value
)

// Skill layer types.
type (
	// Invocation is a discrete parameterized skill request — the common
	// form UI gestures, Python API calls, and GEL sentences reduce to.
	Invocation = skills.Invocation
	// Args carries an invocation's parameters.
	Args = skills.Args
	// Registry is the installed skill set (~50 skills).
	Registry = skills.Registry
	// Result is a skill execution's output.
	Result = skills.Result
	// Context is the execution environment skills run in.
	Context = skills.Context
)

// NewRegistry returns a registry with every built-in skill installed.
func NewRegistry() *Registry { return skills.NewRegistry() }

// NewContext returns an empty skill execution context.
func NewContext() *Context { return skills.NewContext() }

// Execution and provenance types.
type (
	// Graph is a lazy DAG of skill requests (§2.2).
	Graph = dag.Graph
	// Executor compiles and runs DAGs, consolidating relational chains
	// into single SQL queries and caching shared sub-DAGs.
	Executor = dag.Executor
	// Recipe is a serialized skill DAG: every artifact carries one (§2.3).
	Recipe = recipe.Recipe
	// Artifact is a persisted result with its recipe.
	Artifact = artifact.Artifact
	// ArtifactStore holds artifacts with permissions and secret links.
	ArtifactStore = artifact.Store
	// Session is a collaborative workspace with a session-level lock.
	Session = session.Session
	// Explain is the EXPLAIN report for a compiled logical plan: the pass
	// pipeline's decisions (fusion, consolidation, pushdown, cache state)
	// without executing anything (DESIGN.md §9).
	Explain = plan.Explain
	// ExplainNode is one plan node in an EXPLAIN report.
	ExplainNode = plan.ExplainNode
)

// DecodeExplain parses an EXPLAIN report from its JSON encoding.
func DecodeExplain(data []byte) (*Explain, error) { return plan.DecodeExplain(data) }

// NewGraph returns an empty skill DAG.
func NewGraph() *Graph { return dag.NewGraph() }

// NewExecutor returns an executor with consolidation and caching enabled.
func NewExecutor(reg *Registry, ctx *Context) *Executor { return dag.NewExecutor(reg, ctx) }

// Slice reduces a graph to one artifact's recipe (§2.3, Figure 5).
func Slice(g *Graph, target dag.NodeID) (*Graph, dag.SliceReport, error) {
	return dag.Slice(g, target)
}

// Language layer types.
type (
	// GELParser parses Guided English Language sentences.
	GELParser = gel.Parser
	// GELRunner is the IDE-like recipe stepper with breakpoints (Figure 2a).
	GELRunner = gel.Runner
	// PhraseTranslator is the deterministic §4.8 Visualize translator.
	PhraseTranslator = phrase.Translator
	// SemanticLayer holds domain concepts for prompts and phrases (§4.2).
	SemanticLayer = semantic.Layer
	// Concept is one semantic-layer entry.
	Concept = semantic.Concept
)

// NewGELParser returns the GEL parser over the sentence forms a registry's
// skills declare.
func NewGELParser(reg *Registry) *GELParser { return gel.NewParser(reg) }

// NewGELRunner prepares a recipe stepper over GEL lines.
func NewGELRunner(parser *GELParser, executor *Executor, lines []string) *GELRunner {
	return gel.NewRunner(parser, executor, lines)
}

// NewSemanticLayer returns an empty semantic layer.
func NewSemanticLayer() *SemanticLayer { return semantic.NewLayer() }

// NL2Code types (§4).
type (
	// NL2CodeSystem is the Figure 6 pipeline: retrieval, prompt composer,
	// generator, checker.
	NL2CodeSystem = nl2code.System
	// NL2CodeRequest is one English analytics request.
	NL2CodeRequest = nl2code.Request
	// NL2CodeResponse carries every pipeline stage's output.
	NL2CodeResponse = nl2code.Response
	// ExampleLibrary is the few-shot example repository (§4.3).
	ExampleLibrary = nl2code.Library
	// LibraryExample is one question/solution pair.
	LibraryExample = nl2code.LibraryExample
)

// NewNL2CodeSystem builds an NL2Code system over a registry and library.
func NewNL2CodeSystem(reg *Registry, lib *ExampleLibrary) *NL2CodeSystem {
	return nl2code.NewSystem(reg, lib)
}

// NewExampleLibrary builds an example library.
func NewExampleLibrary(examples []*LibraryExample) *ExampleLibrary {
	return nl2code.NewLibrary(examples)
}

// Cost substrates (§3).
type (
	// CloudDatabase is the consumption-priced warehouse simulator.
	CloudDatabase = cloud.Database
	// CloudPricing is a consumption pricing plan.
	CloudPricing = cloud.Pricing
	// SnapshotStore is the fixed-cost local snapshot cache.
	SnapshotStore = snapshot.Store
)

// NewCloudDatabase creates a simulated cloud database.
func NewCloudDatabase(name string, pricing CloudPricing, blockRows int) *CloudDatabase {
	return cloud.NewDatabase(name, pricing, blockRows)
}

// DefaultCloudPricing matches common on-demand warehouse pricing.
var DefaultCloudPricing = cloud.DefaultPricing

// NewSnapshotStore creates a snapshot store with the given fixed monthly cost.
func NewSnapshotStore(monthlyCost float64) *SnapshotStore {
	return snapshot.NewStore(monthlyCost)
}

// ML and charting types.
type (
	// Model is a trained predictor.
	Model = ml.Model
	// Chart is a built chart; render it with RenderChart.
	Chart = viz.Chart
	// ChartSpec declares a chart over table columns.
	ChartSpec = viz.Spec
)

// BuildChart binds a chart spec to a table.
func BuildChart(t *Table, spec ChartSpec) (*Chart, error) { return viz.Build(t, spec) }

// RenderChart draws a chart as terminal text.
func RenderChart(c *Chart) string { return viz.Render(c) }

// ReadCSV parses CSV with a header row into a table, inferring each column's
// type from its cells and parsing each cell once, straight into its typed
// column. One leading UTF-8 byte order mark is dropped, and a date that a
// time column cannot hold (before 1677-09-21 or after 2262-04-11) stays text.
func ReadCSV(name, data string) (*Table, error) { return dataset.ReadCSVString(name, data) }
