// Package skills implements DataChat's skill layer (§2.1): the curated set
// of ~50 high-level data-science operations that users invoke through UI
// forms, the Python API, or GEL sentences. All three entry paths converge on
// an Invocation — a discrete, parameterized request — and every skill knows
// how to render itself as GEL, as a Python API call, and (for relational
// skills) as a SQL clause, and how to execute on the session's tables.
//
// A relational skill has one implementation, its SQL merge rule (§2.2). The
// DAG compiler merges chains of such skills into one flattened query (Figure
// 4); a relational skill run alone is its rule merged into SELECT * FROM its
// input — a chain of one — executed by the same engine.
package skills

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"

	"datachat/internal/cloud"
	"datachat/internal/dataset"
	"datachat/internal/ml"
	"datachat/internal/snapshot"
	"datachat/internal/viz"
)

// Category groups skills as in the paper's Table 1.
type Category string

// The skill categories from Table 1, plus the cost-control skills of §3 and
// the collaboration skills of §2.4.
const (
	DataIngestion     Category = "Data Ingestion"
	DataExploration   Category = "Data Exploration"
	DataVisualization Category = "Data Visualization"
	DataWrangling     Category = "Data Wrangling"
	MachineLearning   Category = "Machine Learning"
	SQLTasks          Category = "SQL Tasks"
	Collaboration     Category = "Collaboration"
	CostControl       Category = "Cost Control"
)

// Categories lists all categories in display order.
func Categories() []Category {
	return []Category{
		DataIngestion, DataExploration, DataVisualization, DataWrangling,
		MachineLearning, SQLTasks, Collaboration, CostControl,
	}
}

// Args carries an invocation's parameters. Values are JSON-compatible:
// string, float64, int, bool, []string, or []map[string]string.
type Args map[string]any

// String returns a required string parameter.
func (a Args) String(key string) (string, error) {
	v, ok := a[key]
	if !ok {
		return "", fmt.Errorf("skills: missing parameter %q", key)
	}
	s, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("skills: parameter %q must be a string, got %T", key, v)
	}
	return s, nil
}

// StringOr returns an optional string parameter with a default.
func (a Args) StringOr(key, def string) string {
	if s, err := a.String(key); err == nil {
		return s
	}
	return def
}

// StringList returns a string-list parameter; a bare string becomes a
// one-element list. JSON decoding may surface []any, which is handled.
func (a Args) StringList(key string) ([]string, error) {
	v, ok := a[key]
	if !ok {
		return nil, fmt.Errorf("skills: missing parameter %q", key)
	}
	switch vv := v.(type) {
	case string:
		return []string{vv}, nil
	case []string:
		return vv, nil
	case []any:
		out := make([]string, len(vv))
		for i, item := range vv {
			s, ok := item.(string)
			if !ok {
				return nil, fmt.Errorf("skills: parameter %q element %d is %T, not string", key, i, item)
			}
			out[i] = s
		}
		return out, nil
	default:
		return nil, fmt.Errorf("skills: parameter %q must be a string list, got %T", key, v)
	}
}

// StringListOr returns an optional string list.
func (a Args) StringListOr(key string) []string {
	out, err := a.StringList(key)
	if err != nil {
		return nil
	}
	return out
}

// Int returns a required integer parameter (JSON numbers arrive as float64).
func (a Args) Int(key string) (int, error) {
	v, ok := a[key]
	if !ok {
		return 0, fmt.Errorf("skills: missing parameter %q", key)
	}
	switch n := v.(type) {
	case int:
		return n, nil
	case int64:
		return int(n), nil
	case float64:
		return int(n), nil
	default:
		return 0, fmt.Errorf("skills: parameter %q must be a number, got %T", key, v)
	}
}

// IntOr returns an optional integer parameter with a default.
func (a Args) IntOr(key string, def int) int {
	if n, err := a.Int(key); err == nil {
		return n
	}
	return def
}

// Float returns a required float parameter.
func (a Args) Float(key string) (float64, error) {
	v, ok := a[key]
	if !ok {
		return 0, fmt.Errorf("skills: missing parameter %q", key)
	}
	switch n := v.(type) {
	case float64:
		return n, nil
	case int:
		return float64(n), nil
	case int64:
		return float64(n), nil
	default:
		return 0, fmt.Errorf("skills: parameter %q must be a number, got %T", key, v)
	}
}

// FloatOr returns an optional float parameter with a default.
func (a Args) FloatOr(key string, def float64) float64 {
	if f, err := a.Float(key); err == nil {
		return f
	}
	return def
}

// Bool returns an optional boolean parameter (default false).
func (a Args) Bool(key string) bool {
	v, ok := a[key]
	if !ok {
		return false
	}
	b, ok := v.(bool)
	return ok && b
}

// Invocation is a discrete parameterized skill request: the common form that
// UI gestures, Python API calls, and GEL sentences all reduce to (Figure 3).
type Invocation struct {
	// Skill is the canonical skill name, e.g. "KeepRows".
	Skill string
	// Inputs names the session datasets the skill consumes, in order.
	Inputs []string
	// Output names the dataset/artifact the skill produces ("" for default).
	Output string
	// Args are the skill parameters.
	Args Args
}

// ParamSpec documents one skill parameter.
type ParamSpec struct {
	Name     string
	Type     string // "string", "number", "columns", "expression", "aggregates", ...
	Required bool
	Doc      string
}

// Result is what a skill execution produces: at most one table, plus
// optional charts, a model, and a human-readable message.
type Result struct {
	Table   *dataset.Table
	Charts  []*viz.Chart
	Model   ml.Model
	Message string
	// Degraded marks a result produced by a fallback path (stale snapshot,
	// block sample) after the primary source failed permanently. Degraded
	// results are surfaced transparently (§2.3) and are never stored in the
	// sub-DAG cache under the exact-result fingerprint.
	Degraded bool
	// DegradedNote says which fallback produced the result and why.
	DegradedNote string
}

// Context is the execution environment a skill runs in: the session's named
// datasets, connected cloud databases, the snapshot store, trained models,
// in-memory files, and a deterministic seed.
//
// Concurrency: the maps may be populated directly during single-threaded
// setup (tests, examples, session seeding). Once a DAG execution is running,
// all access goes through the locked accessors (Dataset, PutDataset, Model,
// PutModel, File, PutFile, DefinePhrase, DatasetNames) so independent DAG
// branches — and distinct sessions sharing tables — can execute in parallel
// without data races.
type Context struct {
	// Datasets maps dataset names to tables (the session's working set).
	Datasets map[string]*dataset.Table
	// Cloud maps database names to connected cloud databases (possibly
	// wrapped by fault injectors; skills only see the read interface).
	Cloud map[string]cloud.DB
	// Snapshots is the session's snapshot store (may be nil).
	Snapshots snapshot.API
	// Degrade configures the fallback path cloud-reading skills take when
	// the primary source fails permanently. The zero value disables
	// degradation: permanent failures abort the request.
	Degrade DegradePolicy
	// Models holds trained models by name.
	Models map[string]ml.Model
	// Definitions holds semantic-layer phrase definitions added via Define.
	Definitions map[string]string
	// Seed drives every randomized skill (sampling, train/test splits).
	Seed int64
	// Derive, when set, re-derives a dataset the context does not hold:
	// Dataset calls it on a miss, and ok=false says it knows no such name
	// either. A session sets it so the node outputs its retention rule
	// dropped stay readable by name, through the plan.
	Derive func(name string) (t *dataset.Table, ok bool, err error)

	mu sync.RWMutex
	// fps memoizes dataset content fingerprints by table identity, so the
	// executor can fold them into cache keys without rehashing per run.
	fps map[string]fpEntry
	// files maps file names/URLs to CSV content for LoadData — the
	// deterministic stand-in for network and filesystem access — each with
	// the hash taken when it was registered, so FileHash is a lookup.
	files map[string]File
}

// File is one registered in-memory file: its content and the FNV-1a hash of
// its name and content, taken once, when it is registered.
type File struct {
	Content string
	Hash    uint64
}

// NewFile hashes content once, in place: FNV-1a over name, a 0 byte, then
// content — the byte stream LoadData's cache keys have always been made of.
func NewFile(name, content string) File {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	h *= 1099511628211 // the 0 separator
	for i := 0; i < len(content); i++ {
		h = (h ^ uint64(content[i])) * 1099511628211
	}
	return File{Content: content, Hash: h}
}

type fpEntry struct {
	table *dataset.Table
	fp    uint64
}

// NewContext returns an empty, usable context.
func NewContext() *Context {
	return &Context{
		Datasets:    map[string]*dataset.Table{},
		Cloud:       map[string]cloud.DB{},
		Models:      map[string]ml.Model{},
		Definitions: map[string]string{},
		Seed:        1,
		files:       map[string]File{},
	}
}

// Dataset returns a named session dataset, or the Derive hook's answer for
// one the context does not hold.
func (c *Context) Dataset(name string) (*dataset.Table, error) {
	c.mu.RLock()
	t, err := c.datasetLocked(name)
	c.mu.RUnlock()
	if err != nil && c.Derive != nil {
		if dt, ok, derr := c.Derive(name); ok {
			return dt, derr
		}
	}
	return t, err
}

func (c *Context) datasetLocked(name string) (*dataset.Table, error) {
	if t, ok := c.Datasets[name]; ok {
		return t, nil
	}
	for k, t := range c.Datasets {
		if strings.EqualFold(k, name) {
			return t, nil
		}
	}
	return nil, fmt.Errorf("skills: no dataset named %q in the session", name)
}

// PutDataset publishes (or replaces) a named dataset. It is safe to call
// concurrently with readers; the DAG executor uses it to materialize node
// outputs. Replacing a dataset drops its memoized fingerprint, so cache keys
// derived from the name see the new content.
func (c *Context) PutDataset(name string, t *dataset.Table) {
	c.mu.Lock()
	c.Datasets[name] = t
	delete(c.fps, name)
	c.mu.Unlock()
}

// DropDataset forgets a named dataset and its memoized fingerprint (a
// session's retention rule hands node outputs back to the cache this way).
func (c *Context) DropDataset(name string) {
	c.mu.Lock()
	delete(c.Datasets, name)
	delete(c.fps, name)
	c.mu.Unlock()
}

// DatasetBytes sums the bytes the held datasets pin (Table.PinnedBytes).
func (c *Context) DatasetBytes() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var b int64
	for _, t := range c.Datasets {
		b += t.PinnedBytes()
	}
	return b
}

// Fork returns a context over copies of c's maps — tables, files and their
// hashes, models and databases shared by reference — with no Derive hook:
// what runs in the fork publishes nothing into c.
func (c *Context) Fork() *Context {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return &Context{
		Datasets:    maps.Clone(c.Datasets),
		Cloud:       maps.Clone(c.Cloud),
		Snapshots:   c.Snapshots,
		Degrade:     c.Degrade,
		Models:      maps.Clone(c.Models),
		Definitions: maps.Clone(c.Definitions),
		Seed:        c.Seed,
		fps:         maps.Clone(c.fps),
		files:       maps.Clone(c.files),
	}
}

// DatasetNames returns the session's dataset names, sorted.
func (c *Context) DatasetNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.Datasets))
	for name := range c.Datasets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Fingerprint returns the content fingerprint of a named dataset, memoized
// by table identity (tables are immutable by convention, so a pointer match
// means unchanged content).
func (c *Context) Fingerprint(name string) (uint64, error) {
	c.mu.RLock()
	t, err := c.datasetLocked(name)
	if err == nil {
		if e, ok := c.fps[name]; ok && e.table == t {
			c.mu.RUnlock()
			return e.fp, nil
		}
	}
	c.mu.RUnlock()
	if err != nil {
		return 0, err
	}
	fp := t.Fingerprint() // outside the lock: O(cells) on an immutable table
	c.mu.Lock()
	if c.fps == nil {
		c.fps = map[string]fpEntry{}
	}
	if len(c.fps) > 1024 { // bound the memo; entries are tiny but tables churn
		c.fps = map[string]fpEntry{}
	}
	c.fps[name] = fpEntry{table: t, fp: fp}
	c.mu.Unlock()
	return fp, nil
}

// Model returns a trained model by name.
func (c *Context) Model(name string) (ml.Model, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.Models[name]
	return m, ok
}

// PutModel stores a trained model under a name.
func (c *Context) PutModel(name string, m ml.Model) {
	c.mu.Lock()
	c.Models[name] = m
	c.mu.Unlock()
}

// File returns an in-memory file's content.
func (c *Context) File(name string) (string, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	f, ok := c.files[name]
	return f.Content, ok
}

// PutFile stores an in-memory file, hashing it once (NewFile).
func (c *Context) PutFile(name, content string) { c.AddFile(name, NewFile(name, content)) }

// AddFile stores a file registered elsewhere, with the hash it was given
// there: a platform hashes a file once and every session shares the result.
func (c *Context) AddFile(name string, f File) {
	c.mu.Lock()
	c.files[name] = f
	c.mu.Unlock()
}

// FileHash returns a file's registration hash (NewFile).
func (c *Context) FileHash(name string) (uint64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	f, ok := c.files[name]
	return f.Hash, ok
}

// DefinePhrase records a semantic-layer phrase definition.
func (c *Context) DefinePhrase(phrase, meaning string) {
	c.mu.Lock()
	c.Definitions[strings.ToLower(phrase)] = meaning
	c.mu.Unlock()
}

// Table implements sqlengine.Catalog over the session datasets.
func (c *Context) Table(name string) (*dataset.Table, error) { return c.Dataset(name) }

// ApplyFunc executes one skill invocation in a context.
type ApplyFunc func(ctx *Context, inv Invocation) (*Result, error)

// Definition describes one skill: metadata, parameters, renderings, and its
// implementations.
type Definition struct {
	// Name is the canonical CamelCase skill name.
	Name string
	// Category is the Table 1 grouping.
	Category Category
	// Summary is a one-line description.
	Summary string
	// Params documents the parameters.
	Params []ParamSpec
	// GEL lists the skill's sentence forms, most specific first: the parser
	// tries them in order and RenderGEL fills the first that carries the
	// whole invocation. Compute's irregular sentence is parsed and rendered
	// by hand and declares none.
	GEL []Form
	// Standalone marks a skill whose sentence, naming no dataset, runs
	// without one: it reads its own source (LoadData, UseDataset) or no
	// table at all (RunSQL, AddComment). A bare sentence of any other skill
	// acts on the current dataset (BindCurrent).
	Standalone bool
	// PyName is the method name in the DataChat Python API (snake_case).
	PyName string
	// Volatile marks skills whose results depend on state outside the DAG
	// signature (cloud tables, the snapshot store, trained models, session
	// files) or that mutate session state when applied. The executor never
	// serves volatile nodes — or their descendants — from the sub-DAG cache.
	Volatile bool
	// Invalidates marks skills whose execution changes shared source data
	// (snapshot create/refresh); running one bumps the sub-DAG cache
	// generation so stale results cannot be served afterwards.
	Invalidates bool
	// Replayable marks a Volatile skill whose re-run costs nothing and
	// changes nothing: it reads only what its SourceFingerprint hashes, held
	// by the session itself (LoadData over a registered file). A session
	// drops a step's output only when every Volatile step in its lineage is
	// Replayable, because reading the output again re-runs that lineage.
	Replayable bool
	// Apply executes the skill. Register sets it for a skill that has a
	// MergeSQL rule and no Apply: the rule run alone (runAlone).
	Apply ApplyFunc
	// SourceFingerprint, when set on a volatile skill, returns a content
	// hash of the out-of-DAG state an invocation would read (e.g. a
	// registered session file). When it succeeds the planner treats the
	// node as cacheable, mixing the hash into its fingerprint: re-registered
	// content produces a new cache key instead of a stale hit, while
	// repeated loads of unchanged content share one sub-DAG cache entry.
	// ok=false leaves the node volatile and uncached.
	SourceFingerprint func(ctx *Context, args Args) (uint64, bool)
	// MergeSQL merges the skill into a query under construction; nil for
	// non-relational skills. The planner consolidates chains of skills that
	// have one.
	MergeSQL func(b *QueryBuilder, inv Invocation) error
}

// Registry is the set of installed skills.
type Registry struct {
	byName map[string]*Definition
	order  []string
}

// NewRegistry returns a registry with every built-in skill installed.
func NewRegistry() *Registry {
	r := &Registry{byName: map[string]*Definition{}}
	for _, group := range [][]*Definition{
		ingestionSkills(), explorationSkills(), wranglingSkills(),
		visualizationSkills(), mlSkills(), sqlSkills(), collaborationSkills(),
		costControlSkills(),
	} {
		for _, def := range group {
			r.mustRegister(def)
		}
	}
	return r
}

func (r *Registry) mustRegister(def *Definition) {
	if err := r.Register(def); err != nil {
		panic(err.Error())
	}
}

// Register installs a skill definition, compiling its GEL forms. Tests and
// extensions use it to add custom skills next to the built-ins; duplicate
// names and malformed forms are rejected.
func (r *Registry) Register(def *Definition) error {
	if _, dup := r.byName[strings.ToLower(def.Name)]; dup {
		return fmt.Errorf("skills: duplicate skill %q", def.Name)
	}
	for i := range def.GEL {
		if err := def.GEL[i].compile(def); err != nil {
			return err
		}
	}
	if def.PyName == "" {
		def.PyName = toSnake(def.Name)
	}
	if def.Apply == nil && def.MergeSQL != nil {
		def.Apply = runAlone(def.MergeSQL)
	}
	r.byName[strings.ToLower(def.Name)] = def
	r.order = append(r.order, def.Name)
	return nil
}

// Lookup returns a skill definition by name (case-insensitive).
func (r *Registry) Lookup(name string) (*Definition, error) {
	def, ok := r.byName[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("skills: unknown skill %q", name)
	}
	return def, nil
}

// sentences is the usual GEL declaration: forms that imply no arguments.
func sentences(templates ...string) []Form {
	forms := make([]Form, len(templates))
	for i, t := range templates {
		forms[i].Template = t
	}
	return forms
}

// Names returns every skill name in registration order.
func (r *Registry) Names() []string { return append([]string{}, r.order...) }

// ByCategory returns skills grouped by category, each group name-sorted.
func (r *Registry) ByCategory() map[Category][]*Definition {
	out := map[Category][]*Definition{}
	for _, name := range r.order {
		def := r.byName[strings.ToLower(name)]
		out[def.Category] = append(out[def.Category], def)
	}
	for _, defs := range out {
		sort.Slice(defs, func(i, j int) bool { return defs[i].Name < defs[j].Name })
	}
	return out
}

// Execute validates and runs one invocation on its own.
func (r *Registry) Execute(ctx *Context, inv Invocation) (*Result, error) {
	def, err := r.Lookup(inv.Skill)
	if err != nil {
		return nil, err
	}
	if err := def.validate(inv); err != nil {
		return nil, err
	}
	return def.Apply(ctx, inv)
}

func (d *Definition) validate(inv Invocation) error {
	for _, p := range d.Params {
		if !p.Required {
			continue
		}
		if _, ok := inv.Args[p.Name]; !ok {
			return fmt.Errorf("skills: %s requires parameter %q (%s)", d.Name, p.Name, p.Doc)
		}
	}
	return nil
}

func toSnake(name string) string {
	var b strings.Builder
	for i, r := range name {
		if r >= 'A' && r <= 'Z' {
			if i > 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r - 'A' + 'a')
		} else {
			b.WriteRune(r)
		}
	}
	return b.String()
}

// singleInput resolves the invocation's (sole) input dataset.
func singleInput(ctx *Context, inv Invocation) (*dataset.Table, error) {
	if len(inv.Inputs) == 0 {
		return nil, fmt.Errorf("skills: %s needs an input dataset", inv.Skill)
	}
	return ctx.Dataset(inv.Inputs[0])
}

// AggSpec is one aggregate request in a Compute/Pivot skill.
type AggSpec struct {
	Func   string // count, sum, avg, min, max, median, stddev, count_distinct
	Column string // "*" for count of records
	As     string // output column name ("" derives one)
}

// OutName returns the output column name for the aggregate.
func (a AggSpec) OutName() string {
	if a.As != "" {
		return a.As
	}
	if a.Column == "*" || a.Column == "" {
		return a.Func + "_records"
	}
	return a.Func + "_" + a.Column
}

// validAggFuncs lists the aggregate functions Compute accepts.
var validAggFuncs = map[string]string{
	"count": "COUNT", "sum": "SUM", "avg": "AVG", "average": "AVG",
	"min": "MIN", "max": "MAX", "median": "MEDIAN", "stddev": "STDDEV",
	"count_distinct": "COUNT_DISTINCT",
}

// AggSpecs parses the "aggregates" parameter: a list of maps with keys
// func/column/as (JSON) or strings "func of column [as name]" (GEL).
func (a Args) AggSpecs(key string) ([]AggSpec, error) {
	v, ok := a[key]
	if !ok {
		return nil, fmt.Errorf("skills: missing parameter %q", key)
	}
	var items []any
	switch vv := v.(type) {
	case []any:
		items = vv
	case []map[string]string:
		for _, m := range vv {
			items = append(items, m)
		}
	case []AggSpec:
		return vv, nil
	case string:
		items = []any{vv}
	case []string:
		for _, s := range vv {
			items = append(items, s)
		}
	default:
		return nil, fmt.Errorf("skills: parameter %q must be an aggregate list, got %T", key, v)
	}
	out := make([]AggSpec, 0, len(items))
	for _, item := range items {
		spec, err := parseAggItem(item)
		if err != nil {
			return nil, err
		}
		if _, valid := validAggFuncs[spec.Func]; !valid {
			return nil, fmt.Errorf("skills: unknown aggregate function %q", spec.Func)
		}
		out = append(out, spec)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("skills: parameter %q must not be empty", key)
	}
	return out, nil
}

func parseAggItem(item any) (AggSpec, error) {
	switch it := item.(type) {
	case AggSpec:
		return it, nil
	case map[string]string:
		return AggSpec{Func: strings.ToLower(it["func"]), Column: it["column"], As: it["as"]}, nil
	case map[string]any:
		spec := AggSpec{}
		if s, ok := it["func"].(string); ok {
			spec.Func = strings.ToLower(s)
		}
		if s, ok := it["column"].(string); ok {
			spec.Column = s
		}
		if s, ok := it["as"].(string); ok {
			spec.As = s
		}
		return spec, nil
	case string:
		return parseAggString(it)
	default:
		return AggSpec{}, fmt.Errorf("skills: cannot parse aggregate %v (%T)", item, item)
	}
}

// parseAggString parses "count of case_id as NumberOfCases", "count of
// records", "sum of amount".
func parseAggString(s string) (AggSpec, error) {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return AggSpec{}, fmt.Errorf("skills: empty aggregate")
	}
	spec := AggSpec{Func: strings.ToLower(fields[0])}
	rest := fields[1:]
	if len(rest) > 0 && strings.EqualFold(rest[0], "of") {
		rest = rest[1:]
	}
	if len(rest) == 0 {
		return AggSpec{}, fmt.Errorf("skills: aggregate %q is missing a column", s)
	}
	spec.Column = rest[0]
	if strings.EqualFold(spec.Column, "records") {
		spec.Column = "*"
	}
	rest = rest[1:]
	switch {
	case len(rest) == 2 && strings.EqualFold(rest[0], "as"):
		spec.As = rest[1]
	case len(rest) > 0:
		return AggSpec{}, fmt.Errorf("skills: aggregate %q: want 'func of column [as name]'", s)
	}
	return spec, nil
}
