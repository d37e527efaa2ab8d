// Package core is the DataChat platform façade: it wires the skill
// registry, sessions with their locks and DAG executors, the artifact store
// with sharing and secret links, the Home Screen, cloud database
// connections, the snapshot store, the semantic layer, the GEL parser, the
// phrase-based translator, and the NL2Code system into one object — the
// paper's system as a single API.
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"datachat/internal/artifact"
	"datachat/internal/cloud"
	"datachat/internal/dag"
	"datachat/internal/faults"
	"datachat/internal/gel"
	"datachat/internal/nl2code"
	"datachat/internal/phrase"
	"datachat/internal/plan"
	"datachat/internal/pyapi"
	"datachat/internal/semantic"
	"datachat/internal/session"
	"datachat/internal/skills"
	"datachat/internal/snapshot"
)

// Platform is one DataChat deployment.
type Platform struct {
	// Registry is the installed skill set.
	Registry *skills.Registry
	// Artifacts stores saved artifacts with permissions and links.
	Artifacts *artifact.Store
	// Home is the Home Screen folder tree.
	Home *session.HomeScreen
	// Snapshots is the fixed-cost local snapshot store.
	Snapshots *snapshot.Store
	// Semantic is the deployment-wide semantic layer.
	Semantic *semantic.Layer
	// Parser is the GEL parser.
	Parser *gel.Parser

	mu       sync.Mutex
	sessions map[string]*session.Session
	clouds   map[string]cloud.DB
	// files are hashed once, at registration; every session shares the
	// content and the hash.
	files map[string]skills.File
	nl2   *nl2code.System
	// cache is the deployment-wide sub-DAG result cache. Every session's
	// executor shares it, so concurrent sessions reuse — and deduplicate —
	// each other's work (§2.2): cache keys combine the structural DAG
	// signature with content fingerprints of the external inputs, so two
	// sessions holding different data under the same name never collide.
	cache *dag.Cache
	// stats is the deployment-wide observed-stats registry backing the cost
	// model: canonical fingerprints are shared across sessions, so every
	// session's measurements refine every other session's estimates.
	stats *plan.StatsRegistry
}

// New creates an empty platform.
func New() *Platform {
	reg := skills.NewRegistry()
	return &Platform{
		Registry:  reg,
		Artifacts: artifact.NewStore(),
		Home:      session.NewHomeScreen(),
		Snapshots: snapshot.NewStore(50),
		Semantic:  semantic.NewLayer(),
		Parser:    gel.NewParser(reg),
		sessions:  map[string]*session.Session{},
		clouds:    map[string]cloud.DB{},
		files:     map[string]skills.File{},
		cache:     dag.NewCache(dag.DefaultCacheCapacity),
		stats:     plan.NewStatsRegistry(plan.DefaultStatsCapacity),
	}
}

// CacheStats reports the shared sub-DAG cache's hit/miss/eviction counters
// and the bytes its entries pin, across all sessions.
func (p *Platform) CacheStats() dag.CacheStats { return p.cache.Stats() }

// SessionBytes reports, per open session, the bytes the datasets its context
// holds pin — what the retention rule leaves beside the shared cache.
func (p *Platform) SessionBytes() map[string]int64 {
	p.mu.Lock()
	sessions := make([]*session.Session, 0, len(p.sessions))
	for _, s := range p.sessions {
		sessions = append(sessions, s)
	}
	p.mu.Unlock()
	out := make(map[string]int64, len(sessions))
	for _, s := range sessions {
		out[s.Name] = s.Context().DatasetBytes()
	}
	return out
}

// ExecStats sums execution statistics across every open session's executor —
// the deployment-wide view /statsz serves.
func (p *Platform) ExecStats() dag.Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	var total dag.Stats
	for _, s := range p.sessions {
		total.Add(s.Executor().Stats())
	}
	return total
}

// InvalidateCache drops every cached sub-DAG result platform-wide, e.g.
// after source data known to the deployment changes out of band.
func (p *Platform) InvalidateCache() { p.cache.Invalidate() }

// ConnectDatabase attaches a cloud database to the platform. Accepting the
// read interface lets deployments (and chaos tests) connect fault-injected
// wrappers in place of a bare Database.
func (p *Platform) ConnectDatabase(db cloud.DB) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := strings.ToLower(db.Name())
	if _, dup := p.clouds[key]; dup {
		return fmt.Errorf("core: database %q is already connected", db.Name())
	}
	p.clouds[key] = db
	return nil
}

// Database returns a connected database.
func (p *Platform) Database(name string) (cloud.DB, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	db, ok := p.clouds[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("core: no connected database %q", name)
	}
	return db, nil
}

// RegisterFile makes CSV content loadable by name or URL in every session
// created afterwards (the offline stand-in for file upload / URL fetch). The
// content is hashed here, once (skills.NewFile): planning a LoadData looks
// the hash up instead of reading the file, and re-registering the name with
// new bytes gives every downstream cache key a new value.
func (p *Platform) RegisterFile(name, csvContent string) {
	f := skills.NewFile(name, csvContent)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.files[name] = f
}

// CreateSession opens a session for owner, seeded with the platform's
// files, databases, and snapshot store.
func (p *Platform) CreateSession(name, owner string) (*session.Session, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := strings.ToLower(name)
	if _, dup := p.sessions[key]; dup {
		return nil, fmt.Errorf("core: session %q already exists", name)
	}
	ctx := skills.NewContext()
	for fileName, f := range p.files {
		ctx.AddFile(fileName, f)
	}
	for _, db := range p.clouds {
		ctx.Cloud[db.Name()] = db
	}
	ctx.Snapshots = p.Snapshots
	s := session.New(name, owner, p.Registry, ctx)
	s.Executor().SetCache(p.cache)
	s.Executor().SetStatsRegistry(p.stats)
	p.sessions[key] = s
	return s, nil
}

// EnsureSession returns the named session, creating it (owned by owner)
// when it does not exist yet — the scheduler's idempotent way to target a
// dedicated background session per job without racing other creators.
func (p *Platform) EnsureSession(name, owner string) (*session.Session, error) {
	p.mu.Lock()
	if s, ok := p.sessions[strings.ToLower(name)]; ok {
		p.mu.Unlock()
		return s, nil
	}
	p.mu.Unlock()
	s, err := p.CreateSession(name, owner)
	if err != nil {
		// Lost a creation race: someone else made it between the unlock and
		// CreateSession's relock. Use theirs.
		if existing, serr := p.Session(name); serr == nil {
			return existing, nil
		}
		return nil, err
	}
	return s, nil
}

// Session returns an open session.
func (p *Platform) Session(name string) (*session.Session, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.sessions[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("core: no session %q", name)
	}
	return s, nil
}

// Sessions lists open session names, sorted.
func (p *Platform) Sessions() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	names := make([]string, 0, len(p.sessions))
	for _, s := range p.sessions {
		names = append(names, s.Name)
	}
	sort.Strings(names)
	return names
}

// Run executes a program of skill invocations in a session on behalf of a
// user — the platform's single plan-then-execute entry point. Every front
// end (GEL, the Python API, phrase translation, recipe replay) reduces its
// input to invocations and funnels through here, so identical pipelines
// lower into identical logical plans and share sub-DAG cache entries no
// matter which surface built them.
func (p *Platform) Run(sessionName, user string, invs ...skills.Invocation) (*skills.Result, error) {
	res, _, err := p.RunCtx(context.Background(), sessionName, user, nil, invs...)
	return res, err
}

// RunCtx is Run with an explicit context and optional per-request execution
// options (nil means all engine defaults), and it additionally returns the
// DAG node ids the program appended. Callers that also want the run's report
// call Session.RequestProgramCtx, which this wraps.
func (p *Platform) RunCtx(ctx context.Context, sessionName, user string, tune *session.Tuning, invs ...skills.Invocation) (*skills.Result, []dag.NodeID, error) {
	s, err := p.Session(sessionName)
	if err != nil {
		return nil, nil, err
	}
	var opts session.Tuning
	if tune != nil {
		opts = *tune
	}
	res, ids, _, err := s.RequestProgramCtx(ctx, user, opts, invs...)
	return res, ids, err
}

// Program is one request's program in exactly one dialect: a GEL sentence
// (acting on Current when it names no dataset), a Python API script, a
// phrase asked of Dataset, or explicit Steps.
type Program struct {
	GEL, Current    string
	Python          string
	Phrase, Dataset string
	Steps           []skills.Invocation
}

// Lower reduces a program to the invocations Run executes — the one dialect
// switch every front end, local or over the wire, goes through.
func (p *Platform) Lower(sessionName string, prog Program) ([]skills.Invocation, error) {
	set := 0
	for _, on := range []bool{prog.GEL != "", prog.Python != "", prog.Phrase != "", len(prog.Steps) > 0} {
		if on {
			set++
		}
	}
	if set != 1 {
		return nil, fmt.Errorf("core: invalid run request: exactly one of gel, python, phrase, program required (got %d)", set)
	}
	switch {
	case prog.GEL != "":
		inv, err := p.ParseGEL(prog.GEL, prog.Current)
		if err != nil {
			return nil, err
		}
		return []skills.Invocation{inv}, nil
	case prog.Python != "":
		return LowerPython(p.Registry, prog.Python)
	case prog.Phrase != "":
		t, err := p.TranslatePhrase(sessionName, prog.Phrase, prog.Dataset)
		if err != nil {
			return nil, err
		}
		return []skills.Invocation{PhraseInvocation(t, prog.Dataset)}, nil
	}
	return prog.Steps, nil
}

// LowerPython parses a DataChat Python API script into invocations.
func LowerPython(reg *skills.Registry, src string) ([]skills.Invocation, error) {
	prog, err := pyapi.Parse(src)
	if err != nil {
		return nil, err
	}
	return pyapi.NewTranslator(reg).Invocations(prog)
}

// PhraseInvocation is a translated phrase's invocation, acting on the dataset
// it was asked of unless it names its own.
func PhraseInvocation(t *phrase.Translation, datasetName string) skills.Invocation {
	inv := t.Invocation
	if len(inv.Inputs) == 0 {
		inv.Inputs = []string{datasetName}
	}
	return inv
}

// run lowers prog and executes it via Run.
func (p *Platform) run(sessionName, user string, prog Program) (*skills.Result, error) {
	invs, err := p.Lower(sessionName, prog)
	if err != nil {
		return nil, err
	}
	return p.Run(sessionName, user, invs...)
}

// RunPython parses a DataChat Python API script and executes it via Run.
func (p *Platform) RunPython(sessionName, user, src string) (*skills.Result, error) {
	return p.run(sessionName, user, Program{Python: src})
}

// RunPhrase translates a §4.8 phrase-based request against a dataset and
// executes the resulting invocation via Run.
func (p *Platform) RunPhrase(sessionName, user, input, datasetName string) (*skills.Result, error) {
	return p.run(sessionName, user, Program{Phrase: input, Dataset: datasetName})
}

// Explain returns the EXPLAIN report — optimized plan, SQL fragments, pass
// trace — for the session step producing the named dataset, without
// executing anything. Pass "" for the session's latest step.
func (p *Platform) Explain(sessionName, output string) (*plan.Explain, error) {
	s, err := p.Session(sessionName)
	if err != nil {
		return nil, err
	}
	return s.Explain(output)
}

// RequestGEL parses a GEL sentence and executes it in a session on behalf
// of a user — the console's one-line entry point. Sentences that do not
// name datasets act on `current` (pass "" to require explicit names).
func (p *Platform) RequestGEL(sessionName, user, line, current string) (*skills.Result, error) {
	return p.run(sessionName, user, Program{GEL: line, Current: current})
}

// ParseGEL parses one GEL sentence into an invocation, binding a sentence
// that names no dataset to current by the skills' current-dataset rule (pass
// "" to require explicit names) — the GEL half of Lower.
func (p *Platform) ParseGEL(line, current string) (skills.Invocation, error) {
	inv, err := p.Parser.Parse(line)
	if err != nil {
		return skills.Invocation{}, err
	}
	if err := p.Registry.BindCurrent(&inv, current); err != nil {
		return skills.Invocation{}, err
	}
	return inv, nil
}

// TranslatePhrase runs the §4.8 phrase-based translator against a dataset
// in a session.
func (p *Platform) TranslatePhrase(sessionName, input, datasetName string) (*phrase.Translation, error) {
	s, err := p.Session(sessionName)
	if err != nil {
		return nil, err
	}
	t, err := s.Context().Dataset(datasetName)
	if err != nil {
		return nil, err
	}
	tr := &phrase.Translator{Layer: p.Semantic}
	return tr.Translate(input, t)
}

// UseNL2Code installs an NL2Code system (with its example library).
func (p *Platform) UseNL2Code(sys *nl2code.System) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nl2 = sys
}

// NL2Code translates an English request into a checked program against a
// session's datasets (Figure 6's pipeline, end to end): the ones it holds —
// every dataset no step produces and the outputs the cache does not hold —
// and the latest step's output, re-derived if the retention rule handed it to
// the cache; no other dropped output is re-derived.
func (p *Platform) NL2Code(sessionName, question string) (*nl2code.Response, error) {
	p.mu.Lock()
	sys := p.nl2
	p.mu.Unlock()
	if sys == nil {
		sys = nl2code.NewSystem(p.Registry, nl2code.NewLibrary(nil))
	}
	s, err := p.Session(sessionName)
	if err != nil {
		return nil, err
	}
	tables := s.Context().Fork().Datasets
	if last, err := s.Graph().Node(s.Graph().Last()); err == nil {
		if t, err := s.Context().Dataset(last.OutputName()); err == nil {
			tables[last.OutputName()] = t
		}
	}
	return sys.Generate(nl2code.Request{
		Question: question,
		Tables:   tables,
		Layer:    p.Semantic,
	})
}

// RefreshArtifact replays an artifact's recipe against a session, updates
// the stored payload, and stamps the refresh time — the §2.3 "refresh"
// interaction surfaced on every artifact. The replay runs under ctx and
// tune's execution options, in a fork of the session's context (see
// Session.Replay): sources are keyed by their content, so changed data is
// re-read and unchanged data is served from the cache, and the session's
// own datasets stay as they were.
func (p *Platform) RefreshArtifact(ctx context.Context, sessionName, user, artifactName string, tune session.Tuning) (*artifact.Artifact, error) {
	a, err := p.Artifacts.Get(artifactName, user)
	if err != nil {
		return nil, err
	}
	if p.Artifacts.AccessOf(artifactName, user) < artifact.EditAccess {
		return nil, fmt.Errorf("core: %s cannot refresh %q", user, artifactName)
	}
	s, err := p.Session(sessionName)
	if err != nil {
		return nil, err
	}
	res, _, err := s.Replay(ctx, user, a.Recipe, faults.RetryPolicy{}, tune)
	if err != nil {
		return nil, fmt.Errorf("core: refreshing %q: %w", artifactName, err)
	}
	a.Table = res.Table
	if len(res.Charts) > 0 {
		a.Chart = res.Charts[0]
	}
	if err := p.Artifacts.MarkRefreshed(artifactName); err != nil {
		return nil, err
	}
	return a, nil
}
