// Package session implements §2.4's collaboration model: sessions own a
// skill DAG and a context, hold a session-level lock that fails concurrent
// requests (the second request loses, with a message), track members with
// access levels, and save artifacts by slicing the session DAG down to the
// steps that produced them. It also provides the Home Screen folder tree.
//
// Only a request writes a session's context. Every other execution — the
// re-derivation of a dropped output, the re-run inside an artifact save, a
// recipe replay — runs in a fork of it (see forked).
//
// The §2.4 lock serializes requests *within* one session; distinct sessions
// on a shared platform execute truly in parallel — each request's DAG
// branches run on the executor's worker pool, and the platform-wide sub-DAG
// cache deduplicates identical computations across sessions.
package session

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"datachat/internal/artifact"
	"datachat/internal/dag"
	"datachat/internal/dataset"
	"datachat/internal/faults"
	"datachat/internal/plan"
	"datachat/internal/recipe"
	"datachat/internal/skills"
)

// ErrBusy is returned when a request arrives while another is executing —
// the paper's explicit design choice over merging concurrent edits.
var ErrBusy = errors.New("session: another execution is already running; retry when it finishes")

// Session is one user workspace: a context, a DAG, and collaborators.
type Session struct {
	// Name identifies the session.
	Name string
	// Owner is the creating user.
	Owner string

	reg      *skills.Registry
	executor *dag.Executor
	graph    *dag.Graph

	mu      sync.Mutex
	running bool
	members map[string]artifact.Access
	// logged counts the graph nodes whose request has finished: the history
	// is those nodes' step records.
	logged int
	// replayable memoizes rederivable, indexed by NodeID.
	replayable []bool

	// busyRetry optionally retries lock acquisition on ErrBusy with
	// backoff. The zero policy keeps the paper's fail-fast semantics:
	// the second concurrent request loses immediately.
	busyRetry   faults.RetryPolicy
	busyClock   faults.Clock
	busyRetries int
}

// HistoryEntry records one executed request, so every member sees the same
// synchronized view of the work (§2.4: actions are tracked in the platform,
// not the client). The graph keeps each step's record on its node; History
// renders the entries when asked.
type HistoryEntry struct {
	User  string
	Node  dag.NodeID
	GEL   string
	When  time.Time
	Error string
}

// New creates a session owned by owner. The session becomes ctx's Derive
// hook, so a node output its retention rule dropped stays readable by name.
//
// A request publishes every node's output into ctx under the node's name, so
// its runs push no consumer's filter or projection into a scan: the scan's
// name would then hold its consumer's rows. Only a fork, which publishes
// nothing, pushes down (see forked). A cloud scan is metered on the whole
// table either way.
func New(name, owner string, reg *skills.Registry, ctx *skills.Context) *Session {
	s := &Session{
		Name:     name,
		Owner:    owner,
		reg:      reg,
		executor: dag.NewExecutor(reg, ctx),
		graph:    dag.NewGraph(),
		members:  map[string]artifact.Access{owner: artifact.OwnerAccess},
	}
	s.executor.Pushdown = false
	ctx.Derive = s.derive
	return s
}

// Executor exposes the session's executor (benchmarks and the console use
// its stats and cache controls).
func (s *Session) Executor() *dag.Executor { return s.executor }

// Graph exposes the session DAG.
func (s *Session) Graph() *dag.Graph { return s.graph }

// Context returns the session's execution context.
func (s *Session) Context() *skills.Context { return s.executor.Ctx }

// forked is the session's executor over a fork of its context: a run reads
// what the session holds, and through the Derive hook what its retention rule
// handed to the cache, but publishes nothing into it, so it may push filters
// and projections into scans. Its counters still add to the session
// executor's.
func (s *Session) forked() *dag.Executor {
	fork := s.executor.Ctx.Fork()
	fork.Derive = s.derive
	ex := s.executor.WithContext(fork)
	ex.Pushdown = true
	return ex
}

// derive is the context's Derive hook: it re-computes the output of the
// graph node answering to name by planning that node again — the shared
// cache serves whatever it still holds, the rest recomputes. It runs in a
// fork, so it needs no §2.4 lock. ok is false when no node produces name,
// or when re-running the node's lineage would cost or change anything (see
// rederivable): such an output is never dropped, so a miss means it was
// never produced.
func (s *Session) derive(name string) (t *dataset.Table, ok bool, err error) {
	id, ok := s.graph.ProducerOf(name)
	if !ok || !s.rederivable(id) {
		return nil, false, nil
	}
	res, _, err := s.forked().RunWith(context.Background(), s.graph, id, Tuning{})
	if err != nil {
		return nil, true, err
	}
	if res.Table == nil {
		return nil, true, fmt.Errorf("session: step %d (%s) produces no dataset", id, name)
	}
	return res.Table.WithName(name), true, nil
}

// retain applies the session's retention rule after a run, given the keys
// the run's results are cached under: of the datasets graph nodes produce,
// the context keeps the outputs it could not re-derive for free (see
// rederivable), and the target's and its direct inputs' outputs only while
// the shared cache does not hold them — a result the cache refused, over its
// budget or degraded, or one this run did not publish. Every other node
// output is the cache's to keep or evict, and the context's Dataset
// re-derives it on demand; datasets no node produces are never dropped. So
// what a session holds does not grow with the steps it has run, and a result
// the cache holds is pinned once, by the cache, not again by every session
// that computed it.
func (s *Session) retain(target dag.NodeID, keys map[string]string) {
	node, err := s.graph.Node(target)
	if err != nil {
		return
	}
	ctx, out, cache := s.executor.Ctx, node.OutputName(), s.executor.Cache()
	for _, name := range ctx.DatasetNames() {
		if id, produced := s.graph.ProducerOf(name); !produced || !s.rederivable(id) {
			continue
		}
		recent := name == out || slices.ContainsFunc(node.Inv.Inputs, func(in string) bool {
			return strings.EqualFold(in, name)
		})
		key, published := keys[name]
		if recent && !(published && cache.Peek(key)) {
			continue // nothing else holds it
		}
		ctx.DropDataset(name)
	}
}

// rederivable reports whether reading node id's output again by re-running
// its lineage is free of cost and side effects: every Volatile skill in the
// lineage is Replayable. A lineage with anything else — a cloud scan that
// charges the meter, a snapshot create or refresh that rewrites the shared
// store and wipes the cache, a model or a live-state read that could answer
// differently — keeps its outputs in the session. A node's lineage is fixed
// when it is added, so each answer is memoized, one byte per node.
func (s *Session) rederivable(id dag.NodeID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for next := dag.NodeID(len(s.replayable)); next <= id; next++ {
		node, err := s.graph.Node(next)
		if err != nil {
			return false
		}
		def, err := s.reg.Lookup(node.Inv.Skill)
		ok := err == nil && (!def.Volatile || def.Replayable) && !def.Invalidates
		for _, p := range node.Parents {
			ok = ok && (p < 0 || s.replayable[p])
		}
		s.replayable = append(s.replayable, ok)
	}
	return s.replayable[id]
}

// Share grants a user access to the session.
func (s *Session) Share(byUser, withUser string, access artifact.Access) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.members[byUser] < artifact.OwnerAccess {
		return fmt.Errorf("session: %s cannot share %q", byUser, s.Name)
	}
	if access != artifact.ViewAccess && access != artifact.EditAccess {
		return fmt.Errorf("session: can only grant view or edit")
	}
	s.members[withUser] = access
	return nil
}

// Revoke removes a member.
func (s *Session) Revoke(byUser, fromUser string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.members[byUser] < artifact.OwnerAccess {
		return fmt.Errorf("session: %s cannot revoke members", byUser)
	}
	if s.members[fromUser] >= artifact.OwnerAccess {
		return fmt.Errorf("session: cannot revoke the owner")
	}
	delete(s.members, fromUser)
	return nil
}

// AccessOf returns a user's access level.
func (s *Session) AccessOf(user string) artifact.Access {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.members[user]
}

// Members lists session members, sorted.
func (s *Session) Members() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.members))
	for m := range s.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// SetBusyRetry opts the session into bounded retry-with-backoff on
// lock contention: a request that finds another one running retries up to
// the policy's attempt budget instead of failing immediately. The zero
// policy (the default) preserves the paper's §2.4 fail-fast semantics.
// clock may be nil (wall clock); tests pass a virtual clock.
func (s *Session) SetBusyRetry(p faults.RetryPolicy, clock faults.Clock) {
	s.mu.Lock()
	s.busyRetry = p
	s.busyClock = clock
	s.mu.Unlock()
}

// BusyRetries reports how many times requests re-attempted the session lock
// after finding it held.
func (s *Session) BusyRetries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.busyRetries
}

// acquire takes the session lock for user, or fails with ErrBusy (retryable)
// or a permission error (not).
func (s *Session) acquire(user string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.members[user] < artifact.EditAccess {
		return fmt.Errorf("session: %s cannot run requests in %q", user, s.Name)
	}
	if s.running {
		return ErrBusy
	}
	s.running = true
	return nil
}

// lockForUser acquires the §2.4 session lock for user, applying the
// session's busy-retry policy (the zero policy fails fast with ErrBusy).
// Requests, artifact saves and recipe replays funnel through here, so a
// replay or save never runs beside a request on the same session. Callers
// must pair it with unlock.
func (s *Session) lockForUser(ctx context.Context, user string) error {
	return s.lockBusy(ctx, user, faults.RetryPolicy{}, nil)
}

// lockBusy is lockForUser with a per-call busy-retry override: an enabled
// busy replaces the session's standing policy for this acquisition only,
// backing off on clock when non-nil.
func (s *Session) lockBusy(ctx context.Context, user string, busy faults.RetryPolicy, clock faults.Clock) error {
	s.mu.Lock()
	pol, cl := s.busyRetry, s.busyClock
	s.mu.Unlock()
	if busy.Enabled() {
		pol = busy
		if clock != nil {
			cl = clock
		}
	}
	_, stats, err := faults.Do(ctx, cl, pol, time.Time{},
		func(err error) bool { return errors.Is(err, ErrBusy) },
		func() (struct{}, error) { return struct{}{}, s.acquire(user) })
	if stats.Attempts > 1 {
		s.mu.Lock()
		s.busyRetries += stats.Attempts - 1
		s.mu.Unlock()
	}
	return err
}

func (s *Session) unlock() {
	s.mu.Lock()
	s.running = false
	s.mu.Unlock()
}

// Request executes one skill invocation for user. It enforces membership
// (edit access) and the session-level lock: if another request is running,
// it fails immediately with ErrBusy rather than queueing, because a request
// composed against a stale view may no longer make sense (§2.4) — unless
// SetBusyRetry opted the session into a bounded backoff on contention.
func (s *Session) Request(user string, inv skills.Invocation) (*skills.Result, dag.NodeID, error) {
	res, ids, err := s.RequestProgram(user, inv)
	if len(ids) == 0 {
		return nil, -1, err
	}
	return res, ids[0], err
}

// Tuning is one request's execution options. The network layer builds one
// per HTTP request (deadline, retry policy, clock, stream sink, budget) and
// the session hands it to the run by value; a zero field means the engine
// default. The session's executor keeps no per-request state.
type Tuning = dag.ExecOptions

// RequestProgram executes a multi-step program under one acquisition of the
// session lock: all steps are appended to the session DAG, the final step is
// planned and run as one unit (earlier steps execute as its ancestors), and
// every step is recorded in the history; afterwards the session holds only
// what its retention rule keeps (see retain). This is the shared entry point
// the front ends funnel through — a GEL program, a pyapi script, and a
// replayed recipe describing the same pipeline lower into identical logical
// plans and therefore share sub-DAG cache entries.
func (s *Session) RequestProgram(user string, invs ...skills.Invocation) (*skills.Result, []dag.NodeID, error) {
	res, ids, _, err := s.RequestProgramCtx(context.Background(), user, Tuning{}, invs...)
	return res, ids, err
}

// RequestProgramCtx is RequestProgram with an explicit context and this
// request's execution options, and it also returns the run's report (what
// this request executed, and its plan's cost estimate) — on failure too.
// Cancelling ctx aborts busy-retry backoffs on the session lock and the
// execution's own retry backoffs.
func (s *Session) RequestProgramCtx(ctx context.Context, user string, tune Tuning, invs ...skills.Invocation) (*skills.Result, []dag.NodeID, dag.Report, error) {
	if len(invs) == 0 {
		return nil, nil, dag.Report{}, fmt.Errorf("session: empty program")
	}
	if err := s.lockForUser(ctx, user); err != nil {
		return nil, nil, dag.Report{}, err
	}
	defer s.unlock()

	ids := make([]dag.NodeID, len(invs))
	for i, inv := range invs {
		ids[i] = s.graph.AddBy(inv, user, time.Now())
	}
	target := ids[len(ids)-1]
	res, rep, err := s.executor.RunWith(ctx, s.graph, target, tune)
	if err != nil {
		s.graph.Fail(target, err.Error())
	}
	s.retain(target, rep.Keys)
	s.mu.Lock()
	s.logged = int(target) + 1
	s.mu.Unlock()
	return res, ids, rep, err
}

// Explain compiles — without executing — the plan for the node producing the
// named dataset ("" means the session's latest step) and returns the EXPLAIN
// report. It plans with no request options, whatever a concurrent request on
// this session runs under.
func (s *Session) Explain(output string) (*plan.Explain, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	target := s.graph.Last()
	if output != "" {
		id, ok := s.graph.ProducerOf(output)
		if !ok {
			return nil, fmt.Errorf("session: no step in %q produces %q", s.Name, output)
		}
		target = id
	}
	if target < 0 {
		return nil, fmt.Errorf("session: %q has no steps to explain", s.Name)
	}
	return s.executor.ExplainWith(s.graph, target, Tuning{})
}

// History returns the synchronized request log: the step records of the
// finished requests' nodes, each rendered back to its GEL sentence.
func (s *Session) History() []HistoryEntry {
	s.mu.Lock()
	n := s.logged
	s.mu.Unlock()
	out := make([]HistoryEntry, 0, n)
	for id := dag.NodeID(0); int(id) < n; id++ {
		node, err := s.graph.Node(id)
		if err != nil {
			break
		}
		gelLine, gerr := s.reg.RenderGEL(*node.Inv)
		if gerr != nil {
			gelLine = node.Inv.Skill
		}
		out = append(out, HistoryEntry{User: node.User, Node: id, GEL: gelLine, When: node.When, Error: node.Err})
	}
	return out
}

// Replay runs a recipe to its last step — the §2.3 replay and refresh —
// under one acquisition of the §2.4 lock, in a fork of the session's context:
// the run reads the session's datasets and writes none of them. A recipe's
// sources are keyed by their content, so what did not change is served from
// the shared cache and only changed inputs recompute. An enabled busy
// replaces the session's busy-retry policy for this acquisition (backing off
// on tune.Clock), so a background run skips a busy session rather than
// queue; the zero policy is the session's own. The report carries the
// fingerprint of every planned node, cache-served ones included.
func (s *Session) Replay(ctx context.Context, user string, r *recipe.Recipe, busy faults.RetryPolicy, tune Tuning) (*skills.Result, dag.Report, error) {
	if err := s.lockBusy(ctx, user, busy, tune.Clock); err != nil {
		return nil, dag.Report{}, err
	}
	defer s.unlock()
	g := r.Graph()
	if g.Last() < 0 {
		return nil, dag.Report{}, fmt.Errorf("session: recipe %q has no steps", r.Name)
	}
	return s.forked().RunWith(ctx, g, g.Last(), tune)
}

// ExplainReplay compiles — without executing — the plan Replay would run for
// r under tune, and returns the EXPLAIN report.
func (s *Session) ExplainReplay(r *recipe.Recipe, tune Tuning) (*plan.Explain, error) {
	g := r.Graph()
	if g.Last() < 0 {
		return nil, fmt.Errorf("session: recipe %q has no steps", r.Name)
	}
	return s.forked().ExplainWith(g, g.Last(), tune)
}

// SaveArtifact slices the session DAG to the steps node depends on and
// persists the result as an artifact carrying that recipe (§2.3). The
// producing step re-executes under the §2.4 lock, in a fork of the context
// (usually a pure cache republish).
func (s *Session) SaveArtifact(store *artifact.Store, user, name string, node dag.NodeID, typ artifact.Type) (*artifact.Artifact, error) {
	if s.AccessOf(user) < artifact.EditAccess {
		return nil, fmt.Errorf("session: %s cannot save artifacts from %q", user, s.Name)
	}
	if err := s.lockForUser(context.Background(), user); err != nil {
		return nil, err
	}
	defer s.unlock()
	return s.saveLocked(context.Background(), store, user, name, node, typ, Tuning{})
}

// SaveArtifactOutput saves the step producing the named dataset, or the
// session's latest step when output is "". The anchor node is resolved after
// the §2.4 lock is acquired, so a concurrent request appending steps cannot
// move it between resolution and the save — remote callers go through here
// instead of reading the graph themselves, with the request's context and
// execution options for the producing step's re-execution.
func (s *Session) SaveArtifactOutput(ctx context.Context, store *artifact.Store, user, name, output string, typ artifact.Type, tune Tuning) (*artifact.Artifact, error) {
	if s.AccessOf(user) < artifact.EditAccess {
		return nil, fmt.Errorf("session: %s cannot save artifacts from %q", user, s.Name)
	}
	if err := s.lockForUser(ctx, user); err != nil {
		return nil, err
	}
	defer s.unlock()
	node := s.graph.Last()
	if output != "" {
		id, ok := s.graph.ProducerOf(output)
		if !ok {
			return nil, fmt.Errorf("session: no step in %q produces %q", s.Name, output)
		}
		node = id
	}
	if node < 0 {
		return nil, fmt.Errorf("session: %q has no steps to save", s.Name)
	}
	return s.saveLocked(ctx, store, user, name, node, typ, tune)
}

// saveLocked does the slice-replay-persist work; callers hold the §2.4 lock.
func (s *Session) saveLocked(ctx context.Context, store *artifact.Store, user, name string, node dag.NodeID, typ artifact.Type, tune Tuning) (*artifact.Artifact, error) {
	sliced, _, err := dag.Slice(s.graph, node)
	if err != nil {
		return nil, err
	}
	rec, err := recipe.FromGraph(name, sliced)
	if err != nil {
		return nil, err
	}
	res, _, err := s.forked().RunWith(ctx, s.graph, node, tune)
	if err != nil {
		return nil, err
	}
	a := &artifact.Artifact{
		Name:         name,
		Type:         typ,
		Owner:        user,
		Recipe:       rec,
		Table:        res.Table,
		Degraded:     res.Degraded,
		DegradedNote: res.DegradedNote,
	}
	if len(res.Charts) > 0 {
		a.Chart = res.Charts[0]
		if typ == "" {
			a.Type = artifact.TypeChart
		}
	}
	if res.Model != nil {
		a.ModelName = res.Model.Kind()
		a.Explanation = res.Model.Explain()
		if typ == "" {
			a.Type = artifact.TypeModel
		}
	}
	if a.Type == "" {
		a.Type = artifact.TypeTable
	}
	if res.Message != "" {
		a.Explanation = res.Message
	}
	if err := store.Save(a); err != nil {
		return nil, err
	}
	return a, nil
}

// Folder is a Home Screen container: it holds artifact names and child
// folders, and is itself manageable like an artifact (§2.4).
type Folder struct {
	Name     string
	Items    []string
	Children map[string]*Folder
}

// HomeScreen is the file-manager-like organizer of §2.4.
type HomeScreen struct {
	mu   sync.Mutex
	root *Folder
}

// NewHomeScreen returns an empty home screen.
func NewHomeScreen() *HomeScreen {
	return &HomeScreen{root: &Folder{Name: "/", Children: map[string]*Folder{}}}
}

// MkDir creates a folder at the /-separated path.
func (h *HomeScreen) MkDir(path string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	_, err := h.ensure(path)
	return err
}

func (h *HomeScreen) ensure(path string) (*Folder, error) {
	cur := h.root
	for _, part := range splitPath(path) {
		child, ok := cur.Children[part]
		if !ok {
			child = &Folder{Name: part, Children: map[string]*Folder{}}
			cur.Children[part] = child
		}
		cur = child
	}
	return cur, nil
}

func (h *HomeScreen) lookup(path string) (*Folder, error) {
	cur := h.root
	for _, part := range splitPath(path) {
		child, ok := cur.Children[part]
		if !ok {
			return nil, fmt.Errorf("session: no folder %q", path)
		}
		cur = child
	}
	return cur, nil
}

func splitPath(path string) []string {
	var parts []string
	for _, p := range strings.Split(path, "/") {
		if p != "" {
			parts = append(parts, p)
		}
	}
	return parts
}

// Place puts an artifact name into a folder (creating the folder).
func (h *HomeScreen) Place(path, artifactName string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	folder, err := h.ensure(path)
	if err != nil {
		return err
	}
	for _, existing := range folder.Items {
		if existing == artifactName {
			return nil
		}
	}
	folder.Items = append(folder.Items, artifactName)
	return nil
}

// ListFolder returns a folder's items and child folder names, sorted.
func (h *HomeScreen) ListFolder(path string) (items, children []string, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	folder, err := h.lookup(path)
	if err != nil {
		return nil, nil, err
	}
	items = append([]string{}, folder.Items...)
	sort.Strings(items)
	for name := range folder.Children {
		children = append(children, name)
	}
	sort.Strings(children)
	return items, children, nil
}

// Remove takes an artifact out of a folder.
func (h *HomeScreen) Remove(path, artifactName string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	folder, err := h.lookup(path)
	if err != nil {
		return err
	}
	for i, existing := range folder.Items {
		if existing == artifactName {
			folder.Items = append(folder.Items[:i], folder.Items[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("session: %q is not in folder %q", artifactName, path)
}
