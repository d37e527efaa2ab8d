package conformance

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"regexp"
	"strings"
	"time"

	"datachat/internal/client"
	"datachat/internal/cloud"
	"datachat/internal/core"
	"datachat/internal/dag"
	"datachat/internal/dataset"
	"datachat/internal/faults"
	"datachat/internal/recipe"
	"datachat/internal/server"
	"datachat/internal/session"
	"datachat/internal/skills"
	"datachat/internal/wire"
)

// SessionName and User are the fixed identity every route runs under.
const (
	SessionName = "conformance"
	User        = "tester"
)

// Routes lists the five execution routes in comparison order. The first
// entry (recipe replay) is the reference the others are diffed against.
var Routes = []string{"recipe", "gel", "pyapi", "phrase", "wire"}

// RouteResult is one route's observable outcome, reduced to the fields
// the harness compares cell by cell.
type RouteResult struct {
	Route        string
	Table        *dataset.Table
	NumCharts    int
	ChartsJSON   string
	Message      string
	Degraded     bool
	DegradedNote string
	// Err is the execution error (nil on success). Harness failures —
	// the route machinery itself misbehaving — are returned separately.
	Err error
}

func fromResult(route string, res *skills.Result) (*RouteResult, error) {
	rr := &RouteResult{Route: route}
	if res == nil {
		return rr, nil
	}
	rr.Table = res.Table
	rr.Message = res.Message
	rr.Degraded = res.Degraded
	rr.DegradedNote = res.DegradedNote
	rr.NumCharts = len(res.Charts)
	if len(res.Charts) > 0 {
		j, err := json.Marshal(res.Charts)
		if err != nil {
			return nil, fmt.Errorf("conformance: marshaling charts: %w", err)
		}
		rr.ChartsJSON = string(j)
	}
	return rr, nil
}

// caseEnv is one fresh platform + session seeded with the case's fixtures.
// Every route gets its own so no route observes another's cache or graph.
type caseEnv struct {
	p *core.Platform
	s *session.Session
	// opts are the case's per-request execution options (its cost budget);
	// every in-process route passes them with each request, the way the wire
	// route carries the knob on the RunRequest.
	opts session.Tuning
}

// run executes invs as one request under the case's options.
func (env *caseEnv) run(invs ...skills.Invocation) (*skills.Result, []dag.NodeID, error) {
	res, ids, _, err := env.s.RequestProgramCtx(context.Background(), User, env.opts, invs...)
	return res, ids, err
}

func newEnv(c *Case) (*caseEnv, error) {
	p := core.New()
	for _, f := range c.Fixtures {
		p.RegisterFile(f.Name, f.CSV)
	}
	dbs := map[string]*cloud.Database{}
	for _, f := range c.DBFixtures {
		key := strings.ToLower(f.DB)
		db := dbs[key]
		if db == nil {
			db = cloud.NewDatabase(f.DB, cloud.DefaultPricing, 4)
			dbs[key] = db
		}
		t, err := dataset.ReadCSVString(f.Table, f.CSV)
		if err != nil {
			return nil, fmt.Errorf("conformance: fixture %s.%s: %w", f.DB, f.Table, err)
		}
		if err := db.CreateTable(t); err != nil {
			return nil, err
		}
	}
	for _, db := range dbs {
		var conn cloud.DB = db
		if c.Kind == "degraded" {
			// Every scan fails permanently; the degrade ladder must carry
			// the case. A 100% block sample keeps results deterministic and
			// cell-identical to a healthy scan, so the only visible change
			// is the annotation — exactly what the case pins.
			inj := faults.NewInjector(faults.Schedule{
				PermanentRate: 1,
				Ops:           map[string]bool{"scan": true},
			}, nil)
			conn = faults.WrapDB(db, inj)
		}
		if err := p.ConnectDatabase(conn); err != nil {
			return nil, err
		}
	}
	s, err := p.CreateSession(SessionName, User)
	if err != nil {
		return nil, err
	}
	for _, f := range c.Fixtures {
		t, err := dataset.ReadCSVString(f.Name, f.CSV)
		if err != nil {
			return nil, fmt.Errorf("conformance: fixture %s: %w", f.Name, err)
		}
		s.Context().PutDataset(f.Name, t)
	}
	if c.Kind == "degraded" {
		s.Context().Degrade = skills.DegradePolicy{Enabled: true, SampleRate: 1}
	}
	return &caseEnv{p: p, s: s, opts: session.Tuning{CostBudgetBytes: c.BudgetBytes}}, nil
}

func invsOf(steps []recipe.Step) []skills.Invocation {
	invs := make([]skills.Invocation, len(steps))
	for i, st := range steps {
		invs[i] = st.Invocation()
	}
	return invs
}

// RunRoute executes the case's canonical program through one front end.
// The returned error is a harness failure; execution failures land in
// RouteResult.Err so error-expecting cases can assert on them.
func RunRoute(c *Case, route string) (*RouteResult, error) {
	switch route {
	case "recipe":
		return runRecipe(c)
	case "gel":
		return runGEL(c)
	case "pyapi":
		return runPyAPI(c)
	case "phrase":
		return runPhrase(c)
	case "wire":
		return runWire(c)
	}
	return nil, fmt.Errorf("conformance: unknown route %q", route)
}

// runRecipe replays the canonical steps as a saved recipe — the reference
// route: no rendering, no parsing, just the program itself.
func runRecipe(c *Case) (*RouteResult, error) {
	env, err := newEnv(c)
	if err != nil {
		return nil, err
	}
	r := &recipe.Recipe{Name: c.Name, Steps: c.Steps}
	res, _, err := env.s.Replay(context.Background(), User, r, faults.RetryPolicy{}, env.opts)
	if err != nil {
		return &RouteResult{Route: "recipe", Err: err}, nil
	}
	return fromResult("recipe", res)
}

// runGEL renders every canonical step back to its GEL sentence, re-parses
// it through the platform's front door, and executes step by step with the
// console's current-dataset bookkeeping — pinning the render→parse round
// trip AND the skills' current-dataset rule against the reference.
func runGEL(c *Case) (*RouteResult, error) {
	env, err := newEnv(c)
	if err != nil {
		return nil, err
	}
	// Statement-by-statement execution populates the sub-DAG cache as it
	// goes, so a later statement's consolidation would stop at its cached
	// prefix and quote a shorter SQL fragment than the batch reference.
	// That divergence is legitimate interactive behavior but not what this
	// route pins (the render→parse round trip), so run it uncached.
	env.s.Executor().UseCache = false
	nameMap := map[string]string{} // canonical output -> session output name
	mapName := func(n string) string {
		if actual, ok := nameMap[n]; ok {
			return actual
		}
		return n
	}
	current := ""
	run1 := func(line, cur string) (*skills.Result, string, error) {
		parsed, err := env.p.ParseGEL(line, cur)
		if err != nil {
			return nil, "", err
		}
		res, ids, err := env.run(parsed)
		if err != nil {
			return nil, "", err
		}
		return res, fmt.Sprintf("node%d", ids[len(ids)-1]), nil
	}
	var last *skills.Result
	for _, step := range c.Steps {
		def, err := env.p.Registry.Lookup(step.Skill)
		if err != nil {
			return nil, err
		}
		inv := skills.Invocation{Skill: step.Skill, Args: step.Args}
		for _, in := range step.Inputs {
			inv.Inputs = append(inv.Inputs, mapName(in))
		}
		// A join condition may qualify its keys by the canonical input
		// names ("s1.id = s2.ref"); those need the same renaming the
		// Inputs themselves get, or the re-parsed statement would point
		// at datasets this session never created.
		if on, ok := inv.Args["on"].(string); ok {
			mapped := on
			for canon, actual := range nameMap {
				mapped = strings.ReplaceAll(mapped, canon+".", actual+".")
			}
			if mapped != on {
				args := skills.Args{}
				for k, v := range inv.Args {
					args[k] = v
				}
				args["on"] = mapped
				inv.Args = args
			}
		}
		// A step consuming one dataset relies on the current-dataset default
		// (a sentence naming datasets names two); when the target is not
		// current, switch with the idiomatic "Use the dataset …" first.
		if !def.Standalone && len(inv.Inputs) == 1 && inv.Inputs[0] != current {
			_, out, err := run1("Use the dataset "+inv.Inputs[0], "")
			if err != nil {
				return &RouteResult{Route: "gel", Err: err}, nil
			}
			current = out
			inv.Inputs[0] = current
		}
		line, err := env.p.Registry.RenderGEL(inv)
		if err != nil {
			return nil, fmt.Errorf("conformance: rendering %s to GEL: %w", step.Skill, err)
		}
		res, out, err := run1(line, current)
		if err != nil {
			return &RouteResult{Route: "gel", Err: err}, nil
		}
		last = res
		nameMap[step.Output] = out
		if def.AdvancesCurrent() {
			current = out
		}
	}
	return fromResult("gel", last)
}

// runPyAPI renders the canonical steps as a Python API script, parses and
// translates it back, and executes what the script said.
func runPyAPI(c *Case) (*RouteResult, error) {
	env, err := newEnv(c)
	if err != nil {
		return nil, err
	}
	var lines []string
	for _, inv := range invsOf(c.Steps) {
		line, err := env.p.Registry.RenderPython(inv)
		if err != nil {
			return nil, fmt.Errorf("conformance: rendering %s to Python: %w", inv.Skill, err)
		}
		lines = append(lines, line)
	}
	invs, err := core.LowerPython(env.p.Registry, strings.Join(lines, "\n"))
	if err != nil {
		return &RouteResult{Route: "pyapi", Err: err}, nil
	}
	res, _, err := env.run(invs...)
	if err != nil {
		return &RouteResult{Route: "pyapi", Err: err}, nil
	}
	return fromResult("pyapi", res)
}

// phraseSentence reconstructs the §4.8 phrase sentence for a canonical
// Visualize step, when one can express it (filters cannot round-trip
// through the translator's paren-wrapping, so filtered steps pass).
func phraseSentence(step recipe.Step) (string, bool) {
	if step.Skill != "Visualize" || len(step.Inputs) != 1 {
		return "", false
	}
	if _, filtered := step.Args["filter"]; filtered {
		return "", false
	}
	kpi, ok := step.Args["kpi"].(string)
	if !ok {
		return "", false
	}
	s := "Visualize " + kpi
	if by := step.Args.StringListOr("by"); len(by) > 0 {
		s += " by " + strings.Join(by, ", ")
	}
	return s, true
}

// runPhrase exercises the phrase-based translator whenever the case is
// phrase-expressible: phrase-dialect cases run their statements one by one
// through the translator; other
// cases ending in an unfiltered Visualize run their prefix as a program
// and the final step through the translator. Programs the Visualize-only
// phrase surface cannot express execute through the same shared Run entry
// point the translator would hand its invocation to.
func runPhrase(c *Case) (*RouteResult, error) {
	env, err := newEnv(c)
	if err != nil {
		return nil, err
	}
	// ask is Platform.RunPhrase under the case's options: lower the phrase
	// asked of the dataset, run it.
	ask := func(sentence, ds string) (*skills.Result, error) {
		invs, err := env.p.Lower(SessionName, core.Program{Phrase: sentence, Dataset: ds})
		if err != nil {
			return nil, err
		}
		res, _, err := env.run(invs...)
		return res, err
	}
	if c.Dialect == "phrase" {
		// A phrase session is a sequence of questions asked of one dataset;
		// run it statement by statement the way an interactive user would,
		// with the last answer as the session's result.
		var last *skills.Result
		for _, line := range strings.Split(c.Body, "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			res, err := ask(line, c.PhraseDataset)
			if err != nil {
				return &RouteResult{Route: "phrase", Err: err}, nil
			}
			last = res
		}
		return fromResult("phrase", last)
	}
	last := c.Steps[len(c.Steps)-1]
	if sentence, ok := phraseSentence(last); ok {
		if len(c.Steps) > 1 {
			if _, _, err := env.run(invsOf(c.Steps[:len(c.Steps)-1])...); err != nil {
				return &RouteResult{Route: "phrase", Err: err}, nil
			}
		}
		res, err := ask(sentence, last.Inputs[0])
		if err != nil {
			return &RouteResult{Route: "phrase", Err: err}, nil
		}
		return fromResult("phrase", res)
	}
	res, _, err := env.run(invsOf(c.Steps)...)
	if err != nil {
		return &RouteResult{Route: "phrase", Err: err}, nil
	}
	return fromResult("phrase", res)
}

// runWire executes the canonical steps over HTTP against an in-process
// datachatd via the Go client — JSON encode/decode, admission control, and
// the server's program resolution all in the loop.
func runWire(c *Case) (*RouteResult, error) {
	env, err := newEnv(c)
	if err != nil {
		return nil, err
	}
	srv := server.New(env.p, server.Config{DefaultMaxRows: 1_000_000, MaxPageRows: 1_000_000})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := client.New(ts.URL)
	resp, err := cl.Run(context.Background(), SessionName, wire.RunRequest{
		User: User, Program: c.Steps, CostBudgetBytes: c.BudgetBytes,
	})
	if err != nil {
		return &RouteResult{Route: "wire", Err: err}, nil
	}
	rr := &RouteResult{Route: "wire"}
	if resp.Result != nil {
		rr.Message = resp.Result.Message
		rr.Degraded = resp.Result.Degraded
		rr.DegradedNote = resp.Result.DegradedNote
		rr.NumCharts = len(resp.Result.Charts)
		if len(resp.Result.Charts) > 0 {
			j, err := json.Marshal(resp.Result.Charts)
			if err != nil {
				return nil, err
			}
			rr.ChartsJSON = string(j)
		}
		if resp.Result.Table != nil {
			t, err := resp.Result.Table.Decode()
			if err != nil {
				return nil, fmt.Errorf("conformance: decoding wire table: %w", err)
			}
			rr.Table = t
		}
	}
	return rr, nil
}

// diff compares a route's outcome against the reference route's,
// returning a description of the first divergence.
func (rr *RouteResult) diff(ref *RouteResult) error {
	if (rr.Err != nil) != (ref.Err != nil) {
		return fmt.Errorf("route %s error %v, reference error %v", rr.Route, rr.Err, ref.Err)
	}
	if rr.Err != nil {
		return nil // both failed; ExpectError asserts the message per route
	}
	if (rr.Table != nil) != (ref.Table != nil) {
		return fmt.Errorf("route %s table presence %v, reference %v", rr.Route, rr.Table != nil, ref.Table != nil)
	}
	if rr.Table != nil && !rr.Table.Equal(ref.Table) {
		return fmt.Errorf("route %s table differs from reference:\n%s", rr.Route, tableDiff(rr.Table, ref.Table))
	}
	if rr.NumCharts != ref.NumCharts {
		return fmt.Errorf("route %s built %d charts, reference %d", rr.Route, rr.NumCharts, ref.NumCharts)
	}
	if rr.ChartsJSON != ref.ChartsJSON {
		return fmt.Errorf("route %s charts differ from reference", rr.Route)
	}
	if normMessage(rr.Message) != normMessage(ref.Message) {
		return fmt.Errorf("route %s message %q, reference %q", rr.Route, rr.Message, ref.Message)
	}
	if rr.Degraded != ref.Degraded || rr.DegradedNote != ref.DegradedNote {
		return fmt.Errorf("route %s degraded (%v, %q), reference (%v, %q)",
			rr.Route, rr.Degraded, rr.DegradedNote, ref.Degraded, ref.DegradedNote)
	}
	return nil
}

// intermediateName matches the synthesized names each route gives unnamed
// intermediate results: canonical s1, s2, … and the console's node0, node1,
// …. Result messages quote consolidated SQL over these names, so a route's
// naming scheme leaks into otherwise identical messages.
var intermediateName = regexp.MustCompile(`\b(?:node|s)\d+\b`)

// normMessage canonicalizes route-specific intermediate dataset names so
// message comparison pins the SQL shape, not the naming scheme.
func normMessage(msg string) string {
	return intermediateName.ReplaceAllString(msg, "§")
}

func tableDiff(got, want *dataset.Table) string {
	return fmt.Sprintf("got %d×%d cols %v\nwant %d×%d cols %v",
		got.NumRows(), got.NumCols(), got.ColumnNames(),
		want.NumRows(), want.NumCols(), want.ColumnNames())
}

// Verify runs the case through all five routes, asserts cross-route
// agreement, checks the case's own expectations, and runs the kind's
// extra protocol (lock contention, cache-hit replay). It returns the
// reference route's result for reuse (matrix mode, generators).
func Verify(c *Case) (*RouteResult, error) {
	results := make([]*RouteResult, 0, len(Routes))
	for _, route := range Routes {
		rr, err := RunRoute(c, route)
		if err != nil {
			return nil, fmt.Errorf("case %s: route %s: %w", c.Name, route, err)
		}
		results = append(results, rr)
	}
	ref := results[0]
	for _, rr := range results[1:] {
		if err := rr.diff(ref); err != nil {
			return nil, fmt.Errorf("case %s: %w", c.Name, err)
		}
	}
	for _, rr := range results {
		if c.ExpectError != "" {
			if rr.Err == nil {
				return nil, fmt.Errorf("case %s: route %s succeeded, want error containing %q", c.Name, rr.Route, c.ExpectError)
			}
			if !strings.Contains(rr.Err.Error(), c.ExpectError) {
				return nil, fmt.Errorf("case %s: route %s error %q does not contain %q", c.Name, rr.Route, rr.Err.Error(), c.ExpectError)
			}
			continue
		}
		if rr.Err != nil {
			return nil, fmt.Errorf("case %s: route %s failed: %w", c.Name, rr.Route, rr.Err)
		}
		if c.ExpectDegraded && !rr.Degraded {
			return nil, fmt.Errorf("case %s: route %s result is not annotated degraded", c.Name, rr.Route)
		}
		if c.ExpectDegradedNote != "" && !strings.Contains(rr.DegradedNote, c.ExpectDegradedNote) {
			return nil, fmt.Errorf("case %s: route %s degraded note %q does not contain %q",
				c.Name, rr.Route, rr.DegradedNote, c.ExpectDegradedNote)
		}
	}
	if c.ExpectError == "" {
		if c.Expect != "" {
			want, err := dataset.ReadCSVString("expect", c.Expect)
			if err != nil {
				return nil, fmt.Errorf("case %s: expect block: %w", c.Name, err)
			}
			if ref.Table == nil {
				return nil, fmt.Errorf("case %s: expected a table, got none", c.Name)
			}
			if err := TablesMatch(ref.Table, want, c.Unordered); err != nil {
				return nil, fmt.Errorf("case %s: %w", c.Name, err)
			}
		}
		if c.ExpectMessage != "" && ref.Message != c.ExpectMessage {
			return nil, fmt.Errorf("case %s: message %q, want %q", c.Name, ref.Message, c.ExpectMessage)
		}
		if c.ExpectCharts >= 0 && ref.NumCharts != c.ExpectCharts {
			return nil, fmt.Errorf("case %s: built %d charts, want %d", c.Name, ref.NumCharts, c.ExpectCharts)
		}
	}
	switch c.Kind {
	case "lock":
		if err := checkContention(c); err != nil {
			return nil, fmt.Errorf("case %s: %w", c.Name, err)
		}
	case "cache":
		if err := checkCacheReplay(c); err != nil {
			return nil, fmt.Errorf("case %s: %w", c.Name, err)
		}
	}
	return ref, nil
}

// canonCell formats a value for order-insensitive / CSV-roundtrip-safe
// comparison: numerics at %.6g so int/float inference drift between a
// result table and its CSV golden never false-fails.
func canonCell(v dataset.Value) string {
	if v.IsNull() {
		return "∅"
	}
	if f, ok := v.AsFloat(); ok && v.Type != dataset.TypeBool && v.Type != dataset.TypeTime {
		return fmt.Sprintf("%.6g", f)
	}
	return v.String()
}

func canonRows(t *dataset.Table) []string {
	rows := make([]string, t.NumRows())
	for r := 0; r < t.NumRows(); r++ {
		cells := make([]string, t.NumCols())
		for j, c := range t.Columns() {
			cells[j] = canonCell(c.Value(r))
		}
		rows[r] = strings.Join(cells, "|")
	}
	return rows
}

// TablesMatch compares a result table to an expected table with canonical
// cell formatting; unordered treats the rows as a multiset.
func TablesMatch(got, want *dataset.Table, unordered bool) error {
	gn, wn := got.ColumnNames(), want.ColumnNames()
	if strings.Join(gn, ",") != strings.Join(wn, ",") {
		return fmt.Errorf("columns %v, want %v", gn, wn)
	}
	if got.NumRows() != want.NumRows() {
		return fmt.Errorf("%d rows, want %d", got.NumRows(), want.NumRows())
	}
	gr, wr := canonRows(got), canonRows(want)
	if unordered {
		sortStrings(gr)
		sortStrings(wr)
	}
	for i := range gr {
		if gr[i] != wr[i] {
			return fmt.Errorf("row %d is %q, want %q", i, gr[i], wr[i])
		}
	}
	return nil
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// checkContention asserts the §2.4 single-writer protocol around the
// case's pipeline: while a (harness-injected) skill holds the session
// lock, the same program is rejected with ErrBusy in-process and with a
// typed 409 over the wire — then the pipeline runs to completion.
func checkContention(c *Case) error {
	env, err := newEnv(c)
	if err != nil {
		return err
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	err = env.p.Registry.Register(&skills.Definition{
		Name:     "ConformanceBarrier",
		Category: skills.Collaboration,
		Summary:  "test-only: block the session lock until released",
		PyName:   "conformance_barrier",
		Volatile: true,
		Apply: func(ctx *skills.Context, inv skills.Invocation) (*skills.Result, error) {
			close(entered)
			select {
			case <-release:
			case <-time.After(30 * time.Second):
				return nil, fmt.Errorf("conformance: barrier never released")
			}
			return &skills.Result{Message: "released"}, nil
		},
	})
	if err != nil {
		return err
	}
	srv := server.New(env.p, server.Config{DefaultMaxRows: 1_000_000})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	holdDone := make(chan error, 1)
	go func() {
		_, _, err := env.s.RequestProgram(User, skills.Invocation{Skill: "ConformanceBarrier"})
		holdDone <- err
	}()
	<-entered
	if _, _, err := env.s.RequestProgram(User, invsOf(c.Steps)...); !isBusy(err) {
		close(release)
		<-holdDone
		return fmt.Errorf("in-process run under contention: got %v, want session busy", err)
	}
	cl := client.New(ts.URL)
	if _, err := cl.Run(context.Background(), SessionName, wire.RunRequest{User: User, Program: c.Steps}); !client.IsBusy(err) {
		close(release)
		<-holdDone
		return fmt.Errorf("wire run under contention: got %v, want typed 409 busy", err)
	}
	close(release)
	if err := <-holdDone; err != nil {
		return fmt.Errorf("barrier holder: %w", err)
	}
	// Lock free again: the pipeline must run normally.
	if _, _, err := env.s.RequestProgram(User, invsOf(c.Steps)...); err != nil {
		return fmt.Errorf("run after contention: %w", err)
	}
	return nil
}

func isBusy(err error) bool {
	if err == nil {
		return false
	}
	return strings.Contains(err.Error(), session.ErrBusy.Error())
}

// checkCacheReplay replays the case's recipe twice in one environment and
// asserts the second pass is served from the sub-DAG cache with identical
// results.
func checkCacheReplay(c *Case) error {
	env, err := newEnv(c)
	if err != nil {
		return err
	}
	r := &recipe.Recipe{Name: c.Name, Steps: c.Steps}
	first, _, err := env.s.Replay(context.Background(), User, r, faults.RetryPolicy{}, env.opts)
	if err != nil {
		return fmt.Errorf("first replay: %w", err)
	}
	before := env.p.CacheStats()
	second, _, err := env.s.Replay(context.Background(), User, r, faults.RetryPolicy{}, env.opts)
	if err != nil {
		return fmt.Errorf("second replay: %w", err)
	}
	after := env.p.CacheStats()
	if after.Hits <= before.Hits {
		return fmt.Errorf("second replay hit the cache %d times, want > %d", after.Hits, before.Hits)
	}
	if (first.Table != nil) != (second.Table != nil) {
		return fmt.Errorf("cached replay changed table presence")
	}
	if first.Table != nil && !first.Table.Equal(second.Table) {
		return fmt.Errorf("cached replay returned a different table")
	}
	return nil
}

// MatrixPoint is one cell of the streamed-execution matrix.
type MatrixPoint struct {
	Workers         int
	MaxBufferedRows int
}

// DefaultMatrix re-runs a case streamed at parallelism {1,2,4} with a
// tiny memory budget so pipeline breakers must spill.
var DefaultMatrix = []MatrixPoint{{1, 3}, {2, 3}, {4, 3}}

// RunMatrix executes the canonical program streamed under the point's
// tuning and asserts both the final result and the reassembled chunk
// stream are cell-identical to the buffered reference.
func RunMatrix(c *Case, ref *RouteResult, pt MatrixPoint, spillDir string) error {
	env, err := newEnv(c)
	if err != nil {
		return err
	}
	var parts []*dataset.Table
	tune := session.Tuning{
		Stream:                func(t *dataset.Table) error { parts = append(parts, t); return nil },
		StreamChunkRows:       2,
		StreamParallelism:     pt.Workers,
		StreamMaxBufferedRows: pt.MaxBufferedRows,
		StreamSpillDir:        spillDir,
	}
	res, _, _, err := env.s.RequestProgramCtx(context.Background(), User, tune, invsOf(c.Steps)...)
	if err != nil {
		return fmt.Errorf("streamed run (workers=%d, budget=%d): %w", pt.Workers, pt.MaxBufferedRows, err)
	}
	if (res.Table != nil) != (ref.Table != nil) {
		return fmt.Errorf("streamed run (workers=%d) table presence %v, buffered %v", pt.Workers, res.Table != nil, ref.Table != nil)
	}
	if res.Table != nil && !res.Table.Equal(ref.Table) {
		return fmt.Errorf("streamed run (workers=%d, budget=%d) diverges from buffered:\n%s",
			pt.Workers, pt.MaxBufferedRows, tableDiff(res.Table, ref.Table))
	}
	if len(parts) > 0 {
		if assembled := dataset.Concat(parts); !assembled.Equal(ref.Table) {
			return fmt.Errorf("reassembled chunk stream (workers=%d) diverges from buffered:\n%s",
				pt.Workers, tableDiff(assembled, ref.Table))
		}
	}
	return nil
}

// MatrixEligible reports whether matrix mode applies: standard cases that
// execute successfully. Lock and cache kinds have their own protocol;
// degraded and error cases exercise failure paths the stream replays
// identically anyway.
func MatrixEligible(c *Case) bool {
	return c.Kind == "" && c.ExpectError == "" && c.DryRunError == "" && c.BudgetBytes == 0
}
