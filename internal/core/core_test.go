package core

import (
	"context"
	"slices"
	"testing"

	"datachat/internal/artifact"
	"datachat/internal/cloud"
	"datachat/internal/dataset"
	"datachat/internal/faults"
	"datachat/internal/nl2code"
	"datachat/internal/recipe"
	"datachat/internal/semantic"
	"datachat/internal/session"
	"datachat/internal/skills"
	"datachat/internal/spider"
)

func newPlatform(t *testing.T) *Platform {
	t.Helper()
	p := New()
	p.RegisterFile("people.csv", "name,age,dept\nann,30,eng\nbob,25,eng\ncarl,40,sales\n")
	return p
}

func TestSessionLifecycle(t *testing.T) {
	p := newPlatform(t)
	s, err := p.CreateSession("analysis", "ann")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.CreateSession("analysis", "ann"); err == nil {
		t.Error("duplicate session should fail")
	}
	got, err := p.Session("Analysis")
	if err != nil || got != s {
		t.Errorf("Session lookup = %v, %v", got, err)
	}
	if _, err := p.Session("nope"); err == nil {
		t.Error("missing session should error")
	}
	if names := p.Sessions(); len(names) != 1 || names[0] != "analysis" {
		t.Errorf("sessions = %v", names)
	}
}

func TestRequestGELEndToEnd(t *testing.T) {
	p := newPlatform(t)
	if _, err := p.CreateSession("s", "ann"); err != nil {
		t.Fatal(err)
	}
	res, err := p.RequestGEL("s", "ann", "Load data from the file people.csv", "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 3 {
		t.Errorf("rows = %d", res.Table.NumRows())
	}
	// The load is the graph's latest step; follow up on its output by name
	// (the cache holds it, so the session need not).
	s, _ := p.Session("s")
	loaded, err := s.Graph().Node(s.Graph().Last())
	if err != nil {
		t.Fatal(err)
	}
	current := loaded.OutputName()
	if tab, err := s.Context().Dataset(current); err != nil || tab.NumRows() != 3 {
		t.Fatalf("loaded dataset %q does not read back: %v", current, err)
	}
	res, err = p.RequestGEL("s", "ann", "Keep the rows where age > 26", current)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 2 {
		t.Errorf("filtered rows = %d", res.Table.NumRows())
	}
	// Input-requiring sentence without a current dataset fails helpfully.
	if _, err := p.RequestGEL("s", "ann", "Count the rows", ""); err == nil {
		t.Error("missing current dataset should fail")
	}
	// Bad GEL fails at parse.
	if _, err := p.RequestGEL("s", "ann", "frobnicate", current); err == nil {
		t.Error("bad GEL should fail")
	}
}

func TestDatabasesAndSessionsSeeding(t *testing.T) {
	p := newPlatform(t)
	db := cloud.NewDatabase("warehouse", cloud.DefaultPricing, 100)
	ids := make([]int64, 500)
	for i := range ids {
		ids[i] = int64(i)
	}
	if err := db.CreateTable(dataset.MustNewTable("events", dataset.IntColumn("id", ids, nil))); err != nil {
		t.Fatal(err)
	}
	if err := p.ConnectDatabase(db); err != nil {
		t.Fatal(err)
	}
	if err := p.ConnectDatabase(db); err == nil {
		t.Error("duplicate connect should fail")
	}
	if _, err := p.Database("warehouse"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Database("nope"); err == nil {
		t.Error("missing database should error")
	}
	if _, err := p.CreateSession("s", "ann"); err != nil {
		t.Fatal(err)
	}
	res, err := p.RequestGEL("s", "ann", "Sample 10% of the table events from the database warehouse", "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() == 0 || res.Table.NumRows() >= 500 {
		t.Errorf("sample rows = %d", res.Table.NumRows())
	}
	// Snapshot skills work against the platform store.
	if _, err := p.RequestGEL("s", "ann", "Create a snapshot ev of the table events from the database warehouse", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Snapshots.Get("ev"); err != nil {
		t.Errorf("snapshot not in platform store: %v", err)
	}
}

func TestArtifactFlowWithBoards(t *testing.T) {
	p := newPlatform(t)
	s, err := p.CreateSession("s", "ann")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RequestGEL("s", "ann", "Load data from the file people.csv", ""); err != nil {
		t.Fatal(err)
	}
	_, id, err := s.Request("ann", skills.Invocation{Skill: "Compute", Inputs: []string{"node0"},
		Args: skills.Args{"aggregates": []string{"count of records as n"}, "for_each": []string{"dept"}}})
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.SaveArtifact(p.Artifacts, "ann", "dept_counts", id, artifact.TypeTable)
	if err != nil {
		t.Fatal(err)
	}
	if a.Recipe == nil || len(a.Recipe.Steps) == 0 {
		t.Fatal("artifact has no recipe")
	}
	// Organize and share.
	if err := p.Home.Place("reports", "dept_counts"); err != nil {
		t.Fatal(err)
	}
	secret, err := p.Artifacts.CreateSecretLink("dept_counts", "ann")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Artifacts.GetBySecret(secret); err != nil {
		t.Fatal(err)
	}
}

func TestNL2CodeThroughPlatform(t *testing.T) {
	p := newPlatform(t)
	domains := spider.Domains(1)
	var sales *spider.Domain
	for _, d := range domains {
		if d.Name == "sales" {
			sales = d
		}
	}
	var examples []*nl2code.LibraryExample
	for _, ex := range spider.GenerateLibrary(domains, 99, 6) {
		examples = append(examples, &nl2code.LibraryExample{Question: ex.Question, Program: ex.Gold, Domain: ex.Domain})
	}
	p.UseNL2Code(nl2code.NewSystem(p.Registry, nl2code.NewLibrary(examples)))
	for _, c := range sales.Layer.Concepts() {
		if err := p.Semantic.Define(*c); err != nil {
			t.Fatal(err)
		}
	}
	s, err := p.CreateSession("s", "ann")
	if err != nil {
		t.Fatal(err)
	}
	for name, table := range sales.Tables {
		s.Context().Datasets[name] = table
	}
	resp, err := p.NL2Code("s", "What is the average price for each region?")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Program) == 0 || resp.Python == "" || len(resp.GEL) == 0 {
		t.Errorf("response incomplete: %+v", resp)
	}
	if _, err := p.NL2Code("missing", "q"); err == nil {
		t.Error("missing session should error")
	}
}

// TestNL2CodeSeesTheLatestStep: a question asked right after a load is asked
// of the loaded table, though the session left that result to the cache.
func TestNL2CodeSeesTheLatestStep(t *testing.T) {
	p := newPlatform(t)
	if _, err := p.CreateSession("s", "ann"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RequestGEL("s", "ann", "Load data from the file people.csv", ""); err != nil {
		t.Fatal(err)
	}
	resp, err := p.NL2Code("s", "What is the average age for each dept?")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Program) == 0 || !slices.Contains(resp.Program[0].Inputs, "node0") {
		t.Errorf("program %+v does not read the loaded node0", resp.Program)
	}
}

func TestTranslatePhraseThroughPlatform(t *testing.T) {
	p := newPlatform(t)
	if err := p.Semantic.Define(semantic.Concept{
		Name: "veterans", Kind: semantic.Filter, Expansion: "age >= 40"}); err != nil {
		t.Fatal(err)
	}
	s, err := p.CreateSession("s", "ann")
	if err != nil {
		t.Fatal(err)
	}
	s.Context().Datasets["people"] = dataset.MustNewTable("people",
		dataset.IntColumn("age", []int64{30, 25, 40}, nil),
		dataset.StringColumn("dept", []string{"eng", "eng", "sales"}, nil),
	)
	got, err := p.TranslatePhrase("s", "Visualize dept where veterans", "people")
	if err != nil {
		t.Fatal(err)
	}
	if got.Invocation.Args.StringOr("filter", "") != "(age >= 40)" {
		t.Errorf("filter = %v", got.Invocation.Args["filter"])
	}
	if _, err := p.TranslatePhrase("s", "Visualize dept", "missing"); err == nil {
		t.Error("missing dataset should error")
	}
	// RunPhrase executes what TranslatePhrase produced, defaulting the
	// invocation's input to the dataset the phrase was asked of.
	res, err := p.RunPhrase("s", "ann", "Visualize dept", "people")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Charts) == 0 {
		t.Errorf("RunPhrase built no chart: %+v", res)
	}
}

func TestRefreshArtifact(t *testing.T) {
	p := newPlatform(t)
	s, err := p.CreateSession("s", "ann")
	if err != nil {
		t.Fatal(err)
	}
	s.Context().Datasets["people"] = dataset.MustNewTable("people",
		dataset.IntColumn("age", []int64{10, 20, 30}, nil))
	_, id, err := s.Request("ann", skills.Invocation{Skill: "CountRows",
		Inputs: []string{"people"}, Output: "n"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SaveArtifact(p.Artifacts, "ann", "rowcount", id, artifact.TypeTable); err != nil {
		t.Fatal(err)
	}
	// Underlying data grows; refresh must see it.
	s.Context().Datasets["people"] = dataset.MustNewTable("people",
		dataset.IntColumn("age", []int64{10, 20, 30, 40, 50}, nil))
	a, err := p.RefreshArtifact(context.Background(), "s", "ann", "rowcount", session.Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := a.Table.Column("rows")
	if c.Value(0).I != 5 {
		t.Errorf("refreshed count = %v, want 5", c.Value(0))
	}
	if !a.RefreshedAt.After(a.CreatedAt) {
		t.Error("RefreshedAt not advanced")
	}
	// Viewers cannot refresh.
	if err := p.Artifacts.Share("rowcount", "ann", "bob", artifact.ViewAccess); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RefreshArtifact(context.Background(), "s", "bob", "rowcount", session.Tuning{}); err == nil {
		t.Error("viewer refresh should fail")
	}
	if _, err := p.RefreshArtifact(context.Background(), "s", "ann", "missing", session.Tuning{}); err == nil {
		t.Error("missing artifact refresh should fail")
	}
}

// TestRefreshAfterPushedDownScan: a replayed recipe that loads a warehouse
// table and filters it pushes the filter into the scan. The filtered rows are
// cached under a key of their own, so a refresh of an artifact over the whole
// table, and a plain load of it in another session, still read every row.
func TestRefreshAfterPushedDownScan(t *testing.T) {
	p := New()
	db := cloud.NewDatabase("wh", cloud.DefaultPricing, 64)
	metrics := func(n int) *dataset.Table {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(i)
		}
		return dataset.MustNewTable("metrics", dataset.IntColumn("val", vals, nil))
	}
	if err := db.CreateTable(metrics(100)); err != nil {
		t.Fatal(err)
	}
	if err := p.ConnectDatabase(db); err != nil {
		t.Fatal(err)
	}
	a, err := p.CreateSession("A", "ann")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"B", "C"} {
		if _, err := p.CreateSession(name, "ann"); err != nil {
			t.Fatal(err)
		}
	}
	load := skills.Invocation{Skill: "LoadTable", Args: skills.Args{"database": "wh", "table": "metrics"}, Output: "m"}
	if _, err := p.Run("A", "ann", load); err != nil {
		t.Fatal(err)
	}
	if _, err := a.SaveArtifact(p.Artifacts, "ann", "all", 0, artifact.TypeTable); err != nil {
		t.Fatal(err)
	}

	// The table grows; B then replays a load and filter of it, before
	// anything has scanned the new content whole.
	if err := db.ReplaceTable(metrics(120)); err != nil {
		t.Fatal(err)
	}
	b, err := p.Session("B")
	if err != nil {
		t.Fatal(err)
	}
	r := &recipe.Recipe{Name: "low", Steps: []recipe.Step{
		{Skill: load.Skill, Args: load.Args, Output: load.Output},
		{Skill: "KeepRows", Inputs: []string{"m"}, Args: skills.Args{"condition": "val < 10"}, Output: "low"},
	}}
	if e, err := b.ExplainReplay(r, session.Tuning{}); err != nil || len(e.Nodes) == 0 || len(e.Nodes[0].Pushdown) == 0 {
		t.Fatalf("the replay pushes nothing into the scan: %v %v", e, err)
	}
	low, _, err := b.Replay(context.Background(), "ann", r, faults.RetryPolicy{}, session.Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	if low.Table.NumRows() != 10 {
		t.Fatalf("B's filter kept %d rows, want 10", low.Table.NumRows())
	}

	art, err := p.RefreshArtifact(context.Background(), "A", "ann", "all", session.Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	if art.Table.NumRows() != 120 {
		t.Errorf("refreshed artifact has %d rows, want the whole table's 120", art.Table.NumRows())
	}
	res, err := p.Run("C", "ann", load)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 120 {
		t.Errorf("a plain load in C returned %d rows, want the whole table's 120", res.Table.NumRows())
	}
}

func TestSaveModelArtifact(t *testing.T) {
	p := newPlatform(t)
	s, err := p.CreateSession("s", "ann")
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]int64, 40)
	ys := make([]float64, 40)
	for i := range xs {
		xs[i] = int64(i)
		ys[i] = 2 * float64(i)
	}
	s.Context().Datasets["lin"] = dataset.MustNewTable("lin",
		dataset.IntColumn("x", xs, nil), dataset.FloatColumn("y", ys, nil))
	_, id, err := s.Request("ann", skills.Invocation{Skill: "TrainModel", Inputs: []string{"lin"},
		Args: skills.Args{"target": "y", "features": []string{"x"}, "name": "m"}})
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.SaveArtifact(p.Artifacts, "ann", "gdp_model", id, "")
	if err != nil {
		t.Fatal(err)
	}
	if a.Type != artifact.TypeModel {
		t.Errorf("type = %s, want model", a.Type)
	}
	if a.ModelName == "" {
		t.Error("model kind not recorded")
	}
}

// TestPushedDownScanKeepsItsName: one request loads a warehouse table and
// filters it. The session then holds the whole table under the load's name
// and the filtered rows under the filter's: a node's name holds only that
// node's output, whatever the planner pushed where.
func TestPushedDownScanKeepsItsName(t *testing.T) {
	p := New()
	db := cloud.NewDatabase("wh", cloud.DefaultPricing, 64)
	vals := make([]int64, 500)
	for i := range vals {
		vals[i] = int64(i % 100)
	}
	if err := db.CreateTable(dataset.MustNewTable("metrics", dataset.IntColumn("val", vals, nil))); err != nil {
		t.Fatal(err)
	}
	if err := p.ConnectDatabase(db); err != nil {
		t.Fatal(err)
	}
	s, err := p.CreateSession("s", "ann")
	if err != nil {
		t.Fatal(err)
	}
	load, err := p.ParseGEL("Load the table metrics from the database wh", "")
	if err != nil {
		t.Fatal(err)
	}
	keep, err := p.ParseGEL("Keep the rows where val < 10", "node0")
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run("s", "ann", load, keep)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 50 {
		t.Fatalf("the filter kept %d rows, want 50", res.Table.NumRows())
	}
	scanned, err := s.Context().Dataset("node0")
	if err != nil {
		t.Fatal(err)
	}
	if scanned.NumRows() != 500 {
		t.Errorf("node0, the load, holds %d rows, want the whole table's 500", scanned.NumRows())
	}
}
