package recipe

import (
	"context"
	"strings"
	"testing"

	"datachat/internal/dag"
	"datachat/internal/dataset"
	"datachat/internal/skills"
)

var reg = skills.NewRegistry()

func buildGraph() *dag.Graph {
	g := dag.NewGraph()
	g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{"people"},
		Args: skills.Args{"condition": "age > 20"}, Output: "adults"})
	g.Add(skills.Invocation{Skill: "Compute", Inputs: []string{"adults"},
		Args:   skills.Args{"aggregates": []string{"count of id as n"}, "for_each": []string{"dept"}},
		Output: "summary"})
	return g
}

func newCtx() *skills.Context {
	ctx := skills.NewContext()
	ctx.Datasets["people"] = dataset.MustNewTable("people",
		dataset.IntColumn("id", []int64{1, 2, 3, 4}, nil),
		dataset.IntColumn("age", []int64{15, 25, 35, 45}, nil),
		dataset.StringColumn("dept", []string{"a", "a", "b", "b"}, nil),
	)
	return ctx
}

// replay runs rec to its last step on ex, the way a session replays it.
func replay(t *testing.T, ex *dag.Executor, rec *Recipe) *skills.Result {
	t.Helper()
	g := rec.Graph()
	res, _, err := ex.RunWith(context.Background(), g, g.Last(), dag.ExecOptions{})
	if err != nil {
		t.Fatalf("replaying %q: %v", rec.Name, err)
	}
	return res
}

func TestFromGraphAndBack(t *testing.T) {
	g := buildGraph()
	rec, err := FromGraph("summary", g)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Steps) != 2 || rec.Steps[0].Output != "adults" {
		t.Fatalf("steps = %+v", rec.Steps)
	}
	rebuilt := rec.Graph()
	if rebuilt.Len() != 2 {
		t.Fatalf("rebuilt size = %d", rebuilt.Len())
	}
	node, _ := rebuilt.Node(1)
	if node.Parents[0] != 0 {
		t.Errorf("rebuilt wiring = %v", node.Parents)
	}
}

func TestJSONRoundTripAndReplay(t *testing.T) {
	rec, err := FromGraph("summary", buildGraph())
	if err != nil {
		t.Fatal(err)
	}
	data, err := rec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "summary" || len(back.Steps) != 2 {
		t.Fatalf("decoded = %+v", back)
	}
	// Replaying the decoded recipe produces the same table as the original.
	r1 := replay(t, dag.NewExecutor(reg, newCtx()), rec)
	r2 := replay(t, dag.NewExecutor(reg, newCtx()), back)
	if !r1.Table.Equal(r2.Table.WithName(r1.Table.Name())) {
		t.Error("decoded replay differs from original")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte("not json")); err == nil {
		t.Error("bad json should error")
	}
	if _, err := Decode([]byte(`{"name":"x","steps":[]}`)); err == nil {
		t.Error("empty steps should error")
	}
}

func TestGELView(t *testing.T) {
	rec, err := FromGraph("summary", buildGraph())
	if err != nil {
		t.Fatal(err)
	}
	lines, err := rec.GEL(reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 {
		t.Fatalf("lines = %v", lines)
	}
	if lines[0] != "Keep the rows where age > 20" {
		t.Errorf("line 0 = %s", lines[0])
	}
	if !strings.Contains(lines[1], "Compute the count of id") {
		t.Errorf("line 1 = %s", lines[1])
	}
}

func TestPythonView(t *testing.T) {
	rec, err := FromGraph("summary", buildGraph())
	if err != nil {
		t.Fatal(err)
	}
	code, err := rec.Python(reg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(code, `adults = people.keep_rows(condition = "age > 20")`) {
		t.Errorf("python view:\n%s", code)
	}
	if !strings.Contains(code, "adults.compute(") {
		t.Errorf("python view:\n%s", code)
	}
}

func TestSQLView(t *testing.T) {
	rec, err := FromGraph("summary", buildGraph())
	if err != nil {
		t.Fatal(err)
	}
	ex := dag.NewExecutor(reg, newCtx())
	sql, err := rec.SQL(ex)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "GROUP BY dept") || !strings.Contains(sql, "WHERE (age > 20)") {
		t.Errorf("sql view = %s", sql)
	}
}

func TestReplayWithRefreshSeesNewData(t *testing.T) {
	ctx := newCtx()
	ex := dag.NewExecutor(reg, ctx)
	rec, err := FromGraph("summary", buildGraph())
	if err != nil {
		t.Fatal(err)
	}
	first := replay(t, ex, rec)
	// Underlying data changes.
	ctx.Datasets["people"] = dataset.MustNewTable("people",
		dataset.IntColumn("id", []int64{1, 2}, nil),
		dataset.IntColumn("age", []int64{30, 40}, nil),
		dataset.StringColumn("dept", []string{"z", "z"}, nil),
	)
	// Cache keys include dataset content fingerprints, so a replay sees the
	// new data with no invalidation — serving the stale cached result for the
	// same dataset name would be a bug.
	second := replay(t, ex, rec)
	if first.Table.Equal(second.Table) {
		t.Error("replay after a data change should not serve the stale cached result")
	}
	c, _ := second.Table.Column("n")
	if c.Value(0).I != 2 {
		t.Errorf("refreshed count = %v", c.Value(0))
	}
}

func TestValidate(t *testing.T) {
	rec, err := FromGraph("summary", buildGraph())
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Validate(reg); err != nil {
		t.Fatalf("valid recipe rejected: %v", err)
	}
	bad := []*Recipe{
		{Name: "empty"},
		{Name: "unknown", Steps: []Step{{Skill: "Frobnicate"}}},
		{Name: "missing-param", Steps: []Step{{Skill: "KeepRows", Inputs: []string{"x"}}}},
		{Name: "dup-output", Steps: []Step{
			{Skill: "CountRows", Inputs: []string{"x"}, Output: "a"},
			{Skill: "CountRows", Inputs: []string{"x"}, Output: "a"},
		}},
		{Name: "forward-ref", Steps: []Step{
			{Skill: "CountRows", Inputs: []string{"later"}, Output: "a"},
			{Skill: "CountRows", Inputs: []string{"x"}, Output: "later"},
		}},
	}
	for _, r := range bad {
		if err := r.Validate(reg); err == nil {
			t.Errorf("recipe %q should fail validation", r.Name)
		}
	}
}
