package session

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"datachat/internal/artifact"
	"datachat/internal/dataset"
	"datachat/internal/skills"
)

var reg = skills.NewRegistry()

func newSession(t *testing.T) *Session {
	t.Helper()
	ctx := skills.NewContext()
	ids := make([]int64, 1000)
	for i := range ids {
		ids[i] = int64(i)
	}
	ctx.Datasets["base"] = dataset.MustNewTable("base",
		dataset.IntColumn("id", ids, nil))
	return New("analysis", "ann", reg, ctx)
}

func TestRequestAndHistory(t *testing.T) {
	s := newSession(t)
	res, id, err := s.Request("ann", skills.Invocation{Skill: "KeepRows", Inputs: []string{"base"},
		Args: skills.Args{"condition": "id < 10"}, Output: "small"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 10 || id != 0 {
		t.Errorf("res = %d rows, id %d", res.Table.NumRows(), id)
	}
	hist := s.History()
	if len(hist) != 1 || hist[0].User != "ann" || !strings.Contains(hist[0].GEL, "Keep the rows") {
		t.Errorf("history = %+v", hist)
	}
	// Failures are also recorded, synchronized across members.
	_, _, err = s.Request("ann", skills.Invocation{Skill: "KeepRows", Inputs: []string{"base"},
		Args: skills.Args{"condition": "nope > 1"}})
	if err == nil {
		t.Fatal("expected failure")
	}
	hist = s.History()
	if len(hist) != 2 || hist[1].Error == "" {
		t.Errorf("failure not recorded: %+v", hist)
	}
}

func TestMembershipEnforced(t *testing.T) {
	s := newSession(t)
	inv := skills.Invocation{Skill: "CountRows", Inputs: []string{"base"}}
	if _, _, err := s.Request("stranger", inv); err == nil {
		t.Error("stranger should be rejected")
	}
	if err := s.Share("ann", "bob", artifact.ViewAccess); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Request("bob", inv); err == nil {
		t.Error("viewer should not execute requests")
	}
	if err := s.Share("ann", "bob", artifact.EditAccess); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Request("bob", inv); err != nil {
		t.Errorf("editor should execute: %v", err)
	}
	if err := s.Share("bob", "carl", artifact.ViewAccess); err == nil {
		t.Error("only the owner shares the session")
	}
	if err := s.Revoke("ann", "bob"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Request("bob", inv); err == nil {
		t.Error("revoked member should be rejected")
	}
	if err := s.Revoke("ann", "ann"); err == nil {
		t.Error("owner cannot be revoked")
	}
	members := s.Members()
	if len(members) != 1 || members[0] != "ann" {
		t.Errorf("members = %v", members)
	}
}

// TestConcurrentRequestsFail pins the §2.4 lock semantics: when two
// requests race, exactly one wins and the other fails with ErrBusy.
func TestConcurrentRequestsFail(t *testing.T) {
	s := newSession(t)
	if err := s.Share("ann", "bob", artifact.EditAccess); err != nil {
		t.Fatal(err)
	}
	const attempts = 8
	var wg sync.WaitGroup
	errs := make([]error, attempts)
	start := make(chan struct{})
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			// A moderately slow request so overlaps happen.
			_, _, errs[i] = s.Request("bob", skills.Invocation{
				Skill: "Compute", Inputs: []string{"base"},
				Args: skills.Args{"aggregates": []string{"sum of id as total"}},
			})
		}(i)
	}
	close(start)
	wg.Wait()
	succeeded, busy := 0, 0
	for _, err := range errs {
		switch {
		case err == nil:
			succeeded++
		case errors.Is(err, ErrBusy):
			busy++
		default:
			t.Errorf("unexpected error: %v", err)
		}
	}
	if succeeded == 0 {
		t.Error("no request succeeded")
	}
	if succeeded+busy != attempts {
		t.Errorf("succeeded=%d busy=%d", succeeded, busy)
	}
}

func TestSaveArtifactSlicesRecipe(t *testing.T) {
	s := newSession(t)
	store := artifact.NewStore()
	// An exploratory session: productive chain plus dead ends.
	if _, _, err := s.Request("ann", skills.Invocation{Skill: "KeepRows", Inputs: []string{"base"},
		Args: skills.Args{"condition": "id < 100"}, Output: "f1"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Request("ann", skills.Invocation{Skill: "DescribeDataset", Inputs: []string{"f1"}, Output: "dead1"}); err != nil {
		t.Fatal(err)
	}
	_, target, err := s.Request("ann", skills.Invocation{Skill: "KeepRows", Inputs: []string{"f1"},
		Args: skills.Args{"condition": "id >= 50"}, Output: "f2"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Request("ann", skills.Invocation{Skill: "CountRows", Inputs: []string{"base"}, Output: "dead2"}); err != nil {
		t.Fatal(err)
	}

	a, err := s.SaveArtifact(store, "ann", "halfband", target, artifact.TypeTable)
	if err != nil {
		t.Fatal(err)
	}
	if a.Table.NumRows() != 50 {
		t.Errorf("artifact rows = %d", a.Table.NumRows())
	}
	// Sliced: the two KeepRows merge into one step; dead ends pruned.
	if len(a.Recipe.Steps) != 1 {
		t.Errorf("recipe steps = %d (%+v)", len(a.Recipe.Steps), a.Recipe.Steps)
	}
	// Strangers can't save.
	if _, err := s.SaveArtifact(store, "zed", "x", target, artifact.TypeTable); err == nil {
		t.Error("stranger should not save artifacts")
	}
}

func TestHomeScreen(t *testing.T) {
	h := NewHomeScreen()
	if err := h.MkDir("reports/q2"); err != nil {
		t.Fatal(err)
	}
	if err := h.Place("reports/q2", "chart1"); err != nil {
		t.Fatal(err)
	}
	if err := h.Place("reports/q2", "chart1"); err != nil {
		t.Fatal(err) // idempotent
	}
	if err := h.Place("reports/q2", "chart2"); err != nil {
		t.Fatal(err)
	}
	items, children, err := h.ListFolder("reports/q2")
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 || items[0] != "chart1" {
		t.Errorf("items = %v", items)
	}
	if len(children) != 0 {
		t.Errorf("children = %v", children)
	}
	_, children, err = h.ListFolder("reports")
	if err != nil {
		t.Fatal(err)
	}
	if len(children) != 1 || children[0] != "q2" {
		t.Errorf("children = %v", children)
	}
	if err := h.Remove("reports/q2", "chart1"); err != nil {
		t.Fatal(err)
	}
	if err := h.Remove("reports/q2", "chart1"); err == nil {
		t.Error("double remove should fail")
	}
	if _, _, err := h.ListFolder("nope"); err != nil {
		// expected
	} else {
		t.Error("missing folder should error")
	}
}
