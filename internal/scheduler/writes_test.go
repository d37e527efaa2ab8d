package scheduler

import (
	"context"
	"testing"
	"time"

	"datachat/internal/artifact"
	"datachat/internal/core"
	"datachat/internal/session"
	"datachat/internal/skills"
)

// shape is a table's first column name and row count, "" and -1 for a miss.
func shape(t *testing.T, s *session.Session, name string) (string, int) {
	t.Helper()
	tab, err := s.Context().Dataset(name)
	if err != nil {
		return "", -1
	}
	return tab.Columns()[0].Name(), tab.NumRows()
}

// TestOnlyRequestsWriteTheSession: a request is the only execution that
// writes a session's context. An artifact refresh, a scheduled replay and the
// re-run inside an artifact save run in a fork of it: they read the session
// but leave its datasets — and the shared cache — as they found them.
func TestOnlyRequestsWriteTheSession(t *testing.T) {
	ctx := context.Background()

	t.Run("refresh into another session", func(t *testing.T) {
		p := core.New()
		p.RegisterFile("a.csv", "x\n1\n2\n3\n")
		p.RegisterFile("b.csv", "y\n10\n20\n")
		a, err := p.CreateSession("A", "ann")
		if err != nil {
			t.Fatal(err)
		}
		b, err := p.CreateSession("B", "ann")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.RequestGEL("A", "ann", "Load data from the file a.csv", ""); err != nil {
			t.Fatal(err)
		}
		if _, err := a.SaveArtifact(p.Artifacts, "ann", "art", 0, artifact.TypeTable); err != nil {
			t.Fatal(err)
		}
		if _, err := p.RequestGEL("B", "ann", "Load data from the file b.csv", ""); err != nil {
			t.Fatal(err)
		}
		before := p.CacheStats()
		art, err := p.RefreshArtifact(ctx, "B", "ann", "art", session.Tuning{})
		if err != nil {
			t.Fatal(err)
		}
		if art.Table.NumRows() != 3 {
			t.Errorf("refreshed art has %d rows, want a.csv's 3", art.Table.NumRows())
		}
		after := p.CacheStats()
		if col, rows := shape(t, b, "node0"); col != "y" || rows != 2 {
			t.Errorf("B's node0 after the refresh is [%s] with %d rows, want [y] with 2", col, rows)
		}
		if after.Entries != before.Entries || before.Entries != 2 {
			t.Errorf("cache entries %d -> %d across the refresh, want 2 -> 2", before.Entries, after.Entries)
		}
		if after.Hits == before.Hits || after.Misses != before.Misses {
			t.Errorf("refresh not served from the cache: %+v -> %+v", before, after)
		}
	})

	t.Run("scheduler", func(t *testing.T) {
		p, _, _, s, _ := newTestRig(t)
		if _, err := s.Add(Spec{Name: "daily", User: "alice", Recipe: metricsRecipe(t), Every: time.Minute}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if rec, err := s.RunNow(ctx, "daily"); err != nil || rec.Err != "" {
				t.Fatalf("run %d: %v / %+v", i+1, err, rec)
			}
		}
		if b := p.SessionBytes()["sched:daily"]; b != 0 {
			t.Errorf("the dedicated session pins %d B after 3 runs, want 0", b)
		}

		// A job pointed at a user's session, on a fresh platform. The user
		// loads and filters in one request, so the filter is pushed into the
		// scan, which the job's own scan must not read.
		p, _, _, s, _ = newTestRig(t)
		work, err := p.CreateSession("work", "alice")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run("work", "alice",
			skills.Invocation{Skill: "LoadTable", Args: skills.Args{"database": "wh", "table": "metrics"}, Output: "metrics"},
			skills.Invocation{Skill: "KeepRows", Inputs: []string{"metrics"}, Args: skills.Args{"condition": "val < 10"}, Output: "hot"},
		); err != nil {
			t.Fatal(err)
		}
		col, rows := shape(t, work, "hot")
		if col != "mid" || rows != 6 {
			t.Fatalf("the user's hot is [%s] with %d rows, want [mid] with 6", col, rows)
		}
		if _, err := s.Add(Spec{Name: "shared", Session: "work", User: "alice", Recipe: metricsRecipe(t), Every: time.Minute}); err != nil {
			t.Fatal(err)
		}
		if rec, err := s.RunNow(ctx, "shared"); err != nil || rec.Err != "" {
			t.Fatalf("run in the user's session: %v / %+v", err, rec)
		}
		if c, r := shape(t, work, "hot"); c != col || r != rows {
			t.Errorf("the job replaced the user's hot: [%s] %d rows -> [%s] %d rows", col, rows, c, r)
		}
	})

	t.Run("save", func(t *testing.T) {
		p := core.New()
		p.RegisterFile("people.csv", "name,age,dept\nann,30,eng\nbob,25,eng\ncarl,40,sales\n")
		s, err := p.CreateSession("s", "ann")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.RequestGEL("s", "ann", "Load data from the file people.csv", ""); err != nil {
			t.Fatal(err)
		}
		if _, err := p.RequestGEL("s", "ann", "Keep the rows where age > 26", "node0"); err != nil {
			t.Fatal(err)
		}
		if b := p.SessionBytes()["s"]; b != 0 {
			t.Fatalf("the session holds %d B before the save, want 0", b)
		}
		if _, err := s.SaveArtifact(p.Artifacts, "ann", "kept", 1, artifact.TypeTable); err != nil {
			t.Fatal(err)
		}
		if b := p.SessionBytes()["s"]; b != 0 {
			t.Errorf("the save pinned %d B into the session, want 0", b)
		}
	})
}
