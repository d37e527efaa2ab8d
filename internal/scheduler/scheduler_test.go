package scheduler

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"datachat/internal/board"
	"datachat/internal/cloud"
	"datachat/internal/core"
	"datachat/internal/dag"
	"datachat/internal/dataset"
	"datachat/internal/faults"
	"datachat/internal/recipe"
	"datachat/internal/skills"
	"datachat/internal/testutil"
)

func metricsCSV(n, seed int) string {
	var b strings.Builder
	b.WriteString("mid,host,val\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d,h%d,%d\n", i, i%7, (i*31+seed)%1000)
	}
	return b.String()
}

func metricsTable(t *testing.T, n, seed int) *dataset.Table {
	t.Helper()
	tb, err := dataset.ReadCSVString("metrics", metricsCSV(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func metricsRecipe(t *testing.T) *recipe.Recipe {
	t.Helper()
	g := dag.NewGraph()
	g.Add(skills.Invocation{Skill: "LoadTable",
		Args: skills.Args{"database": "wh", "table": "metrics"}, Output: "metrics"})
	g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{"metrics"},
		Args: skills.Args{"condition": "val >= 500"}, Output: "hot"})
	r, err := recipe.FromGraph("hot-metrics", g)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func newTestRig(t *testing.T) (*core.Platform, *cloud.Database, *board.Hub, *Scheduler, *faults.VirtualClock) {
	t.Helper()
	p := core.New()
	db := cloud.NewDatabase("wh", cloud.DefaultPricing, 64)
	if err := db.CreateTable(metricsTable(t, 500, 1)); err != nil {
		t.Fatal(err)
	}
	if err := p.ConnectDatabase(db); err != nil {
		t.Fatal(err)
	}
	clock := faults.NewVirtualClock(time.Unix(1_700_000_000, 0))
	hub := board.NewHub()
	hub.SetClock(clock)
	s := New(p, hub)
	s.SetClock(clock)
	return p, db, hub, s, clock
}

// TestIncrementalRefreshSkipsUnchangedScans is the tentpole acceptance
// path: a job on the virtual clock re-runs at its trigger times; the
// second refresh with unchanged inputs executes ZERO cloud scans (the
// content fingerprint keys the cache) and reports every plan node
// unchanged; replacing the table's data makes the third refresh scan
// again; each refresh reaches a board subscriber in order.
func TestIncrementalRefreshSkipsUnchangedScans(t *testing.T) {
	_, db, hub, s, clock := newTestRig(t)
	ctx := context.Background()

	if _, err := s.Add(Spec{Name: "daily", User: "alice", Recipe: metricsRecipe(t),
		Every: time.Minute, Board: "ops", Tile: "hot"}); err != nil {
		t.Fatal(err)
	}
	if n := s.RunDue(ctx); n != 0 {
		t.Fatalf("ran %d jobs before the first trigger", n)
	}

	// Refresh 1: cold, must scan.
	clock.Advance(time.Minute)
	if n := s.RunDue(ctx); n != 1 {
		t.Fatalf("first trigger ran %d jobs", n)
	}
	q1 := db.Meter().Queries()
	if q1 == 0 {
		t.Fatal("first refresh executed no cloud scans")
	}

	// Refresh 2: data unchanged — zero scans, all fingerprints unchanged.
	clock.Advance(time.Minute)
	if n := s.RunDue(ctx); n != 1 {
		t.Fatalf("second trigger ran %d jobs", n)
	}
	if q2 := db.Meter().Queries(); q2 != q1 {
		t.Fatalf("second refresh scanned the warehouse: queries %d -> %d", q1, q2)
	}
	info, _ := s.Get("daily")
	rec2 := info.History[len(info.History)-1]
	if rec2.FPChanged != 0 || rec2.FPUnchanged == 0 || rec2.FPUnchanged != rec2.FPTotal {
		t.Fatalf("unchanged refresh diff = %+v", rec2)
	}
	if rec2.Stats.CacheHits == 0 {
		t.Fatalf("unchanged refresh had no cache hits: %+v", rec2.Stats)
	}

	// Out-of-band data refresh, then refresh 3: must scan again and report
	// changed fingerprints.
	if err := db.ReplaceTable(metricsTable(t, 500, 2)); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Minute)
	if n := s.RunDue(ctx); n != 1 {
		t.Fatalf("third trigger ran %d jobs", n)
	}
	if q3 := db.Meter().Queries(); q3 == q1 {
		t.Fatal("refresh after ReplaceTable executed no cloud scans")
	}
	info, _ = s.Get("daily")
	rec3 := info.History[len(info.History)-1]
	if rec3.FPChanged == 0 {
		t.Fatalf("changed refresh diff = %+v", rec3)
	}

	// The board saw all three refreshes, in order, with run metadata.
	b, ok := hub.Get("ops")
	if !ok {
		t.Fatal("scheduler did not create the board")
	}
	_, backlog, err := b.Subscribe(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(backlog) != 3 {
		t.Fatalf("board backlog has %d updates; want 3", len(backlog))
	}
	for i, u := range backlog {
		if u.Job != "daily" || u.Seq != i+1 || u.Version != uint64(i+1) || u.Tile != "hot" {
			t.Fatalf("update %d = %+v", i, u)
		}
		if u.Table == nil || u.RunError != "" {
			t.Fatalf("update %d has no table / an error: %+v", i, u)
		}
	}
	if backlog[1].FPChanged != 0 || backlog[2].FPChanged == 0 {
		t.Fatalf("board updates don't carry the diff: %+v vs %+v", backlog[1], backlog[2])
	}

	st := s.Stats()
	if st.Runs != 3 || st.Failures != 0 || st.Published != 3 || st.NodesUnchanged == 0 {
		t.Fatalf("scheduler stats = %+v", st)
	}
}

// TestPartialChangeRescansOnlyTheChangedSource: refresh cost follows the
// changed fraction, not the recipe size. A recipe fanning in two warehouse
// tables scans both cold, neither when nothing changed, and exactly the
// replaced one afterwards — its sibling's sub-DAG comes from the cache.
func TestPartialChangeRescansOnlyTheChangedSource(t *testing.T) {
	_, db, _, s, _ := newTestRig(t)
	ctx := context.Background()
	if err := db.CreateTable(metricsTable(t, 500, 3).WithName("metrics_b")); err != nil {
		t.Fatal(err)
	}
	g := dag.NewGraph()
	for _, tn := range []string{"metrics", "metrics_b"} {
		g.Add(skills.Invocation{Skill: "LoadTable",
			Args: skills.Args{"database": "wh", "table": tn}, Output: tn + "_raw"})
		g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{tn + "_raw"},
			Args: skills.Args{"condition": "val >= 500"}, Output: tn + "_hot"})
	}
	g.Add(skills.Invocation{Skill: "Concatenate", Inputs: []string{"metrics_hot", "metrics_b_hot"}, Output: "all_hot"})
	r, err := recipe.FromGraph("hot-all", g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(Spec{Name: "fan", User: "alice", Recipe: r, Every: time.Minute}); err != nil {
		t.Fatal(err)
	}
	refresh := func() (RunRecord, int) {
		t.Helper()
		before := db.Meter().Queries()
		rec, err := s.RunNow(ctx, "fan")
		if err != nil || rec.Err != "" {
			t.Fatalf("refresh: %v / %+v", err, rec)
		}
		return rec, db.Meter().Queries() - before
	}

	if _, scans := refresh(); scans != 2 {
		t.Fatalf("cold refresh scanned %d tables, want 2", scans)
	}
	if rec, scans := refresh(); scans != 0 || rec.FPChanged != 0 || rec.FPUnchanged != 5 {
		t.Fatalf("unchanged refresh scanned %d tables, diff %+v", scans, rec)
	}
	if err := db.ReplaceTable(metricsTable(t, 500, 4).WithName("metrics_b")); err != nil {
		t.Fatal(err)
	}
	rec, scans := refresh()
	if scans != 1 {
		t.Fatalf("refresh after replacing one of two tables scanned %d, want exactly the changed one", scans)
	}
	// The changed table's load, its filter and the concatenation change; the
	// untouched table's load and filter do not, though the cache served them.
	if rec.FPChanged != 3 || rec.FPUnchanged != 2 || rec.Stats.CacheHits == 0 {
		t.Fatalf("half-changed refresh = %+v, want 3 changed, 2 unchanged and the sibling served from cache", rec)
	}
}

func TestGateSkipsAndReleases(t *testing.T) {
	_, _, _, s, clock := newTestRig(t)
	ctx := context.Background()
	if _, err := s.Add(Spec{Name: "j", User: "alice", Recipe: metricsRecipe(t), Every: time.Second, Board: "b"}); err != nil {
		t.Fatal(err)
	}

	releases := 0
	throttle := true
	s.SetGate(func(context.Context) (func(), error) {
		if throttle {
			return nil, errors.New("background throttled")
		}
		return func() { releases++ }, nil
	})

	clock.Advance(time.Second)
	s.RunDue(ctx)
	info, _ := s.Get("j")
	if info.Runs != 0 || len(info.History) != 1 || !info.History[0].Skipped {
		t.Fatalf("throttled run not recorded as skip: %+v", info)
	}
	if !strings.Contains(info.History[0].SkipReason, "admission") {
		t.Fatalf("skip reason = %q", info.History[0].SkipReason)
	}
	if st := s.Stats(); st.Skips != 1 || st.Runs != 0 || st.Published != 0 {
		t.Fatalf("stats after throttle = %+v", st)
	}

	throttle = false
	clock.Advance(time.Second)
	s.RunDue(ctx)
	if releases != 1 {
		t.Fatalf("gate released %d times; want 1", releases)
	}
	if info, _ := s.Get("j"); info.Runs != 1 {
		t.Fatalf("runs = %d after admitted run", info.Runs)
	}
}

func TestMaxRunsAndFailurePublishing(t *testing.T) {
	_, _, hub, s, clock := newTestRig(t)
	ctx := context.Background()

	// A recipe against a database that was never connected: every run
	// fails, and the board must see the error rather than silence.
	g := dag.NewGraph()
	g.Add(skills.Invocation{Skill: "LoadTable",
		Args: skills.Args{"database": "nope", "table": "t"}, Output: "t"})
	bad, err := recipe.FromGraph("bad", g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(Spec{Name: "bad", User: "alice", Recipe: bad, Every: time.Second, Board: "errs", MaxRuns: 2}); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 4; i++ {
		clock.Advance(time.Second)
		s.RunDue(ctx)
	}
	info, _ := s.Get("bad")
	if !info.Done || info.Runs != 2 {
		t.Fatalf("MaxRuns not honored: %+v", info)
	}
	if st := s.Stats(); st.Failures != 2 || st.Done != 1 {
		t.Fatalf("stats = %+v", st)
	}
	b, ok := hub.Get("errs")
	if !ok {
		t.Fatal("no error board")
	}
	_, backlog, err := b.Subscribe(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(backlog) != 2 || backlog[0].RunError == "" || backlog[0].Table != nil {
		t.Fatalf("failure updates = %+v", backlog)
	}

	if _, err := s.RunNow(ctx, "missing"); err == nil {
		t.Fatal("RunNow on unknown job succeeded")
	}
	rec, err := s.RunNow(ctx, "bad")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Err == "" {
		t.Fatalf("forced run of failing job reported no error: %+v", rec)
	}
}

func TestLoopOnVirtualClock(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	_, _, _, s, _ := newTestRig(t)
	if _, err := s.Add(Spec{Name: "loop", User: "alice", Recipe: metricsRecipe(t),
		Every: 10 * time.Second, Board: "b", MaxRuns: 3}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		// On the virtual clock every Sleep advances time instantly, so the
		// loop replays the whole schedule as fast as the runs execute.
		s.Loop(ctx, time.Second)
	}()
	deadline := time.After(10 * time.Second)
	for {
		if info, _ := s.Get("loop"); info.Done {
			break
		}
		select {
		case <-deadline:
			t.Fatal("loop never completed the job's 3 runs")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	<-done
	if info, _ := s.Get("loop"); info.Runs != 3 {
		t.Fatalf("runs = %d; want 3", info.Runs)
	}
}
