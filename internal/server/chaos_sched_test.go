package server_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"datachat/internal/board"
	"datachat/internal/client"
	"datachat/internal/cloud"
	"datachat/internal/core"
	"datachat/internal/dataset"
	"datachat/internal/faults"
	"datachat/internal/recipe"
	"datachat/internal/scheduler"
	"datachat/internal/server"
	"datachat/internal/skills"
	"datachat/internal/testutil"
	"datachat/internal/wire"
)

// TestChaosSchedulerVsInteractive is the scheduler chaos suite: one shared
// platform where scheduled refreshes run against a fault-injected warehouse
// as background jobs while interactive clients hammer the HTTP API the whole
// time. It pins three invariants under -race:
//
//  1. interactive admission stays fast — the p50 admission wait is bounded
//     even with background refreshes competing for slots;
//  2. the background class actually carries the scheduled runs (they never
//     ride the interactive class);
//  3. no degraded refresh is ever published to a board without its Degraded
//     annotation — every published version cross-checks against the run
//     history's degraded flag.
//
// The injector is seeded and only warehouse scans draw from it (interactive
// traffic reads a registered file), so which refreshes degrade is
// deterministic run to run.
func TestChaosSchedulerVsInteractive(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	ctx := context.Background()
	p := core.New()
	db := cloud.NewDatabase("wh", cloud.DefaultPricing, 64)
	tb, err := dataset.ReadCSVString("metrics", schedMetricsCSV(300, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(tb); err != nil {
		t.Fatal(err)
	}
	inj := faults.NewInjector(faults.Schedule{
		Seed:          7,
		PermanentRate: 0.5,
		Ops:           map[string]bool{"scan": true},
	}, nil)
	if err := p.ConnectDatabase(faults.WrapDB(db, inj)); err != nil {
		t.Fatal(err)
	}
	p.RegisterFile("traffic.csv", schedMetricsCSV(60, 3))

	srv := server.New(p, server.Config{MaxInFlight: 2, MaxBackground: 1, MaxQueue: 256})
	clock := faults.NewVirtualClock(time.Unix(1_700_000_000, 0))
	hub := board.NewHub()
	hub.SetClock(clock)
	sched := scheduler.New(p, hub)
	sched.SetClock(clock)
	srv.AttachScheduler(sched, hub)
	hs := httptest.NewServer(srv)
	defer hs.Close()
	c := client.New(hs.URL)

	// The scheduler's session degrades (block sample) instead of failing
	// outright when the warehouse is faulted — the suite's whole point is
	// that those degraded refreshes arrive annotated.
	sess, err := p.EnsureSession("sched:chaos", "sched")
	if err != nil {
		t.Fatal(err)
	}
	sess.Context().Degrade = skills.DegradePolicy{Enabled: true, SampleRate: 1}

	if _, err := c.CreateSchedule(ctx, wire.ScheduleRequest{
		Name: "chaos", User: "sched", Session: "sched:chaos",
		Recipe: schedRecipe(t), EveryMs: 60_000, Board: "chaos", Tile: "hot",
	}); err != nil {
		t.Fatal(err)
	}

	// Interactive traffic: four clients, each on its own session, running a
	// small file-backed pipeline in a loop for the duration of the chaos.
	prog := []recipe.Step{
		{Skill: "LoadData", Args: skills.Args{"source": "traffic.csv"}, Output: "d"},
		{Skill: "KeepRows", Inputs: []string{"d"}, Args: skills.Args{"condition": "val >= 500"}, Output: "hot"},
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		if _, err := c.CreateSession(ctx, fmt.Sprintf("chaos-user-%d", g), "u"); err != nil {
			t.Fatal(err)
		}
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := fmt.Sprintf("chaos-user-%d", g)
			for i := 0; i < 20; i++ {
				_, err := c.Run(ctx, sess, wire.RunRequest{User: "u", Program: prog})
				if err != nil && !client.IsThrottled(err) {
					errs <- fmt.Errorf("interactive run (session %s, i=%d): %w", sess, i, err)
					return
				}
			}
		}(g)
	}

	// Scheduled refreshes tick on the virtual clock while the interactive
	// flood is in flight; the warehouse data changes twice so refreshes mix
	// cache-served and freshly scanned (fault-exposed) runs.
	const ticks = 12
	for i := 0; i < ticks; i++ {
		clock.Advance(time.Minute)
		sched.RunDue(ctx)
		if i == 3 || i == 7 {
			nt, err := dataset.ReadCSVString("metrics", schedMetricsCSV(300, i))
			if err != nil {
				t.Fatal(err)
			}
			if err := db.ReplaceTable(nt); err != nil {
				t.Fatal(err)
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st, err := c.Statsz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Admission == nil || st.Scheduler == nil || st.Boards == nil {
		t.Fatalf("statsz missing sections: %+v", st)
	}
	// Interactive latency interference is bounded: each pipeline is
	// millisecond-scale, so even queued behind a refresh the median
	// admission wait must stay well under a second.
	if p50 := st.Admission.Interactive.P50WaitMs; p50 > 250 {
		t.Fatalf("interactive p50 admission wait %vms; want bounded", p50)
	}
	if st.Admission.Interactive.Admitted < 80 {
		t.Fatalf("interactive admitted %d; want all 80 runs", st.Admission.Interactive.Admitted)
	}
	// The scheduled refreshes ran under the background class.
	if st.Admission.Background.Admitted == 0 {
		t.Fatalf("no background admissions: %+v", st.Admission)
	}
	if st.Scheduler.Runs == 0 {
		t.Fatalf("scheduler never ran: %+v", st.Scheduler)
	}

	// Cross-check every published version against the run history: a run
	// that degraded must carry the annotation on its board event, and a run
	// that failed must surface its error instead of a silent stale tile.
	job, err := c.Schedule(ctx, "chaos")
	if err != nil {
		t.Fatal(err)
	}
	byVersion := map[uint64]wire.ScheduleRun{}
	published := 0
	for _, rec := range job.History {
		if rec.BoardVersion > 0 {
			byVersion[rec.BoardVersion] = rec
			published++
		}
	}
	if published == 0 {
		t.Fatal("no refresh was published")
	}
	degradedSeen := false
	n, err := c.SubscribeBoard(ctx, "chaos", client.SubscribeOptions{MaxUpdates: published},
		func(ev *wire.BoardEvent) error {
			rec, ok := byVersion[ev.Version]
			if !ok {
				return fmt.Errorf("board version %d has no run record", ev.Version)
			}
			if rec.Error != "" && ev.RunError == "" {
				return fmt.Errorf("failed run %d published without its error", rec.Seq)
			}
			if rec.Degraded != ev.Degraded {
				return fmt.Errorf("run %d degraded=%v but board event degraded=%v", rec.Seq, rec.Degraded, ev.Degraded)
			}
			if ev.Degraded {
				degradedSeen = true
				if ev.DegradedNote == "" {
					return fmt.Errorf("degraded event %d has no note", ev.Version)
				}
			}
			return nil
		})
	if err != nil {
		t.Fatalf("SubscribeBoard: %v", err)
	}
	if n != published {
		t.Fatalf("subscriber saw %d of %d published updates", n, published)
	}
	// The fault schedule must actually have degraded something, or the
	// annotation check above is vacuous.
	if !degradedSeen {
		t.Fatalf("no degraded refresh was published; stats=%+v", st.Scheduler)
	}
}
