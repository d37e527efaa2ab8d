package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"datachat/internal/client"
	"datachat/internal/cloud"
	"datachat/internal/dag"
	"datachat/internal/dataset"
	"datachat/internal/recipe"
	"datachat/internal/skills"
	"datachat/internal/wire"
)

const (
	refreshJob    = "refresh"
	refreshBoard  = "bench"
	refreshPeriod = 250 * time.Millisecond
	// warmRefreshes is one cold run of the recipe plus one replace of every
	// table, so the timed refreshes all take the incremental path.
	warmRefreshes = 1 + whTables
)

// refresher is the write side of refresh.mixed: a cloud database "wh" whose
// tables it replaces, a scheduled fan-in recipe it triggers over HTTP, and one
// NDJSON subscriber of the board the recipe publishes to.
type refresher struct {
	seed int64
	rows int
	db   *cloud.Database
	// trigger and subscriber each hold their own connection.
	trigger, subscriber *client.Client

	tables [whTables]*dataset.Table // what the warehouse holds now
	n      int                      // refreshes triggered so far

	cancel context.CancelFunc
	done   chan struct{} // closed when the subscriber goroutine has ended
	mu     sync.Mutex
	seen   []boardSeen
	subErr error
	// version is the board version of the last event settle checked.
	version uint64
}

// boardSeen is one board event as the subscriber decoded it.
type boardSeen struct {
	at    time.Time
	event *wire.BoardEvent
}

// fanInRecipe loads every warehouse table, keeps its rows with val >= whCut
// and concatenates them — each table an independent sub-DAG that an
// incremental refresh can serve from cache when the table did not change.
func fanInRecipe() (*recipe.Recipe, error) {
	g := dag.NewGraph()
	var outs []string
	for t := 0; t < whTables; t++ {
		name := whTableName(t)
		g.Add(skills.Invocation{Skill: "LoadTable",
			Args: skills.Args{"database": "wh", "table": name}, Output: name + "_raw"})
		g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{name + "_raw"},
			Args: skills.Args{"condition": fmt.Sprintf("val >= %d", whCut)}, Output: name + "_hot"})
		outs = append(outs, name+"_hot")
	}
	g.Add(skills.Invocation{Skill: "Concatenate", Inputs: outs, Output: "all_hot"})
	return recipe.FromGraph("hot-all", g)
}

func newRefresher(ctx context.Context, s *stack, url string) (*refresher, error) {
	r := &refresher{
		seed: s.seed, rows: s.facts.rows() / whTables,
		db:      cloud.NewDatabase("wh", cloud.DefaultPricing, 64),
		trigger: oneConn(url), subscriber: oneConn(url),
		done: make(chan struct{}),
	}
	for t := range r.tables {
		r.tables[t] = whTable(r.seed, t, 0, r.rows)
		if err := r.db.CreateTable(r.tables[t]); err != nil {
			return nil, fmt.Errorf("creating warehouse table: %w", err)
		}
	}
	if err := s.platform.ConnectDatabase(r.db); err != nil {
		return nil, err
	}
	rec, err := fanInRecipe()
	if err != nil {
		return nil, fmt.Errorf("building the refresh recipe: %w", err)
	}
	if _, err := s.admin.CreateBoard(ctx, refreshBoard, "", benchUser); err != nil {
		return nil, fmt.Errorf("creating the board: %w", err)
	}
	if _, err := s.admin.CreateSchedule(ctx, wire.ScheduleRequest{
		Name: refreshJob, User: benchUser, Recipe: rec,
		EveryMs: time.Hour.Milliseconds(), // only the benchmark triggers it
		Board:   refreshBoard, Tile: "hot",
	}); err != nil {
		return nil, fmt.Errorf("scheduling the refresh recipe: %w", err)
	}
	subCtx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	go func() {
		defer close(r.done)
		_, err := r.subscriber.SubscribeBoard(subCtx, refreshBoard, client.SubscribeOptions{}, func(ev *wire.BoardEvent) error {
			at := time.Now()
			r.mu.Lock()
			r.seen = append(r.seen, boardSeen{at, ev})
			r.mu.Unlock()
			return nil
		})
		if subCtx.Err() == nil {
			// The stream ended although nobody stopped it: eviction, drain, or
			// a dropped connection.
			r.mu.Lock()
			r.subErr = fmt.Errorf("board subscription ended: %v", err)
			r.mu.Unlock()
		}
	}()
	return r, nil
}

// meterReading is what the warehouse has been asked for so far.
type meterReading struct {
	scans int
	bytes int64
}

// meter reads the warehouse's meter; a workload without a refresher reads zero.
func (r *refresher) meter() meterReading {
	if r == nil {
		return meterReading{}
	}
	m := r.db.Meter()
	return meterReading{m.Queries(), m.BytesScanned()}
}

func (r *refresher) stop() {
	r.cancel()
	<-r.done
	r.trigger.HTTP.CloseIdleConnections()
	r.subscriber.HTTP.CloseIdleConnections()
}

// refreshSent is one refresh as the refresher issued it.
type refreshSent struct {
	due, sent time.Time
	seq       int // the scheduler's run number, which the board event echoes
	want      expectation
	err       error
}

// prepare builds the table version the next refresh will install.
func (r *refresher) prepare() *dataset.Table {
	return whTable(r.seed, r.n%whTables, r.n/whTables+1, r.rows)
}

// refreshOnce installs next and triggers the recipe as a background-class run.
func (r *refresher) refreshOnce(ctx context.Context, due time.Time, next *dataset.Table) refreshSent {
	out := refreshSent{due: due, sent: time.Now()}
	t := r.n % whTables
	r.n++
	if out.err = r.db.ReplaceTable(next); out.err != nil {
		return out
	}
	r.tables[t] = next
	run, err := r.trigger.RunScheduleNow(ctx, refreshJob)
	switch {
	case err != nil:
		out.err = err
	case run.Skipped:
		out.err = fmt.Errorf("refresh skipped: %s", run.SkipReason)
	case run.Error != "":
		out.err = fmt.Errorf("refresh failed: %s", run.Error)
	}
	if out.err == nil {
		out.seq = run.Seq
		out.want = whExpect(r.tables[:], pageRows)
	}
	return out
}

func (r *refresher) warmUp(ctx context.Context) error {
	var sent []refreshSent
	for i := 0; i < warmRefreshes; i++ {
		sent = append(sent, r.refreshOnce(ctx, time.Now(), r.prepare()))
	}
	rec := newRecorder()
	r.settle(sent, rec)
	if rec.failed > 0 {
		return fmt.Errorf("refresh: %s", rec.errs[0])
	}
	return nil
}

// run is the open loop: refresh n is due at start + n·refreshPeriod whatever
// became of the refreshes before it, and its latency counts from that instant.
func (r *refresher) run(ctx context.Context, start, end time.Time, rec *recorder) {
	var sent []refreshSent
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * refreshPeriod)
		if !due.Before(end) {
			break
		}
		next := r.prepare()
		time.Sleep(time.Until(due))
		sent = append(sent, r.refreshOnce(ctx, due, next))
	}
	r.settle(sent, rec)
}

// settle waits for the board events of sent to arrive, then checks every event
// and records each refresh's latency: due instant to event decoded.
func (r *refresher) settle(sent []refreshSent, rec *recorder) {
	lastSeq := 0
	for _, s := range sent {
		if s.err == nil {
			lastSeq = s.seq
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		r.mu.Lock()
		arrived := len(r.seen) > 0 && r.seen[len(r.seen)-1].event.Seq >= lastSeq
		ended := r.subErr != nil
		r.mu.Unlock()
		if arrived || ended {
			break
		}
		time.Sleep(time.Millisecond)
	}
	r.mu.Lock()
	seen := r.seen
	r.seen = nil
	subErr := r.subErr
	r.mu.Unlock()
	if subErr != nil {
		rec.failure(subErr.Error())
	}

	bySeq := make(map[int]boardSeen, len(seen))
	for _, ev := range seen {
		if ev.event.Version <= r.version {
			rec.failure(fmt.Sprintf("board version went from %d to %d", r.version, ev.event.Version))
		}
		r.version = ev.event.Version
		bySeq[ev.event.Seq] = ev
	}
	for _, s := range sent {
		rec.attempted++
		ev, ok := bySeq[s.seq]
		switch {
		case s.err != nil:
			rec.failure(s.err.Error())
			continue
		case !ok:
			rec.failure(fmt.Sprintf("refresh %d: no board event arrived", s.seq))
			continue
		case ev.event.RunError != "":
			rec.failure(fmt.Sprintf("refresh %d: board event carries run error %q", s.seq, ev.event.RunError))
			continue
		case ev.event.Degraded:
			rec.failure(fmt.Sprintf("refresh %d: board event is degraded: %s", s.seq, ev.event.DegradedNote))
			continue
		}
		if err := checkPage(ev.event.Table, s.want); err != nil {
			rec.failure(fmt.Sprintf("refresh %d: board table: %v", s.seq, err))
			continue
		}
		rec.refresh = append(rec.refresh, ev.at.Sub(s.due))
		rec.late = append(rec.late, s.sent.Sub(s.due))
	}
}
