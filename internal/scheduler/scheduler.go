// Package scheduler turns saved recipes into long-lived jobs: cron-like
// triggers on a faults.Clock (virtual in tests — fully deterministic; wall
// clock in the daemon) re-run each recipe against refreshed data and
// publish the result to an insights board (internal/board). Refreshes are
// incremental: because source content fingerprints key the platform LRU
// cache, unchanged sub-DAGs are served from cache with zero cloud scans and
// only changed inputs recompute; each run diffs the fingerprints its plan
// computed, before the cache probe pruned any, against the previous run's.
// Background runs yield to interactive traffic
// twice over: an admission Gate (installed by the server) queues them
// behind the interactive class, and a small bounded busy-retry on the
// §2.4 session lock makes a contended run skip rather than camp.
package scheduler

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"datachat/internal/board"
	"datachat/internal/core"
	"datachat/internal/dag"
	"datachat/internal/faults"
	"datachat/internal/recipe"
	"datachat/internal/session"
)

// historyCap bounds each job's retained run records.
const historyCap = 32

// Spec declares one scheduled job.
type Spec struct {
	// Name identifies the job (unique per scheduler).
	Name string
	// Session is the session the recipe replays in, created on demand and
	// owned by User. A replay runs in a fork of the session's context: it
	// reads the session's datasets and writes none of them, so a job may
	// point at a user's session without touching the user's work. Point
	// multiple jobs at one session to serialize them on its §2.4 lock, or
	// give each its own for parallelism.
	Session string
	// User is the identity background runs execute as.
	User string
	// Recipe is the saved pipeline to re-run.
	Recipe *recipe.Recipe
	// Every is the trigger period.
	Every time.Duration
	// Board and Tile name where results are published; an empty Board
	// disables publishing, an empty Tile defaults to the recipe name.
	Board string
	Tile  string
	// MaxRuns stops the job after that many completed runs (0 = unlimited).
	// Skipped runs (busy lock, throttled admission) do not count.
	MaxRuns int
}

// RunRecord is one run's history entry: timing, the executor's stats delta,
// and the fingerprint-diff summary that explains how much work the
// incremental refresh actually skipped.
type RunRecord struct {
	Seq     int           `json:"seq"`
	At      time.Time     `json:"at"`
	Elapsed time.Duration `json:"elapsed"`

	Stats dag.Stats `json:"stats"`

	// FPTotal/FPChanged/FPUnchanged summarize the diff of the run's plan
	// fingerprints (dag.Report.Fingerprints) against the previous run's:
	// unchanged fingerprints mark sub-DAGs the cache served without
	// touching the warehouse.
	FPTotal     int `json:"fp_total"`
	FPChanged   int `json:"fp_changed"`
	FPUnchanged int `json:"fp_unchanged"`

	Degraded     bool   `json:"degraded,omitempty"`
	Skipped      bool   `json:"skipped,omitempty"`
	SkipReason   string `json:"skip_reason,omitempty"`
	Err          string `json:"err,omitempty"`
	BoardVersion uint64 `json:"board_version,omitempty"`
}

// JobInfo is a read-only snapshot of a job.
type JobInfo struct {
	Name    string
	Session string
	User    string
	Board   string
	Tile    string
	Every   time.Duration
	MaxRuns int
	NextRun time.Time
	Runs    int
	Done    bool
	History []RunRecord
}

// Stats are the scheduler-wide counters surfaced in /statsz.
type Stats struct {
	Jobs     int
	Done     int
	Runs     int64
	Failures int64
	Skips    int64
	Degraded int64
	// NodesTotal/NodesChanged/NodesUnchanged accumulate the per-run
	// fingerprint diffs: Unchanged/Total is the fleet-wide fraction of
	// sub-DAGs incremental refresh never re-executed.
	NodesTotal     int64
	NodesChanged   int64
	NodesUnchanged int64
	Published      int64
}

// Gate admits one background run. The server installs one wrapping its
// background priority class; err means the run is skipped (recorded, never
// silently dropped), otherwise release must be called when the run ends.
type Gate func(ctx context.Context) (release func(), err error)

type job struct {
	spec    Spec
	tile    string
	nextRun time.Time
	runs    int
	done    bool
	history []RunRecord
	lastFPs map[string]bool
	running bool // guards against overlapping runs of one job
}

// Scheduler owns the job table and the trigger loop.
type Scheduler struct {
	platform *core.Platform
	hub      *board.Hub

	mu        sync.Mutex
	clock     faults.Clock
	jobs      map[string]*job
	gate      Gate
	busyRetry faults.RetryPolicy

	runs, failures, skips, degraded          int64
	nodesTotal, nodesChanged, nodesUnchanged int64
	published                                int64
}

// New returns a scheduler over the platform publishing to hub (which may
// be nil when no boards are wanted), on the real clock.
func New(p *core.Platform, hub *board.Hub) *Scheduler {
	return &Scheduler{
		platform: p,
		hub:      hub,
		clock:    faults.Real(),
		jobs:     make(map[string]*job),
		// Three quick attempts at the session lock, then skip: background
		// refreshes must never camp on a lock an interactive user wants.
		busyRetry: faults.RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond, Multiplier: 2},
	}
}

// SetClock swaps the trigger clock (virtual in tests). Pending NextRun
// times are not rebased; call before adding jobs.
func (s *Scheduler) SetClock(c faults.Clock) {
	if c == nil {
		return
	}
	s.mu.Lock()
	s.clock = c
	s.mu.Unlock()
}

// SetGate installs the admission hook background runs pass through.
func (s *Scheduler) SetGate(g Gate) {
	s.mu.Lock()
	s.gate = g
	s.mu.Unlock()
}

// SetBusyRetry replaces the bounded busy-retry policy runs use on the
// §2.4 session lock.
func (s *Scheduler) SetBusyRetry(p faults.RetryPolicy) {
	s.mu.Lock()
	s.busyRetry = p
	s.mu.Unlock()
}

// Add registers a job. The first trigger fires one period from now.
func (s *Scheduler) Add(spec Spec) (JobInfo, error) {
	if spec.Name == "" {
		return JobInfo{}, fmt.Errorf("scheduler: job needs a name")
	}
	if spec.Recipe == nil || len(spec.Recipe.Steps) == 0 {
		return JobInfo{}, fmt.Errorf("scheduler: job %q needs a recipe with steps", spec.Name)
	}
	if spec.Every <= 0 {
		return JobInfo{}, fmt.Errorf("scheduler: job %q needs a positive period", spec.Name)
	}
	if spec.Session == "" {
		spec.Session = "sched:" + spec.Name
	}
	if spec.User == "" {
		return JobInfo{}, fmt.Errorf("scheduler: job %q needs a user", spec.Name)
	}
	tile := spec.Tile
	if tile == "" {
		tile = spec.Recipe.Name
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.jobs[spec.Name]; dup {
		return JobInfo{}, fmt.Errorf("scheduler: job %q already exists", spec.Name)
	}
	j := &job{spec: spec, tile: tile, nextRun: s.clock.Now().Add(spec.Every), lastFPs: map[string]bool{}}
	s.jobs[spec.Name] = j
	return s.infoLocked(j), nil
}

// Remove deletes a job (its board and history of published updates stay).
func (s *Scheduler) Remove(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.jobs[name]
	delete(s.jobs, name)
	return ok
}

// Get snapshots one job.
func (s *Scheduler) Get(name string) (JobInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[name]
	if !ok {
		return JobInfo{}, false
	}
	return s.infoLocked(j), true
}

// List snapshots every job, sorted by name.
func (s *Scheduler) List() []JobInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	infos := make([]JobInfo, 0, len(s.jobs))
	for _, j := range s.jobs {
		infos = append(infos, s.infoLocked(j))
	}
	sort.Slice(infos, func(i, k int) bool { return infos[i].Name < infos[k].Name })
	return infos
}

func (s *Scheduler) infoLocked(j *job) JobInfo {
	return JobInfo{
		Name:    j.spec.Name,
		Session: j.spec.Session,
		User:    j.spec.User,
		Board:   j.spec.Board,
		Tile:    j.tile,
		Every:   j.spec.Every,
		MaxRuns: j.spec.MaxRuns,
		NextRun: j.nextRun,
		Runs:    j.runs,
		Done:    j.done,
		History: append([]RunRecord{}, j.history...),
	}
}

// Stats returns scheduler-wide counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Jobs:           len(s.jobs),
		Runs:           s.runs,
		Failures:       s.failures,
		Skips:          s.skips,
		Degraded:       s.degraded,
		NodesTotal:     s.nodesTotal,
		NodesChanged:   s.nodesChanged,
		NodesUnchanged: s.nodesUnchanged,
		Published:      s.published,
	}
	for _, j := range s.jobs {
		if j.done {
			st.Done++
		}
	}
	return st
}

// RunDue runs every job whose trigger time has arrived, in name order, and
// advances each trigger past now. It returns the number of jobs it ran
// (including skipped and failed runs). Deterministic on a virtual clock:
// tests Advance the clock and call RunDue.
func (s *Scheduler) RunDue(ctx context.Context) int {
	s.mu.Lock()
	now := s.clock.Now()
	var due []*job
	for _, j := range s.jobs {
		if !j.done && !j.running && !j.nextRun.After(now) {
			j.running = true
			// Catch up past now in whole periods; a late tick runs once,
			// not once per missed period.
			for !j.nextRun.After(now) {
				j.nextRun = j.nextRun.Add(j.spec.Every)
			}
			due = append(due, j)
		}
	}
	s.mu.Unlock()
	sort.Slice(due, func(i, k int) bool { return due[i].spec.Name < due[k].spec.Name })
	for _, j := range due {
		s.runJob(ctx, j)
	}
	return len(due)
}

// RunNow force-runs one job immediately (the POST …/run endpoint),
// regardless of its trigger time, and returns the run record.
func (s *Scheduler) RunNow(ctx context.Context, name string) (RunRecord, error) {
	s.mu.Lock()
	j, ok := s.jobs[name]
	if !ok {
		s.mu.Unlock()
		return RunRecord{}, fmt.Errorf("scheduler: no job %q", name)
	}
	if j.running {
		s.mu.Unlock()
		return RunRecord{}, fmt.Errorf("scheduler: job %q is already running", name)
	}
	j.running = true
	s.mu.Unlock()
	return s.runJob(ctx, j), nil
}

// Loop ticks until ctx is done: run due jobs, sleep until the earliest
// trigger (capped at poll, so newly added jobs are noticed). On a
// VirtualClock the sleeps advance virtual time instantly, so the loop
// replays any schedule as fast as the work itself.
func (s *Scheduler) Loop(ctx context.Context, poll time.Duration) {
	if poll <= 0 {
		poll = time.Second
	}
	for ctx.Err() == nil {
		s.RunDue(ctx)
		wait := poll
		s.mu.Lock()
		now := s.clock.Now()
		for _, j := range s.jobs {
			if j.done || j.running {
				continue
			}
			if d := j.nextRun.Sub(now); d < wait {
				wait = d
			}
		}
		clock := s.clock
		s.mu.Unlock()
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		if clock.Sleep(ctx, wait) != nil {
			return
		}
	}
}

// runJob executes one run of j (which must have been marked running) and
// records + publishes the outcome. Never returns an error: failures are
// history entries and board updates, not crashes of the trigger loop.
func (s *Scheduler) runJob(ctx context.Context, j *job) RunRecord {
	s.mu.Lock()
	clock, gate, busy := s.clock, s.gate, s.busyRetry
	s.mu.Unlock()

	start := clock.Now()
	rec := RunRecord{Seq: j.runs + 1, At: start}

	if gate != nil {
		release, err := gate(ctx)
		if err != nil {
			rec.Skipped, rec.SkipReason = true, "admission: "+err.Error()
			return s.finishRun(j, rec, nil, clock, start)
		}
		defer release()
	}

	sess, err := s.platform.EnsureSession(j.spec.Session, j.spec.User)
	if err != nil {
		rec.Err = err.Error()
		return s.finishRun(j, rec, nil, clock, start)
	}
	res, rep, err := sess.Replay(ctx, j.spec.User, j.spec.Recipe, busy, session.Tuning{Clock: clock})
	rec.Stats = rep.Stats
	if len(rep.Fingerprints) > 0 {
		fps := make(map[string]bool, len(rep.Fingerprints))
		for _, fp := range rep.Fingerprints {
			fps[fp] = true
		}
		rec.FPTotal = len(fps)
		for fp := range fps {
			if !j.lastFPs[fp] {
				rec.FPChanged++
			}
		}
		rec.FPUnchanged = rec.FPTotal - rec.FPChanged
		if err == nil {
			// Only a completed run becomes the diff baseline; a failed one
			// must not make the next refresh look incremental.
			j.lastFPs = fps
		}
	}
	switch {
	case errors.Is(err, session.ErrBusy):
		// Interactive traffic holds the lock; yield and try again next tick.
		rec.Skipped, rec.SkipReason = true, "session busy"
		return s.finishRun(j, rec, nil, clock, start)
	case err != nil:
		rec.Err = err.Error()
		return s.finishRun(j, rec, s.failureUpdate(j, rec), clock, start)
	}
	rec.Degraded = res.Degraded
	u := &board.Update{
		Job:          j.spec.Name,
		Seq:          rec.Seq,
		Table:        res.Table,
		Message:      res.Message,
		Degraded:     res.Degraded,
		DegradedNote: res.DegradedNote,
		FPTotal:      rec.FPTotal,
		FPChanged:    rec.FPChanged,
		CacheHits:    int64(rec.Stats.CacheHits),
	}
	return s.finishRun(j, rec, u, clock, start)
}

// failureUpdate builds the board update for a failed run so dashboards see
// the error instead of silently keeping a stale tile.
func (s *Scheduler) failureUpdate(j *job, rec RunRecord) *board.Update {
	return &board.Update{
		Job:       j.spec.Name,
		Seq:       rec.Seq,
		RunError:  rec.Err,
		Message:   fmt.Sprintf("refresh %d failed", rec.Seq),
		FPTotal:   rec.FPTotal,
		FPChanged: rec.FPChanged,
	}
}

// finishRun publishes u (when non-nil and the job has a board), stamps the
// record, appends history, and updates counters. It also clears the job's
// running flag, and returns the fully stamped record (elapsed time, board
// version) so RunNow callers see what history sees.
func (s *Scheduler) finishRun(j *job, rec RunRecord, u *board.Update, clock faults.Clock, start time.Time) RunRecord {
	rec.Elapsed = clock.Now().Sub(start)
	published := false
	if u != nil && j.spec.Board != "" && s.hub != nil {
		b, ok := s.hub.Get(j.spec.Board)
		if !ok {
			b, _ = s.hub.Create(j.spec.Board, "", j.spec.User)
		}
		if b != nil {
			pub := b.Publish(j.tile, *u)
			rec.BoardVersion = pub.Version
			published = true
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec.Skipped {
		s.skips++
	} else {
		s.runs++
		j.runs++
		if rec.Err != "" {
			s.failures++
		}
		if rec.Degraded {
			s.degraded++
		}
		s.nodesTotal += int64(rec.FPTotal)
		s.nodesChanged += int64(rec.FPChanged)
		s.nodesUnchanged += int64(rec.FPUnchanged)
		if j.spec.MaxRuns > 0 && j.runs >= j.spec.MaxRuns {
			j.done = true
		}
	}
	if published {
		s.published++
	}
	j.history = append(j.history, rec)
	if len(j.history) > historyCap {
		j.history = append(j.history[:0:0], j.history[len(j.history)-historyCap:]...)
	}
	j.running = false
	return rec
}
