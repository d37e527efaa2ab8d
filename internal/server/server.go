// Package server is datachatd: the multi-tenant network layer that exposes a
// core.Platform over HTTP/JSON. It maps the paper's §2.4 semantics onto the
// wire — the session lock becomes 409 with a typed busy payload — and adds
// the production plumbing the library anticipates: admission control
// (bounded in-flight executions plus a queue-depth cap, refusing excess load
// with 429 + Retry-After), per-request deadlines propagated into the DAG
// executor's retry machinery, chunked row streaming for large results,
// graceful drain on shutdown, and a /statsz endpoint surfacing executor,
// cache, and vectorized-engine counters.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datachat/internal/board"
	"datachat/internal/core"
	"datachat/internal/faults"
	"datachat/internal/scheduler"
	"datachat/internal/session"
	"datachat/internal/wire"
)

// Config tunes the service layer. The zero value yields a working server:
// GOMAXPROCS in-flight executions, twice that queued, fail-fast busy
// semantics, no deadlines.
type Config struct {
	// MaxInFlight bounds concurrently executing requests (admission
	// control); <= 0 means runtime.GOMAXPROCS(0).
	MaxInFlight int
	// MaxQueue bounds requests waiting for an execution slot; past it the
	// server refuses with 429. < 0 means 2*MaxInFlight; 0 queues nothing.
	MaxQueue int
	// MaxBackground caps background-priority executions in flight, so
	// scheduled refreshes can never occupy the whole slot pool. <= 0 means
	// max(1, MaxInFlight/2).
	MaxBackground int
	// RetryAfter is the backoff hint sent with 409 and 429 responses.
	RetryAfter time.Duration
	// DefaultDeadline bounds requests that do not ask for a deadline
	// (0 = unbounded); MaxDeadline caps what clients may ask for
	// (0 = uncapped).
	DefaultDeadline, MaxDeadline time.Duration
	// Retry is the transient-failure retry policy applied to every remote
	// execution (the zero policy fails fast).
	Retry faults.RetryPolicy
	// BusyRetry, when enabled, is applied to sessions created through the
	// server: requests hitting the §2.4 lock retry with bounded backoff
	// server-side instead of failing straight to 409.
	BusyRetry faults.RetryPolicy
	// Clock drives deadlines, retry backoff, and busy-retry backoff; nil
	// means the wall clock. Tests install a faults.VirtualClock.
	Clock faults.Clock
	// DefaultMaxRows caps rows inlined in run/artifact responses when the
	// request does not say (<= 0 means 100); MaxPageRows caps page and
	// stream-chunk sizes (<= 0 means 10000).
	DefaultMaxRows, MaxPageRows int
	// StreamWorkers is the default morsel worker setting for requests that
	// do not ask (0 keeps the engine default of one worker per core, 1
	// runs the same operators on one inline worker). Client asks are capped
	// at MaxStreamWorkers (<= 0 means 64) so a request cannot fan out
	// unboundedly.
	StreamWorkers    int
	MaxStreamWorkers int
	// StreamMaxBufferedRows is the default memory budget for streamed
	// executions when the request does not ask (0 = unlimited), and
	// StreamSpillDir is where budget overflow spills runs ("" = the OS temp
	// dir). Clients choose their budget per request but never the spill
	// location.
	StreamMaxBufferedRows int
	StreamSpillDir        string
	// DefaultCostBudgetBytes caps estimated cloud scan bytes for requests
	// that do not set cost_budget_bytes themselves (0 = unlimited). Past
	// the budget the planner substitutes block samples and flags the
	// result degraded.
	DefaultCostBudgetBytes int64
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 2 * c.MaxInFlight
	}
	if c.MaxBackground <= 0 {
		c.MaxBackground = c.MaxInFlight / 2
		if c.MaxBackground < 1 {
			c.MaxBackground = 1
		}
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 500 * time.Millisecond
	}
	if c.DefaultMaxRows <= 0 {
		c.DefaultMaxRows = 100
	}
	if c.MaxPageRows <= 0 {
		c.MaxPageRows = 10000
	}
	if c.MaxStreamWorkers <= 0 {
		c.MaxStreamWorkers = 64
	}
	return c
}

// Server serves one core.Platform over HTTP.
type Server struct {
	platform *core.Platform
	cfg      Config
	mux      *http.ServeMux

	// adm is the priority-aware admission state: execution slots, per-class
	// wait queues, and the background in-flight cap.
	adm      *admission
	draining atomic.Bool
	// drainCh is closed when Shutdown begins; long-lived subscribe streams
	// select on it to end gracefully instead of pinning the drain forever.
	drainCh chan struct{}
	// drainMu makes admit's final draining check atomic with its wg.Add, so
	// Shutdown's wg.Wait can never observe a zero counter while a request
	// that passed the check is still being admitted.
	drainMu sync.Mutex
	wg      sync.WaitGroup

	// sched and boards are attached by the daemon (or a test) after New;
	// the schedule/board endpoints 404 until then.
	sched  *scheduler.Scheduler
	boards *board.Hub

	requests     atomic.Int64
	busy409      atomic.Int64
	throttled429 atomic.Int64
	draining503  atomic.Int64
	deadline504  atomic.Int64
}

// New wraps a platform in a server. MaxQueue < 0 in cfg selects the default
// queue depth; pass 0 to refuse immediately when every slot is busy.
func New(p *core.Platform, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		platform: p,
		cfg:      cfg,
		adm:      newAdmission(cfg.MaxInFlight, cfg.MaxBackground, cfg.MaxQueue),
		drainCh:  make(chan struct{}),
	}
	s.mux = s.routes()
	return s
}

// AttachScheduler wires a scheduler and its board hub into the server,
// enabling the /v1/schedules and /v1/boards endpoints and their /statsz
// sections, and installs the server's background admission class as the
// scheduler's gate so refreshes share the slot pool with (and yield to)
// interactive traffic.
func (s *Server) AttachScheduler(sched *scheduler.Scheduler, hub *board.Hub) {
	s.sched = sched
	s.boards = hub
	if sched != nil {
		sched.SetGate(s.AdmitBackground)
	}
}

// Platform exposes the served platform (examples seed demo data through it).
func (s *Server) Platform() *core.Platform { return s.platform }

// maxBodyBytes bounds every request body the server reads. The largest
// legitimate body is a registered file's content — the benchmark uploads a
// 200k-row CSV of about 10 MB — and 32 MiB clears that three times over.
const maxBodyBytes = 32 << 20

// ServeHTTP implements http.Handler. A body longer than maxBodyBytes fails
// its handler's decode with *http.MaxBytesError, which errStatus maps to 413.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	s.mux.ServeHTTP(w, r)
}

// clock returns the configured time source.
func (s *Server) clock() faults.Clock {
	if s.cfg.Clock != nil {
		return s.cfg.Clock
	}
	return faults.Real()
}

// Admission-control sentinels, mapped to 429/503 by writeErr.
var (
	errThrottled = errors.New("server: too many requests; execution slots and queue are full")
	errDraining  = errors.New("server: shutting down; not accepting new executions")
)

// statusClientClosedRequest is nginx's non-standard 499: the client cancelled
// the request before a response was written. Nobody is usually left to read
// the body, but the status keeps logs and stats honest.
const statusClientClosedRequest = 499

// admit acquires an execution slot for a priority class, queueing up to the
// configured depth. Queued interactive requests are always served before
// background ones, and background executions are additionally capped at
// MaxBackground in flight. It refuses with errThrottled when the queue is
// full and with errDraining during shutdown. On success the caller owns a
// slot and must call release with the same class.
func (s *Server) admit(ctx context.Context, class int, tenant string) error {
	if s.draining.Load() {
		return errDraining
	}
	if err := s.adm.acquire(ctx, class, tenant); err != nil {
		return err
	}
	s.drainMu.Lock()
	if s.draining.Load() {
		s.drainMu.Unlock()
		s.adm.release(class)
		return errDraining
	}
	s.wg.Add(1)
	s.drainMu.Unlock()
	return nil
}

// release returns an execution slot.
func (s *Server) release(class int) {
	s.adm.release(class)
	s.wg.Done()
}

// AdmitBackground admits one background-priority execution through the
// same pool HTTP requests use, yielding to interactive traffic and honoring
// the MaxBackground cap. It has the scheduler.Gate signature so a daemon can
// wire sched.SetGate(srv.AdmitBackground) without the scheduler importing
// this package.
func (s *Server) AdmitBackground(ctx context.Context) (func(), error) {
	if err := s.admit(ctx, classBackground, "scheduler"); err != nil {
		return nil, err
	}
	s.requests.Add(1)
	return func() { s.release(classBackground) }, nil
}

// joinStream registers a long-lived stream (a board subscription) with the
// drain machinery without consuming an execution slot: the stream must end
// when leave() is called or drainCh closes. Refused once draining.
func (s *Server) joinStream() (leave func(), drain <-chan struct{}, err error) {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining.Load() {
		return nil, nil, errDraining
	}
	s.wg.Add(1)
	return func() { s.wg.Done() }, s.drainCh, nil
}

// Shutdown drains the server: new executions are refused with 503 while
// requests already holding a slot run to completion. It returns when the
// last in-flight execution finishes or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	// Setting the flag under drainMu serializes with admit's check+Add
	// critical section: every admission either completed its wg.Add before
	// this store (wg.Wait sees it) or will observe draining and refuse.
	s.drainMu.Lock()
	if !s.draining.Load() {
		s.draining.Store(true)
		close(s.drainCh) // wake long-lived subscribe streams
	}
	s.drainMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		inflight, _ := s.adm.gauges()
		return fmt.Errorf("server: drain interrupted with %d executions in flight: %w",
			inflight, ctx.Err())
	}
}

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool { return s.draining.Load() }

// tuning builds the per-request execution options from the request's
// deadline ask: the configured retry policy and clock, plus the effective
// deadline (client ask capped at MaxDeadline, DefaultDeadline when absent).
func (s *Server) tuning(deadlineMs int64) *session.Tuning {
	d := time.Duration(deadlineMs) * time.Millisecond
	if d <= 0 {
		d = s.cfg.DefaultDeadline
	}
	if s.cfg.MaxDeadline > 0 && (d <= 0 || d > s.cfg.MaxDeadline) {
		d = s.cfg.MaxDeadline
	}
	return &session.Tuning{Deadline: d, Retry: s.cfg.Retry, Clock: s.cfg.Clock}
}

// requestContext derives the execution context for a request: with a real
// clock and a positive deadline the HTTP context gets a matching timeout, so
// even non-retrying hangs are abandoned; with a virtual clock the deadline
// lives purely in the executor's retry machinery (tests advance time, the
// wall clock must not interfere).
func (s *Server) requestContext(r *http.Request, tune *session.Tuning) (context.Context, context.CancelFunc) {
	if tune.Deadline > 0 && s.cfg.Clock == nil {
		return context.WithTimeout(r.Context(), tune.Deadline)
	}
	return context.WithCancel(r.Context())
}

// errStatus maps an error to (HTTP status, wire code). Typed sentinels are
// matched first; the long tail of library errors is classified by message
// shape — the library predates the wire layer and reports not-found and
// permission failures as plain fmt errors.
func errStatus(err error) (int, string) {
	var tooLarge *http.MaxBytesError
	var unencodable *encodeError
	switch {
	case errors.As(err, &unencodable):
		return http.StatusInternalServerError, wire.CodeInternal
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge, wire.CodeTooLarge
	case errors.Is(err, session.ErrBusy):
		return http.StatusConflict, wire.CodeBusy
	case errors.Is(err, errThrottled):
		return http.StatusTooManyRequests, wire.CodeThrottled
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable, wire.CodeDraining
	case errors.Is(err, faults.ErrDeadline), errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, wire.CodeDeadline
	case errors.Is(err, context.Canceled):
		// The client went away (disconnect mid-request, or cancel while
		// queued in admission): not a deadline expiry, so it must not feed
		// the deadline504 stat. 499 is nginx's "client closed request".
		return statusClientClosedRequest, wire.CodeCanceled
	}
	msg := err.Error()
	for _, marker := range []string{
		"no session", "no artifact", "no connected database", "no folder",
		"no dataset", "no snapshot", "invalid or revoked link", "unknown link",
		"is not in folder", "no step", "no scheduler", "no board", "no job",
	} {
		if strings.Contains(msg, marker) {
			return http.StatusNotFound, wire.CodeNotFound
		}
	}
	// Dialect parse errors are the user's input being wrong, whatever their
	// wording ("gel: cannot understand …"), so match the prefixes before the
	// permission markers below.
	for _, prefix := range []string{"gel:", "pyapi:", "phrase:"} {
		if strings.HasPrefix(msg, prefix) {
			return http.StatusBadRequest, wire.CodeBadRequest
		}
	}
	for _, marker := range []string{"cannot", "has no access", "only the owner", "may not"} {
		if strings.Contains(msg, marker) {
			return http.StatusForbidden, wire.CodeDenied
		}
	}
	for _, marker := range []string{
		"gel:", "pyapi:", "phrase:", "must not be empty", "can only grant",
		"empty program", "needs a", "already exists", "already connected",
		"already running", "expected", "unknown skill", "invalid",
	} {
		if strings.Contains(msg, marker) {
			return http.StatusBadRequest, wire.CodeBadRequest
		}
	}
	return http.StatusInternalServerError, wire.CodeInternal
}

// Stats snapshots the server's own counters.
func (s *Server) Stats() wire.ServerStats {
	inflight, queued := s.adm.gauges()
	return wire.ServerStats{
		Requests:     s.requests.Load(),
		Busy409:      s.busy409.Load(),
		Throttled429: s.throttled429.Load(),
		Draining503:  s.draining503.Load(),
		Deadline504:  s.deadline504.Load(),
		InFlight:     inflight,
		Queued:       queued,
		Draining:     s.draining.Load(),
	}
}

// countRefusal updates the refusal counters for a mapped error status.
func (s *Server) countRefusal(status int) {
	switch status {
	case http.StatusConflict:
		s.busy409.Add(1)
	case http.StatusTooManyRequests:
		s.throttled429.Add(1)
	case http.StatusServiceUnavailable:
		s.draining503.Add(1)
	case http.StatusGatewayTimeout:
		s.deadline504.Add(1)
	}
}
