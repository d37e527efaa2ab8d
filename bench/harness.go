package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"datachat/internal/board"
	"datachat/internal/client"
	"datachat/internal/core"
	"datachat/internal/dataset"
	"datachat/internal/faults"
	"datachat/internal/scheduler"
	"datachat/internal/server"
	"datachat/internal/sqlengine"
	"datachat/internal/wire"
)

// stack is one booted deployment: a real server over a core.Platform on a
// loopback listener, wired the way cmd/datachatd wires it (default admission
// limits, three transient-failure retries, scheduler and board hub attached),
// plus the clients that load it.
type stack struct {
	w     workload
	seed  int64
	facts *facts

	platform *core.Platform
	srv      *server.Server
	listener *http.Server
	served   chan struct{} // closed when the listener's Serve returns

	// admin registers inputs and reads /statsz; clients[i] is load goroutine
	// i's own connection.
	admin   *client.Client
	clients []*client.Client
	// gens[i] is client i's generator. It outlives a timed window, so a
	// second window goes on where the first stopped and repeats nothing.
	gens []*generator

	refresh *refresher // nil unless the workload refreshes
}

// oneConn returns a client that keeps a single connection to the server.
func oneConn(url string) *client.Client {
	return &client.Client{BaseURL: url, HTTP: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1,
	}}}
}

// boot builds the workload's inputs from the seed and starts the deployment.
func boot(ctx context.Context, w workload, opts options) (*stack, error) {
	seed := opts.seed
	s := &stack{w: w, seed: seed, facts: newFacts(seed, opts.rows), served: make(chan struct{})}
	s.platform = core.New()
	s.srv = server.New(s.platform, server.Config{
		MaxQueue: -1,
		Retry:    faults.RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second, Multiplier: 2},
	})
	hub := board.NewHub()
	s.srv.AttachScheduler(scheduler.New(s.platform, hub), hub)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s.listener = &http.Server{Handler: s.srv}
	go func() {
		defer close(s.served)
		_ = s.listener.Serve(ln) // always http.ErrServerClosed: close() shuts it down
	}()
	url := "http://" + ln.Addr().String()
	s.admin = oneConn(url)
	for i := 0; i < w.clients; i++ {
		s.clients = append(s.clients, oneConn(url))
		s.gens = append(s.gens, newGenerator(w, seed, i, s.facts))
	}
	if err := s.admin.RegisterFile(ctx, factsFile, s.facts.csv); err != nil {
		s.close()
		return nil, fmt.Errorf("registering %s: %w", factsFile, err)
	}
	if w.refresh {
		if s.refresh, err = newRefresher(ctx, s, url); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// close drains the server and waits for every goroutine the stack started.
func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if s.refresh != nil {
		s.refresh.stop()
	}
	_ = s.srv.Shutdown(ctx)
	_ = s.listener.Shutdown(ctx)
	<-s.served
	for _, c := range append([]*client.Client{s.admin}, s.clients...) {
		c.HTTP.CloseIdleConnections()
	}
}

// setUp is what setup_s times: build the inputs, boot, and warm up until
// caches are filled and lazy set-up is done.
func setUp(ctx context.Context, w workload, opts options) (*stack, time.Duration, error) {
	start := time.Now()
	s, err := boot(ctx, w, opts)
	if err != nil {
		return nil, 0, err
	}
	if err := s.warmUp(ctx); err != nil {
		s.close()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	elapsed := time.Since(start)
	if opts.tamper != nil {
		opts.tamper(s.facts)
	}
	return s, elapsed, nil
}

// warmUp sends the warm-up lane's traffic and fails on the first wrong answer.
// A hot warm-up walks the whole pool, so the timed window starts with every
// entry cached; the others send a few requests of their own kind.
func (s *stack) warmUp(ctx context.Context) error {
	if s.refresh != nil {
		if err := s.refresh.warmUp(ctx); err != nil {
			return err
		}
	}
	g := s.warmUpGenerator()
	for i := 0; i < s.warmUpRequests(); i++ {
		if o := s.do(ctx, s.clients[0], g.next(), nil, false); o.err != nil {
			return fmt.Errorf("%s in %s: %w", o.req.shape, o.req.Session, o.err)
		}
	}
	return nil
}

func (s *stack) warmUpGenerator() *generator {
	g := newGenerator(s.w, s.seed, laneWarm, s.facts)
	g.inOrder = true
	return g
}

func (s *stack) warmUpRequests() int {
	switch s.w.traffic {
	case trafficCold:
		return 2 + 2*chainSteps // create, load, two chains
	case trafficStream:
		return 3 + 2 // create, load, project, two streams
	}
	return 2 + hotPool*chainSteps // create, load, every pool chain once
}

// outcome is what one request came to.
type outcome struct {
	req   request
	err   error         // refused, failed or wrong
	lat   time.Duration // send to decoded response (for a stream, to its sentinel)
	first time.Duration // stream only: send to first row chunk decoded
	rows  int           // result rows delivered
	table *wire.Table   // the response page; for a stream every row, when kept
}

// do sends one request, times it and checks the answer. keepStream makes a
// stream keep all its rows for the reference check.
func (s *stack) do(ctx context.Context, c *client.Client, req request, spans *spanLog, keepStream bool) outcome {
	o := outcome{req: req}
	span := spans.begin("client."+req.Op, req.id, noSpan)
	start := time.Now()
	switch req.Op {
	case "create":
		_, o.err = c.CreateSession(ctx, req.Session, benchUser)
		o.lat = time.Since(start)
	case "run":
		var resp *wire.RunResponse
		resp, o.err = c.Run(ctx, req.Session, *req.Run)
		o.lat = time.Since(start)
		if o.err == nil {
			o.err = checkRun(resp, req)
		}
		if o.err == nil {
			o.table = resp.Result.Table
			o.rows = len(o.table.Rows)
		}
	case "stream":
		var h hasher
		var header *wire.Table
		header, o.err = c.RunStream(ctx, req.Session, *req.Run, func(head *wire.Table, chunk wire.RowChunk) error {
			if o.first == 0 && len(chunk.Rows) > 0 {
				o.first = time.Since(start)
			}
			if keepStream {
				if o.table == nil {
					cp := *head
					o.table = &cp
				}
				o.table.Rows = append(o.table.Rows, chunk.Rows...)
			}
			return h.wireRows(chunk.Rows)
		})
		o.lat = time.Since(start)
		switch {
		case o.err != nil:
		case header.TotalRows != req.want.rows:
			o.err = fmt.Errorf("stream delivered %d rows, want %d", header.TotalRows, req.want.rows)
		case h.sum() != req.want.sum:
			o.err = fmt.Errorf("stream checksum is %x, want %x", h.sum(), req.want.sum)
		default:
			o.rows = header.TotalRows
			if o.table != nil {
				o.table.TotalRows = header.TotalRows
			}
		}
	}
	spans.end(span)
	return o
}

func checkRun(resp *wire.RunResponse, req request) error {
	if resp.Result == nil {
		return errors.New("response carries no result")
	}
	if len(resp.Nodes) != 1 || resp.Nodes[0] != req.node {
		return fmt.Errorf("step became nodes %v, want [%d]", resp.Nodes, req.node)
	}
	if resp.Result.Degraded {
		return fmt.Errorf("result is degraded: %s", resp.Result.DegradedNote)
	}
	return checkPage(resp.Result.Table, req.want)
}

// recorder collects what one load goroutine observed. Each goroutine owns
// one; they are merged after the goroutines have ended.
type recorder struct {
	attempted, failed int
	errs              []string // the first few failures, for the report

	step       []time.Duration           // one GEL step, send to decoded response
	byShape    map[shape][]time.Duration // the same latencies, per step shape
	firstChunk []time.Duration           // stream send to first row chunk decoded
	stream     []time.Duration           // stream send to sentinel
	refresh    []time.Duration           // refresh due to board event decoded
	late       []time.Duration           // refresh due to refresh sent
	rows       int64                     // result rows delivered

	// firsts keeps the first response of each step shape for the reference
	// check after the window.
	firsts map[shape]outcome
}

func newRecorder() *recorder {
	return &recorder{firsts: map[shape]outcome{}, byShape: map[shape][]time.Duration{}}
}

const keptErrors = 5

func (r *recorder) failure(what string) {
	r.failed++
	if len(r.errs) < keptErrors {
		r.errs = append(r.errs, what)
	}
}

func (r *recorder) add(o outcome) {
	r.attempted++
	if o.err != nil {
		gel := ""
		if o.req.Run != nil {
			gel = o.req.Run.GEL
		}
		r.failure(fmt.Sprintf("%s %s %q: %v", o.req.Op, o.req.Session, gel, o.err))
		return
	}
	r.rows += int64(o.rows)
	switch {
	case o.req.shape.step():
		r.step = append(r.step, o.lat)
		r.byShape[o.req.shape] = append(r.byShape[o.req.shape], o.lat)
	case o.req.shape == shapeStream:
		r.firstChunk = append(r.firstChunk, o.first)
		r.stream = append(r.stream, o.lat)
	}
	if _, seen := r.firsts[o.req.shape]; !seen && o.table != nil {
		r.firsts[o.req.shape] = o
	}
}

func (r *recorder) merge(o *recorder) {
	r.attempted += o.attempted
	r.failed += o.failed
	for _, e := range o.errs {
		if len(r.errs) < keptErrors {
			r.errs = append(r.errs, e)
		}
	}
	r.step = append(r.step, o.step...)
	r.firstChunk = append(r.firstChunk, o.firstChunk...)
	r.stream = append(r.stream, o.stream...)
	r.refresh = append(r.refresh, o.refresh...)
	r.late = append(r.late, o.late...)
	r.rows += o.rows
	for s, f := range o.firsts {
		if _, ok := r.firsts[s]; !ok {
			r.firsts[s] = f
		}
	}
	for s, v := range o.byShape {
		r.byShape[s] = append(r.byShape[s], v...)
	}
}

// window is what one timed window produced.
type window struct {
	seconds float64
	rec     *recorder
	before  *wire.Statsz
	after   *wire.Statsz
	peakRSS float64 // MB, VmHWM when the window ended
	// The warehouse meter before and after; zero unless the workload refreshes.
	meterBefore, meterAfter meterReading
}

// measure runs the workload's load goroutines for d and merges what they saw.
// Requests still in flight when the window ends complete but are not counted.
func (s *stack) measure(ctx context.Context, d time.Duration, spans *spanLog) (*window, error) {
	before, err := s.admin.Statsz(ctx)
	if err != nil {
		return nil, fmt.Errorf("reading /statsz: %w", err)
	}
	w := &window{seconds: d.Seconds(), rec: newRecorder(), before: before, meterBefore: s.refresh.meter()}
	recs := make([]*recorder, len(s.clients))
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(d)
	for i, c := range s.clients {
		recs[i] = newRecorder()
		wg.Add(1)
		go func(c *client.Client, g *generator, rec *recorder) {
			defer wg.Done()
			for {
				// One stream's rows are kept whole for the reference check:
				// the first that client 0 receives.
				_, kept := rec.firsts[shapeStream]
				o := s.do(ctx, c, g.next(), spans, c == s.clients[0] && !kept)
				if time.Now().After(end) {
					return // the request straddled the end of the window
				}
				rec.add(o)
			}
		}(c, s.gens[i], recs[i])
	}
	if s.refresh != nil {
		refreshed := newRecorder()
		s.refresh.run(ctx, start, end, refreshed)
		recs = append(recs, refreshed)
	}
	wg.Wait()
	w.peakRSS, w.meterAfter = peakRSSMB(), s.refresh.meter()
	for _, r := range recs {
		w.rec.merge(r)
	}
	if w.after, err = s.admin.Statsz(ctx); err != nil {
		return nil, fmt.Errorf("reading /statsz: %w", err)
	}
	return w, nil
}

// verifyFirsts compares the first response of every step shape cell for cell
// with the row-reference engine, counting each mismatch as a failure.
func (s *stack) verifyFirsts(rec *recorder) {
	table, err := s.facts.table()
	if err != nil {
		rec.failure(fmt.Sprintf("parsing %s for the reference engine: %v", factsFile, err))
		return
	}
	catalog := sqlengine.NewMapCatalog(map[string]*dataset.Table{"facts": table})
	for sh, o := range rec.firsts {
		if err := referenceCheck(catalog, referenceSQL(sh, o.req.k), o.table); err != nil {
			rec.failure(err.Error())
		}
	}
}

// peakRSSMB reads this process's resident-set high-water mark. The process
// holds the server and the load generator both.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
