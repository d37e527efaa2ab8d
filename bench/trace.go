package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"datachat/internal/board"
	"datachat/internal/cloud"
	"datachat/internal/core"
	"datachat/internal/dag"
	"datachat/internal/dataset"
	"datachat/internal/scheduler"
	"datachat/internal/session"
	"datachat/internal/skills"
	"datachat/internal/sqlengine"
	"datachat/internal/wire"
)

// The traced run. No code outside bench/ is instrumented, so layers are timed
// from outside: every replayed request goes to the real server (the root span,
// a client round trip) and then to a twin — a second platform in this process
// that has seen the same requests and so holds the same sessions and cache —
// where each layer's public entry point is called and timed in turn.
//
// Spans inside one in-process request:
//
//	inproc.request
//	├ wire.decode       wire.DecodeJSON of the request body
//	├ gel.parse         Platform.ParseGEL
//	├ session.request   Platform.RunCtx → Session.RequestProgramCtx
//	│ ├ plan.passes       Platform.Explain of the step        (placed)
//	│ ├ dag.cache_probe   Cache.Get on a resident key         (placed)
//	│ └ sqlengine.exec    Parse + ExecStmt of the step's SQL  (placed; misses only)
//	│   or sqlengine.stream  ExecStreamStmt(...).Drain        (placed; streams)
//	└ wire.encode       wire.EncodeResult / EncodeRows + json.Marshal
//
// A placed span was measured by a separate call on the same input and laid
// inside its parent (spanLog.place); session.request's self time is what is
// left of RunCtx once they are taken out.

const (
	// replayRequests is how many generated requests a traced run replays,
	// unless its share of the run's seconds ends first.
	replayRequests = 200
	// refreshEvery makes every n-th replayed item of refresh.mixed a refresh.
	refreshEvery = 5
	probeGets    = 1000
)

// layerMetrics are the per-layer metrics, in the order BENCHMARK.json lists
// them. A traced run of any workload prints every one; a layer the workload
// never enters reports 0.
var layerMetrics = []metricDecl{
	{Name: "server.overhead_us", Unit: "us", Better: "lower"},
	{Name: "server.admission_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.refused_share", Unit: "share", Better: "lower"},
	{Name: "wire.decode_us", Unit: "us", Better: "lower"},
	{Name: "wire.encode_us", Unit: "us", Better: "lower"},
	{Name: "wire.encode_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "gel.parse_us", Unit: "us", Better: "lower"},
	{Name: "session.request_us", Unit: "us", Better: "lower"},
	{Name: "session.busy_retries", Unit: "count", Better: "lower"},
	{Name: "plan.passes_us", Unit: "us", Better: "lower"},
	{Name: "dag.cache_hit_ratio", Unit: "share", Better: "higher"},
	{Name: "dag.cache_evictions", Unit: "count", Better: "lower"},
	{Name: "dag.tasks_run", Unit: "count", Better: "lower"},
	{Name: "dag.cache_probe_us", Unit: "us", Better: "lower"},
	{Name: "sqlengine.exec_us", Unit: "us", Better: "lower"},
	{Name: "sqlengine.rows_in_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sqlengine.stream_first_chunk_us", Unit: "us", Better: "lower"},
	{Name: "sqlengine.stream_drain_us", Unit: "us", Better: "lower"},
	{Name: "sqlengine.peak_buffered_rows", Unit: "rows", Better: "lower"},
	{Name: "cloud.scans", Unit: "count", Better: "lower"},
	{Name: "cloud.bytes_scanned", Unit: "B", Better: "lower"},
	{Name: "scheduler.run_us", Unit: "us", Better: "lower"},
	{Name: "scheduler.nodes_unchanged_share", Unit: "share", Better: "higher"},
	{Name: "board.publish_us", Unit: "us", Better: "lower"},
	{Name: "board.evictions", Unit: "count", Better: "lower"},
	{Name: "trace_overhead", Unit: "share", Better: "lower"},
}

// twin is the in-process platform the layers are timed on.
type twin struct {
	platform *core.Platform
	probe    *dag.Cache
	log      *spanLog // nil while the twin is only being kept in step

	// The refresh workload's twin warehouse, scheduler and boards.
	db      *cloud.Database
	sched   *scheduler.Scheduler
	hub     *board.Hub
	scratch *board.Board // publish-only board with one subscriber
	drain   *board.Subscription

	// Totals the rate metrics divide.
	encodedRows, scannedRows int64
	encodeTime, execTime     time.Duration
	peakBuffered             int
	firstChunks, drains      []time.Duration
	planAtStep               map[int][]time.Duration
}

func newTwin(s *stack) (*twin, error) {
	t := &twin{platform: core.New(), probe: dag.NewCache(dag.DefaultCacheCapacity), planAtStep: map[int][]time.Duration{}}
	t.platform.RegisterFile(factsFile, s.facts.csv)
	if _, _, err := t.probe.Do("resident", func() (*skills.Result, error) { return &skills.Result{}, nil }); err != nil {
		return nil, err
	}
	if s.refresh == nil {
		return t, nil
	}
	t.db = cloud.NewDatabase("wh", cloud.DefaultPricing, 64)
	for _, table := range s.refresh.tables {
		if err := t.db.CreateTable(table); err != nil {
			return nil, err
		}
	}
	if err := t.platform.ConnectDatabase(t.db); err != nil {
		return nil, err
	}
	t.hub = board.NewHub()
	t.sched = scheduler.New(t.platform, t.hub)
	rec, err := fanInRecipe()
	if err != nil {
		return nil, err
	}
	if _, err := t.sched.Add(scheduler.Spec{Name: refreshJob, User: benchUser, Recipe: rec,
		Every: time.Hour, Board: refreshBoard, Tile: "hot"}); err != nil {
		return nil, err
	}
	if t.scratch, err = t.hub.Create("scratch", "", benchUser); err != nil {
		return nil, err
	}
	t.drain, _, err = t.scratch.Subscribe(0, 1)
	return t, err
}

// apply runs req on the twin the way the server's handlers would, recording
// the layer spans when the twin has a log.
func (t *twin) apply(ctx context.Context, req request) error {
	if req.Op == "create" {
		_, err := t.platform.CreateSession(req.Session, benchUser)
		return err
	}
	body, err := json.Marshal(req.Run)
	if err != nil {
		return err
	}
	root := t.log.begin("inproc.request", req.id, noSpan)

	sp := t.log.begin("wire.decode", req.id, root)
	var run wire.RunRequest
	err = wire.DecodeJSON(bytes.NewReader(body), &run)
	t.log.end(sp)
	if err != nil {
		return err
	}

	sp = t.log.begin("gel.parse", req.id, root)
	inv, err := t.platform.ParseGEL(run.GEL, run.Current)
	t.log.end(sp)
	if err != nil {
		return err
	}

	sess, err := t.platform.Session(req.Session)
	if err != nil {
		return err
	}
	var tune *session.Tuning
	var chunks []*dataset.Table
	if req.Op == "stream" {
		tune = &session.Tuning{StreamChunkRows: sqlengine.DefaultChunkRows,
			Stream: func(c *dataset.Table) error { chunks = append(chunks, c); return nil }}
	}
	before := sess.Executor().Stats()
	request := t.log.begin("session.request", req.id, root)
	res, _, err := t.platform.RunCtx(ctx, req.Session, run.User, tune, inv)
	t.log.end(request)
	if err != nil {
		return err
	}
	missed := sess.Executor().Stats().CacheMisses > before.CacheMisses

	sp = t.log.begin("wire.encode", req.id, root)
	rows := 0
	if req.Op == "stream" {
		for _, c := range chunks {
			rows += c.NumRows()
			_, err = json.Marshal(wire.RowChunk{Rows: wire.EncodeRows(c, 0, c.NumRows())})
		}
	} else {
		out := wire.EncodeResult(res, pageRows)
		rows = len(out.Table.Rows)
		_, err = json.Marshal(wire.RunResponse{Result: out, Nodes: []int{req.node}})
	}
	t.log.end(sp)
	t.log.end(root)
	if err != nil {
		return err
	}
	if t.log == nil {
		return nil
	}
	t.encodedRows += int64(rows)
	t.encodeTime += t.log.duration(sp)
	return t.placeLayers(req, sess, inv, request, missed)
}

// placeLayers times the layers below the session by calling each on the
// input the request just gave it, and lays the results inside the request's
// session span.
func (t *twin) placeLayers(req request, sess *session.Session, inv skills.Invocation, parent int, missed bool) error {
	start := time.Now()
	if _, err := t.platform.Explain(req.Session, ""); err != nil {
		return err
	}
	d := time.Since(start)
	t.log.place("plan.passes", req.id, parent, d)
	t.planAtStep[req.node] = append(t.planAtStep[req.node], d)

	start = time.Now()
	for i := 0; i < probeGets; i++ {
		if _, ok := t.probe.Get("resident"); !ok {
			return fmt.Errorf("cache probe: resident key is gone")
		}
	}
	t.log.place("dag.cache_probe", req.id, parent, time.Since(start)/probeGets)

	if !missed && req.Op != "stream" {
		return nil
	}
	// What ran is the step alone over its cached input, so that is what the
	// engine is given: the one-node chain compiled to SQL, parsed, executed.
	if len(inv.Inputs) != 1 {
		return nil // a load: the engine is not involved
	}
	input, err := sess.Context().Dataset(inv.Inputs[0])
	if err != nil {
		return err
	}
	one := dag.NewGraph()
	sql, err := sess.Executor().CompileSQL(one, one.Add(inv))
	if err != nil {
		return err
	}
	catalog := sqlengine.NewMapCatalog(map[string]*dataset.Table{inv.Inputs[0]: input})
	start = time.Now()
	stmt, err := sqlengine.Parse(sql)
	if err != nil {
		return err
	}
	if req.Op != "stream" {
		if _, err := sqlengine.ExecStmt(catalog, stmt); err != nil {
			return err
		}
		d = time.Since(start)
		t.log.place("sqlengine.exec", req.id, parent, d)
		t.execTime += d
		t.scannedRows += int64(input.NumRows())
		return nil
	}
	stream, err := sqlengine.ExecStreamStmt(catalog, stmt, sqlengine.StreamOptions{Parallelism: -1})
	if err != nil {
		return err
	}
	var first time.Duration
	if _, err := stream.Drain(func(c *dataset.Table) error {
		if first == 0 && c.NumRows() > 0 {
			first = time.Since(start)
		}
		return nil
	}); err != nil {
		return err
	}
	d = time.Since(start)
	t.log.place("sqlengine.stream", req.id, parent, d)
	t.firstChunks = append(t.firstChunks, first)
	t.drains = append(t.drains, d)
	t.peakBuffered = max(t.peakBuffered, stream.PeakBufferedRows())
	return nil
}

// refresh installs table in the twin's warehouse and runs the recipe there.
func (t *twin) refresh(ctx context.Context, id string, table *dataset.Table) error {
	if err := t.db.ReplaceTable(table); err != nil {
		return err
	}
	root := t.log.begin("scheduler.run", id, noSpan)
	run, err := t.sched.RunNow(ctx, refreshJob)
	t.log.end(root)
	if err != nil {
		return err
	}
	if run.Err != "" || run.Skipped {
		return fmt.Errorf("twin refresh did not complete: %+v", run)
	}
	if t.log == nil {
		return nil
	}
	b, _ := t.hub.Get(refreshBoard)
	result := b.Snapshot().Tiles[0].Last.Table
	start := time.Now()
	t.scratch.Publish("hot", board.Update{Table: result})
	d := time.Since(start)
	<-t.drain.C
	t.log.place("board.publish", id, root, d)
	return nil
}

// runTraced is `-trace 1`: a short untraced window, an equally short one with
// client spans on (their medians give trace_overhead, and /statsz over both
// gives the counts), then the replay that times the layers.
func runTraced(ctx context.Context, w workload, opts options) (*runResult, error) {
	res := newRunResult(w, opts)
	s, _, err := setUp(ctx, w, opts)
	if err != nil {
		return nil, err
	}
	defer s.close()
	tw, err := newTwin(s)
	if err != nil {
		return nil, err
	}
	if err := tw.warmUp(ctx, s); err != nil {
		return nil, fmt.Errorf("warming the twin: %w", err)
	}

	quarter := time.Duration(opts.seconds * float64(time.Second) / 4)
	log := newSpanLog()
	plain, err := s.measure(ctx, quarter, nil)
	if err != nil {
		return nil, err
	}
	traced, err := s.measure(ctx, quarter, log)
	if err != nil {
		return nil, err
	}

	tw.log = log
	replayed := newRecorder()
	overhead, err := s.replay(ctx, tw, 2*quarter, replayed)
	if err != nil {
		return nil, err
	}
	if err := log.write(filepath.Join(opts.outDir, "trace-"+w.name+".json")); err != nil {
		return nil, err
	}

	all := newRecorder()
	all.merge(plain.rec)
	all.merge(traced.rec)
	all.merge(replayed)
	res.outcomes(all)
	res.perLayer(s, tw, log, plain, traced, overhead)
	return res, nil
}

// warmUp keeps the twin in step with the server's warm-up.
func (t *twin) warmUp(ctx context.Context, s *stack) error {
	if s.refresh != nil {
		// The server's warm-up already replaced every table once; the twin
		// was built from those tables, so one cold run brings it level.
		if err := t.refresh(ctx, "", s.refresh.tables[0]); err != nil {
			return err
		}
	}
	g := s.warmUpGenerator()
	for i := 0; i < s.warmUpRequests(); i++ {
		if err := t.apply(ctx, g.next()); err != nil {
			return err
		}
	}
	return nil
}

// replay sends the trace lane's requests one at a time, each first to the
// server and then to the twin, until replayRequests are done or budget is
// spent. It returns, per replayed step or stream, the client round trip minus
// the in-process request.
func (s *stack) replay(ctx context.Context, tw *twin, budget time.Duration, rec *recorder) ([]time.Duration, error) {
	g := newGenerator(s.w, s.seed, laneTrace, s.facts)
	deadline := time.Now().Add(budget)
	var overhead []time.Duration
	for i := 0; i < replayRequests && time.Now().Before(deadline); i++ {
		if s.refresh != nil && i%refreshEvery == refreshEvery-1 {
			if err := s.replayRefresh(ctx, tw, rec); err != nil {
				return nil, err
			}
			continue
		}
		req := g.next()
		o := s.do(ctx, s.clients[0], req, tw.log, false)
		rec.add(o)
		if o.err != nil {
			continue // the twin would fail the same way; the failure is counted
		}
		from := len(tw.log.spans)
		if err := tw.apply(ctx, req); err != nil {
			return nil, fmt.Errorf("twin: %s %s: %w", req.Op, req.Session, err)
		}
		if req.Op != "create" {
			overhead = append(overhead, o.lat-tw.log.duration(from))
		}
	}
	return overhead, nil
}

func (s *stack) replayRefresh(ctx context.Context, tw *twin, rec *recorder) error {
	r := s.refresh
	next := r.prepare()
	id := fmt.Sprintf("refresh/%d", r.n)
	sp := tw.log.begin("client.refresh", id, noSpan)
	sent := r.refreshOnce(ctx, time.Now(), next)
	r.settle([]refreshSent{sent}, rec)
	tw.log.end(sp)
	return tw.refresh(ctx, id, next)
}

// perLayer fills in a traced run's metrics.
func (r *runResult) perLayer(s *stack, tw *twin, log *spanLog, plain, traced *window, overhead []time.Duration) {
	for _, d := range layerMetrics {
		r.Metrics[d.Name] = metric{0, d.Unit, 0}
	}
	set := func(name string, v float64, samples int) {
		m := r.Metrics[name]
		m.Value, m.Samples = v, samples
		r.Metrics[name] = m
	}

	// Times: the median self time of each layer's spans.
	self := selfTimes(log.spans)
	byName := map[string][]time.Duration{}
	// selfSum adds up the self times inside in-process request trees; it
	// equals requestSum unless placed spans did not fit their parent.
	var selfSum, requestSum time.Duration
	for i, sp := range log.spans {
		byName[sp.Name] = append(byName[sp.Name], self[i])
		root := sp
		for root.Parent != noSpan {
			root = log.spans[root.Parent]
		}
		if root.Name == "inproc.request" {
			selfSum += self[i]
		}
		if sp.Name == "inproc.request" {
			requestSum += time.Duration(sp.End - sp.Start)
		}
	}
	for layer, name := range map[string]string{
		"wire.decode": "wire.decode_us", "wire.encode": "wire.encode_us", "gel.parse": "gel.parse_us",
		"session.request": "session.request_us", "plan.passes": "plan.passes_us",
		"dag.cache_probe": "dag.cache_probe_us", "sqlengine.exec": "sqlengine.exec_us",
		"scheduler.run": "scheduler.run_us", "board.publish": "board.publish_us",
	} {
		if v := byName[layer]; len(v) > 0 {
			set(name, us(median(v)), len(v))
		}
	}
	if len(overhead) > 0 {
		set("server.overhead_us", us(median(overhead)), len(overhead))
	}
	if len(tw.drains) > 0 {
		set("sqlengine.stream_first_chunk_us", us(median(tw.firstChunks)), len(tw.firstChunks))
		set("sqlengine.stream_drain_us", us(median(tw.drains)), len(tw.drains))
		set("sqlengine.peak_buffered_rows", float64(tw.peakBuffered), len(tw.drains))
	}
	if tw.encodeTime > 0 {
		set("wire.encode_rows_per_s", float64(tw.encodedRows)/tw.encodeTime.Seconds(), len(byName["wire.encode"]))
	}
	if tw.execTime > 0 {
		set("sqlengine.rows_in_per_s", float64(tw.scannedRows)/tw.execTime.Seconds(), len(byName["sqlengine.exec"]))
	}
	if requestSum > 0 {
		r.Diagnostics["trace.layer_self_sum_share"] = metric{float64(selfSum) / float64(requestSum), "share", len(byName["inproc.request"])}
	}
	for _, step := range []int{1, stepsPerAnalysis / 2, stepsPerAnalysis} {
		if v := tw.planAtStep[step]; len(v) > 0 && s.w.traffic != trafficStream {
			r.Diagnostics[fmt.Sprintf("plan.passes_us@step%d", step)] = metric{us(median(v)), "us", len(v)}
		}
	}

	// Counts: /statsz over the two timed windows.
	before, after := plain.before, traced.after
	delta := func(section func(*wire.Statsz) map[string]int64, key string) float64 {
		return float64(section(after)[key] - section(before)[key])
	}
	cache := func(z *wire.Statsz) map[string]int64 { return z.Cache }
	exec := func(z *wire.Statsz) map[string]int64 { return z.Exec }
	set("dag.cache_evictions", delta(cache, "evictions"), 0)
	tasks := delta(exec, "tasks_run")
	set("dag.tasks_run", tasks, 0)
	requests := float64(after.Server.Requests - before.Server.Requests)
	// A step that misses still fetches its input from the cache, so the
	// cache's own counters (and the executor's) see a hit beside every miss.
	// What "was the step served from cache" asks is whether the request ran
	// a task: the ratio is the share of execution requests that ran none.
	if hits, misses := delta(cache, "hits"), delta(cache, "misses"); hits+misses > 0 {
		r.Diagnostics["dag.cache_lookup_hit_ratio"] = metric{hits / (hits + misses), "share", int(hits + misses)}
	}
	if requests > 0 {
		set("dag.cache_hit_ratio", 1-min(1, tasks/requests), int(requests))
		refused := float64(after.Server.Busy409 - before.Server.Busy409 + after.Server.Throttled429 - before.Server.Throttled429)
		set("server.refused_share", refused/requests, int(requests))
	}
	if after.Admission != nil {
		set("server.admission_wait_p50_ms", after.Admission.Interactive.P50WaitMs, int(after.Admission.Interactive.Admitted))
	}
	retries := 0
	for _, name := range s.platform.Sessions() {
		if sess, err := s.platform.Session(name); err == nil {
			retries += sess.BusyRetries()
		}
	}
	set("session.busy_retries", float64(retries), 0)
	if after.Scheduler != nil && before.Scheduler != nil {
		if total := after.Scheduler.NodesTotal - before.Scheduler.NodesTotal; total > 0 {
			set("scheduler.nodes_unchanged_share", float64(after.Scheduler.NodesUnchanged-before.Scheduler.NodesUnchanged)/float64(total), int(total))
		}
	}
	if after.Boards != nil && before.Boards != nil {
		set("board.evictions", float64(after.Boards.Evictions-before.Boards.Evictions), 0)
	}
	if refreshes := len(plain.rec.refresh) + len(traced.rec.refresh); refreshes > 0 {
		set("cloud.scans", float64(traced.meterAfter.scans-plain.meterBefore.scans)/float64(refreshes), refreshes)
		set("cloud.bytes_scanned", float64(traced.meterAfter.bytes-plain.meterBefore.bytes)/float64(refreshes), refreshes)
	}

	// trace_overhead: what recording spans costs the client-observed median.
	primary := func(w *window) []time.Duration {
		if s.w.traffic == trafficStream {
			return w.rec.stream
		}
		return w.rec.step
	}
	if a, b := primary(plain), primary(traced); len(a) > 0 && len(b) > 0 {
		base := ms(median(a))
		set("trace_overhead", ms(median(b))/base-1, len(b))
		r.Diagnostics["trace_overhead.base_untraced_p50_ms"] = metric{base, "ms", len(a)}
		r.Diagnostics["trace_overhead.traced_p50_ms"] = metric{ms(median(b)), "ms", len(b)}
	}
}
