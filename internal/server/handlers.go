package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"datachat/internal/artifact"
	"datachat/internal/core"
	"datachat/internal/dag"
	"datachat/internal/dataset"
	"datachat/internal/plan"
	"datachat/internal/session"
	"datachat/internal/skills"
	"datachat/internal/sqlengine"
	"datachat/internal/wire"
)

// routes wires the HTTP surface. Execution endpoints (run, save, refresh)
// pass through admission control; metadata reads do not.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	mux.HandleFunc("POST /v1/files", s.handleRegisterFile)
	mux.HandleFunc("POST /v1/sessions", s.handleCreateSession)
	mux.HandleFunc("GET /v1/sessions", s.handleListSessions)
	mux.HandleFunc("GET /v1/sessions/{name}", s.handleSessionInfo)
	mux.HandleFunc("POST /v1/sessions/{name}/share", s.handleShareSession)
	mux.HandleFunc("POST /v1/sessions/{name}/run", s.handleRun)
	mux.HandleFunc("POST /v1/sessions/{name}/run/stream", s.handleRunStream)
	mux.HandleFunc("GET /v1/sessions/{name}/explain", s.handleExplain)
	mux.HandleFunc("GET /v1/sessions/{name}/datasets/{dataset}", s.handleRows)
	mux.HandleFunc("GET /v1/sessions/{name}/datasets/{dataset}/stream", s.handleRowStream)
	mux.HandleFunc("POST /v1/sessions/{name}/artifacts", s.handleSaveArtifact)
	mux.HandleFunc("GET /v1/artifacts", s.handleListArtifacts)
	mux.HandleFunc("GET /v1/artifacts/{name}", s.handleGetArtifact)
	mux.HandleFunc("GET /v1/artifacts/{name}/recipe", s.handleRecipe)
	mux.HandleFunc("POST /v1/artifacts/{name}/share", s.handleShareArtifact)
	mux.HandleFunc("POST /v1/artifacts/{name}/links", s.handleMintLink)
	mux.HandleFunc("POST /v1/artifacts/{name}/refresh", s.handleRefreshArtifact)
	mux.HandleFunc("GET /v1/links/{secret}", s.handleResolveLink)
	mux.HandleFunc("POST /v1/schedules", s.handleCreateSchedule)
	mux.HandleFunc("GET /v1/schedules", s.handleListSchedules)
	mux.HandleFunc("GET /v1/schedules/{name}", s.handleGetSchedule)
	mux.HandleFunc("DELETE /v1/schedules/{name}", s.handleDeleteSchedule)
	mux.HandleFunc("POST /v1/schedules/{name}/run", s.handleRunSchedule)
	mux.HandleFunc("POST /v1/boards", s.handleCreateBoard)
	mux.HandleFunc("GET /v1/boards", s.handleListBoards)
	mux.HandleFunc("GET /v1/boards/{id}", s.handleGetBoard)
	mux.HandleFunc("DELETE /v1/boards/{id}", s.handleDeleteBoard)
	mux.HandleFunc("GET /v1/boards/{id}/subscribe", s.handleSubscribeBoard)
	return mux
}

// writeJSON marshals v before it commits the status, so a body the wire
// cannot carry goes out as a typed 500 instead.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		var e *wire.Error
		status, e = wireError(&encodeError{err})
		body, _ = json.Marshal(e) // a wire.Error always marshals
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(body, '\n'))
}

// encodeError is a response the wire cannot carry: JSON has no number for a
// NaN or ±Inf cell, which SQRT(-1) or LN(0) produce.
type encodeError struct{ err error }

func (e *encodeError) Error() string { return "server: encoding the response: " + e.err.Error() }

func (e *encodeError) Unwrap() error { return e.err }

// wireError is err's status and typed payload. An encode failure reports its
// own text, under whatever the executor wrapped it in, so a buffered response
// and a stream's sentinel name the failing value the same way.
func wireError(err error) (int, *wire.Error) {
	status, code := errStatus(err)
	msg := err.Error()
	var enc *encodeError
	if errors.As(err, &enc) {
		msg = enc.Error()
	}
	return status, &wire.Error{Code: code, Message: msg}
}

// writeErr maps err onto the wire: status code, typed payload, and a
// Retry-After hint on 409/429 so well-behaved clients back off.
func (s *Server) writeErr(w http.ResponseWriter, err error) {
	status, e := wireError(err)
	s.countRefusal(status)
	if status == http.StatusConflict || status == http.StatusTooManyRequests {
		e.RetryAfterMs = s.cfg.RetryAfter.Milliseconds()
		secs := int64(s.cfg.RetryAfter.Seconds())
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, status, e)
}

func decodeBody(r *http.Request, v any) error {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		return fmt.Errorf("server: invalid request body: %w", err)
	}
	return nil
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// execStatsz is the /statsz "exec" section: one key per dag.Stats field
// (TestStatszExecHasEveryStatsField).
func execStatsz(st dag.Stats) map[string]int64 {
	return map[string]int64{
		"tasks_run":          int64(st.TasksRun),
		"sql_tasks":          int64(st.SQLTasks),
		"direct_tasks":       int64(st.DirectTasks),
		"nodes_consolidated": int64(st.NodesConsolidated),
		"query_blocks":       int64(st.QueryBlocks),
		"rows_materialized":  int64(st.RowsMaterialized),
		"cache_hits":         int64(st.CacheHits),
		"cache_misses":       int64(st.CacheMisses),
		"retries":            int64(st.Retries),
		"permanent_failures": int64(st.PermanentFailures),
		"degraded":           int64(st.Degraded),
		"streamed_chunks":    int64(st.StreamedChunks),
		"streamed_rows":      int64(st.StreamedRows),
		"spill_runs":         int64(st.SpillRuns),
		"spilled_rows":       int64(st.SpilledRows),
		"spilled_bytes":      st.SpilledBytes,
		"peak_buffered_rows": int64(st.PeakBufferedRows),
		"stream_workers":     int64(st.StreamWorkers),
	}
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	cache := s.platform.CacheStats()
	statsz := wire.Statsz{
		Sessions: len(s.platform.Sessions()),
		Server:   s.Stats(),
		Exec:     execStatsz(s.platform.ExecStats()),
		Cache: map[string]int64{
			"hits":      cache.Hits,
			"misses":    cache.Misses,
			"evictions": cache.Evictions,
			"entries":   int64(cache.Entries),
			"bytes":     cache.Bytes,
			"budget":    cache.Capacity,
		},
		SessionBytes: s.platform.SessionBytes(),
	}
	statsz.Admission = s.adm.snapshot()
	if s.sched != nil {
		st := s.sched.Stats()
		statsz.Scheduler = &wire.SchedulerStats{
			Jobs: st.Jobs, Done: st.Done, Runs: st.Runs, Failures: st.Failures,
			Skips: st.Skips, Degraded: st.Degraded, NodesTotal: st.NodesTotal,
			NodesChanged: st.NodesChanged, NodesUnchanged: st.NodesUnchanged,
			Published: st.Published,
		}
	}
	if s.boards != nil {
		st := s.boards.Stats()
		statsz.Boards = &wire.BoardHubStats{
			Boards: st.Boards, Tiles: st.Tiles, Subscribers: st.Subscribers,
			Publishes: st.Publishes, Evictions: st.Evictions, Backfills: st.Backfills,
		}
	}
	writeJSON(w, http.StatusOK, statsz)
}

func (s *Server) handleRegisterFile(w http.ResponseWriter, r *http.Request) {
	var req wire.FileRequest
	if err := decodeBody(r, &req); err != nil {
		s.writeErr(w, err)
		return
	}
	if req.Name == "" {
		s.writeErr(w, fmt.Errorf("server: file name must not be empty"))
		return
	}
	s.platform.RegisterFile(req.Name, req.Content)
	writeJSON(w, http.StatusOK, map[string]string{"name": req.Name})
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req wire.CreateSessionRequest
	if err := decodeBody(r, &req); err != nil {
		s.writeErr(w, err)
		return
	}
	sess, err := s.platform.CreateSession(req.Name, req.Owner)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	// Sessions created over the wire inherit the server's busy-retry
	// policy, so §2.4 contention is absorbed server-side before any 409.
	if s.cfg.BusyRetry.Enabled() {
		sess.SetBusyRetry(s.cfg.BusyRetry, s.cfg.Clock)
	}
	writeJSON(w, http.StatusCreated, s.sessionInfo(sess))
}

func (s *Server) sessionInfo(sess *session.Session) wire.SessionInfo {
	return wire.SessionInfo{
		Name:    sess.Name,
		Owner:   sess.Owner,
		Members: sess.Members(),
		Steps:   sess.Graph().Len(),
		History: len(sess.History()),
	}
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, wire.SessionsResponse{Sessions: s.platform.Sessions()})
}

func (s *Server) handleSessionInfo(w http.ResponseWriter, r *http.Request) {
	sess, err := s.platform.Session(r.PathValue("name"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, s.sessionInfo(sess))
}

func (s *Server) handleShareSession(w http.ResponseWriter, r *http.Request) {
	var req wire.ShareSessionRequest
	if err := decodeBody(r, &req); err != nil {
		s.writeErr(w, err)
		return
	}
	sess, err := s.platform.Session(r.PathValue("name"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	access, err := parseAccess(req.Access)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	if err := sess.Share(req.By, req.With, access); err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, s.sessionInfo(sess))
}

func parseAccess(a string) (artifact.Access, error) {
	switch a {
	case "view":
		return artifact.ViewAccess, nil
	case "edit":
		return artifact.EditAccess, nil
	default:
		return artifact.NoAccess, fmt.Errorf("server: invalid access %q (want view or edit)", a)
	}
}

// resolveProgram reduces a run request to skill invocations through the
// platform's dialect switch (core.Platform.Lower).
func (s *Server) resolveProgram(sessionName string, req wire.RunRequest) ([]skills.Invocation, error) {
	prog := core.Program{GEL: req.GEL, Current: req.Current, Python: req.Python, Phrase: req.Phrase, Dataset: req.Dataset}
	for _, step := range req.Program {
		prog.Steps = append(prog.Steps, step.Invocation())
	}
	return s.platform.Lower(sessionName, prog)
}

// errStreamOnly refuses stream tuning on the buffered route: POST .../run
// drains every fragment on one inline worker with no row budget or spill, so
// the fields would be validated and then ignored.
var errStreamOnly = errors.New("server: invalid request: stream_workers and max_buffered_rows apply only to POST /v1/sessions/{name}/run/stream")

// applyCostBudget validates the request's §3 scan budget and puts it, or the
// server default, on the per-request tuning.
func (s *Server) applyCostBudget(tune *session.Tuning, req wire.RunRequest) error {
	if req.CostBudgetBytes < 0 {
		return fmt.Errorf("server: invalid cost_budget_bytes=%d", req.CostBudgetBytes)
	}
	tune.CostBudgetBytes = req.CostBudgetBytes
	if tune.CostBudgetBytes == 0 {
		tune.CostBudgetBytes = s.cfg.DefaultCostBudgetBytes
	}
	return nil
}

// applyStreamTuning maps the request's morsel-pipeline knobs onto the
// per-request tuning: worker asks are capped at MaxStreamWorkers, the memory
// budget falls back to the server default, and the spill directory is always
// the server's (never client-chosen).
func (s *Server) applyStreamTuning(tune *session.Tuning, req wire.RunRequest) error {
	if req.StreamWorkers < -1 || req.MaxBufferedRows < 0 {
		return fmt.Errorf("server: invalid stream_workers=%d / max_buffered_rows=%d",
			req.StreamWorkers, req.MaxBufferedRows)
	}
	workers := req.StreamWorkers
	if workers == 0 {
		workers = s.cfg.StreamWorkers
	}
	if workers > s.cfg.MaxStreamWorkers {
		workers = s.cfg.MaxStreamWorkers
	}
	tune.StreamParallelism = workers
	tune.StreamMaxBufferedRows = req.MaxBufferedRows
	if tune.StreamMaxBufferedRows == 0 {
		tune.StreamMaxBufferedRows = s.cfg.StreamMaxBufferedRows
	}
	tune.StreamSpillDir = s.cfg.StreamSpillDir
	return nil
}

// costSummary converts the planner's estimate to the wire form.
func costSummary(pc *plan.PlanCost, budget int64) *wire.CostSummary {
	if pc == nil {
		return nil
	}
	return &wire.CostSummary{
		EstRows:      pc.Rows,
		EstBytes:     pc.Bytes,
		EstScanBytes: pc.ScanBytes,
		EstLatencyMS: pc.Latency.Milliseconds(),
		EstDollars:   pc.Dollars,
		Substituted:  pc.Substituted,
		BudgetBytes:  budget,
	}
}

func (s *Server) maxRows(asked int) int {
	if asked <= 0 {
		asked = s.cfg.DefaultMaxRows
	}
	if asked > s.cfg.MaxPageRows {
		asked = s.cfg.MaxPageRows
	}
	return asked
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req wire.RunRequest
	if err := decodeBody(r, &req); err != nil {
		s.writeErr(w, err)
		return
	}
	if req.StreamWorkers != 0 || req.MaxBufferedRows != 0 {
		s.writeErr(w, errStreamOnly)
		return
	}
	tune := s.tuning(req.DeadlineMs)
	if err := s.applyCostBudget(tune, req); err != nil {
		s.writeErr(w, err)
		return
	}
	ctx, cancel := s.requestContext(r, tune)
	defer cancel()
	class := classOf(req.Priority)
	if err := s.admit(ctx, class, req.User); err != nil {
		s.writeErr(w, err)
		return
	}
	defer s.release(class)
	s.requests.Add(1)
	invs, err := s.resolveProgram(r.PathValue("name"), req)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	res, ids, rep, err := s.runProgram(ctx, r.PathValue("name"), req.User, tune, invs)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	nodes := make([]int, len(ids))
	for i, id := range ids {
		nodes[i] = int(id)
	}
	writeJSON(w, http.StatusOK, wire.RunResponse{
		Result: wire.EncodeResult(res, s.maxRows(req.MaxRows)),
		Nodes:  nodes,
		Cost:   costSummary(rep.Cost, tune.CostBudgetBytes),
	})
}

// runProgram executes invs in the named session under tune — the one way a
// run request reaches the engine — and returns the run's report with it.
func (s *Server) runProgram(ctx context.Context, name, user string, tune *session.Tuning, invs []skills.Invocation) (*skills.Result, []dag.NodeID, dag.Report, error) {
	sess, err := s.platform.Session(name)
	if err != nil {
		return nil, nil, dag.Report{}, err
	}
	return sess.RequestProgramCtx(ctx, user, *tune, invs...)
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	ex, err := s.platform.Explain(r.PathValue("name"), r.URL.Query().Get("output"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, wire.ExplainResponse{Explain: ex})
}

// queryInt parses an integer query parameter, def when absent.
func queryInt(r *http.Request, key string, def int) (int, error) {
	v := r.URL.Query().Get(key)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("server: invalid %s=%q", key, v)
	}
	return n, nil
}

func (s *Server) handleRows(w http.ResponseWriter, r *http.Request) {
	sess, err := s.platform.Session(r.PathValue("name"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	t, err := sess.Context().Dataset(r.PathValue("dataset"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	offset, err := queryInt(r, "offset", 0)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	limit, err := queryInt(r, "limit", s.cfg.DefaultMaxRows)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, wire.EncodeTable(t, offset, s.maxRows(limit)))
}

// handleRowStream streams a dataset as newline-delimited JSON: the first
// line is the wire.Table header (schema + total count, no rows), each later
// line one wire.RowChunk, flushed as produced — large tables reach the
// client incrementally instead of via one giant document. A terminal
// sentinel chunk (Last set) closes every complete stream; its absence tells
// clients the stream was truncated. Streams hold an execution slot for their
// whole duration, so admission control and graceful drain govern them
// exactly like /run.
func (s *Server) handleRowStream(w http.ResponseWriter, r *http.Request) {
	chunk, err := queryInt(r, "chunk", 1000)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	if chunk <= 0 {
		s.writeErr(w, fmt.Errorf("server: invalid chunk=%d (must be positive)", chunk))
		return
	}
	if chunk > s.cfg.MaxPageRows {
		chunk = s.cfg.MaxPageRows
	}
	if err := s.admit(r.Context(), classInteractive, r.URL.Query().Get("user")); err != nil {
		s.writeErr(w, err)
		return
	}
	defer s.release(classInteractive)
	s.requests.Add(1)
	sess, err := s.platform.Session(r.PathValue("name"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	t, err := sess.Context().Dataset(r.PathValue("dataset"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	header := wire.EncodeTable(t, 0, 0)
	header.Rows = nil
	header.NextOffset = -1
	if err := enc.Encode(header); err != nil {
		return
	}
	n := t.NumRows()
	var line []byte
	for off := 0; off < n; off += chunk {
		// Check for a gone client before doing the encode work, not after:
		// a cancelled request must not pay for (or emit) one more chunk.
		if r.Context().Err() != nil {
			return
		}
		line, err = wire.AppendRowChunk(line[:0], off, t, off, min(off+chunk, n))
		if err != nil {
			_, e := wireError(&encodeError{err})
			_ = enc.Encode(wire.RowChunk{Offset: off, Last: true, TotalRows: off, Error: e})
			return
		}
		if _, err := w.Write(line); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	_ = enc.Encode(wire.RowChunk{Offset: n, Last: true, TotalRows: n})
	if flusher != nil {
		flusher.Flush()
	}
}

// handleRunStream executes a run request with its result streamed as NDJSON:
// the target step runs through the morsel pipeline and each chunk is encoded
// and flushed as the engine produces it, so remote clients see first rows
// while execution is still under way instead of after full materialization.
// Failures before the first chunk return a normal typed error response;
// failures after the stream began are reported in the terminal sentinel
// chunk (the HTTP status is already committed by then).
func (s *Server) handleRunStream(w http.ResponseWriter, r *http.Request) {
	var req wire.RunRequest
	if err := decodeBody(r, &req); err != nil {
		s.writeErr(w, err)
		return
	}
	tune := s.tuning(req.DeadlineMs)
	if err := s.applyStreamTuning(tune, req); err != nil {
		s.writeErr(w, err)
		return
	}
	if err := s.applyCostBudget(tune, req); err != nil {
		s.writeErr(w, err)
		return
	}
	ctx, cancel := s.requestContext(r, tune)
	defer cancel()
	class := classOf(req.Priority)
	if err := s.admit(ctx, class, req.User); err != nil {
		s.writeErr(w, err)
		return
	}
	defer s.release(class)
	s.requests.Add(1)
	invs, err := s.resolveProgram(r.PathValue("name"), req)
	if err != nil {
		s.writeErr(w, err)
		return
	}

	chunkRows := req.MaxRows
	if chunkRows <= 0 {
		chunkRows = sqlengine.DefaultChunkRows
	}
	if chunkRows > s.cfg.MaxPageRows {
		chunkRows = s.cfg.MaxPageRows
	}
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	headerSent := false
	offset := 0
	var line []byte // every data line is built here, one chunk at a time
	tune.StreamChunkRows = chunkRows
	tune.Stream = func(t *dataset.Table) error {
		// The sink runs on an executor worker goroutine, but strictly
		// serially (one target task), so writing w here is race-free.
		if err := ctx.Err(); err != nil {
			return err
		}
		if !headerSent {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			header := wire.EncodeTable(t, 0, 0)
			header.Rows = nil
			header.NextOffset = -1
			// The full row count is unknown until the stream ends; the
			// sentinel chunk carries the final figure.
			header.TotalRows = 0
			if err := enc.Encode(header); err != nil {
				return err
			}
			headerSent = true
		}
		if t.NumRows() > 0 {
			var err error
			if line, err = wire.AppendRowChunk(line[:0], offset, t, 0, t.NumRows()); err != nil {
				return &encodeError{err}
			}
			if _, err := w.Write(line); err != nil {
				return err
			}
			offset += t.NumRows()
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	res, _, rep, err := s.runProgram(ctx, r.PathValue("name"), req.User, tune, invs)
	// The sentinel's stats are this run's own: its morsel worker count and
	// buffered-row peak, not figures an earlier request left on the executor.
	streamStats := &wire.StreamStats{
		Workers:          rep.Stats.StreamWorkers,
		PeakBufferedRows: rep.Stats.PeakBufferedRows,
		SpillRuns:        rep.Stats.SpillRuns,
		SpilledRows:      rep.Stats.SpilledRows,
		SpilledBytes:     rep.Stats.SpilledBytes,
	}
	if err != nil {
		if !headerSent {
			s.writeErr(w, err)
			return
		}
		status, e := wireError(err)
		s.countRefusal(status)
		_ = enc.Encode(wire.RowChunk{Offset: offset, Last: true, TotalRows: offset, Error: e, Stats: streamStats})
		return
	}
	streamStats.Cost = costSummary(rep.Cost, tune.CostBudgetBytes)
	if res != nil && res.Degraded {
		// The degraded-scan annotation lives on the result, which the
		// stream never encodes — carry it on the sentinel stats instead.
		streamStats.Degraded = res.Degraded
		streamStats.DegradedNote = res.DegradedNote
	}
	if !headerSent {
		// No table flowed (chart/model/message-only result): emit a bare
		// header so the stream is still well-formed NDJSON.
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		_ = enc.Encode(&wire.Table{Name: "result", NextOffset: -1})
	}
	_ = enc.Encode(wire.RowChunk{Offset: offset, Last: true, TotalRows: offset, Stats: streamStats})
	if flusher != nil {
		flusher.Flush()
	}
}

func (s *Server) handleSaveArtifact(w http.ResponseWriter, r *http.Request) {
	var req wire.SaveArtifactRequest
	if err := decodeBody(r, &req); err != nil {
		s.writeErr(w, err)
		return
	}
	tune := s.tuning(0)
	ctx, cancel := s.requestContext(r, tune)
	defer cancel()
	if err := s.admit(ctx, classInteractive, req.User); err != nil {
		s.writeErr(w, err)
		return
	}
	defer s.release(classInteractive)
	s.requests.Add(1)
	sess, err := s.platform.Session(r.PathValue("name"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	// The anchor step (req.Output, "" = latest) is resolved inside the
	// session under the §2.4 lock — reading the graph here would race a
	// concurrent /run appending nodes.
	a, err := sess.SaveArtifactOutput(ctx, s.platform.Artifacts, req.User, req.Name, req.Output, artifact.Type(req.Type), *tune)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, s.artifactInfo(a, s.cfg.DefaultMaxRows))
}

func (s *Server) artifactInfo(a *artifact.Artifact, maxRows int) wire.ArtifactInfo {
	info := wire.ArtifactInfo{
		Name:         a.Name,
		Type:         string(a.Type),
		Owner:        a.Owner,
		CreatedAt:    a.CreatedAt,
		RefreshedAt:  a.RefreshedAt,
		Degraded:     a.Degraded,
		DegradedNote: a.DegradedNote,
		Recipe:       a.Recipe,
		Chart:        a.Chart,
		ModelName:    a.ModelName,
		Explanation:  a.Explanation,
	}
	if a.Table != nil {
		info.Table = wire.EncodeTable(a.Table, 0, maxRows)
	}
	return info
}

func (s *Server) handleListArtifacts(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, wire.ArtifactsResponse{
		Artifacts: s.platform.Artifacts.List(r.URL.Query().Get("user")),
	})
}

func (s *Server) handleGetArtifact(w http.ResponseWriter, r *http.Request) {
	a, err := s.platform.Artifacts.Get(r.PathValue("name"), r.URL.Query().Get("user"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	maxRows, err := queryInt(r, "max_rows", s.cfg.DefaultMaxRows)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, s.artifactInfo(a, s.maxRows(maxRows)))
}

// handleRecipe serves an artifact's recipe in every dialect. Renderings are
// best-effort: a recipe with steps outside a dialect (e.g. no relational
// tail for SQL) simply omits that rendering.
func (s *Server) handleRecipe(w http.ResponseWriter, r *http.Request) {
	a, err := s.platform.Artifacts.Get(r.PathValue("name"), r.URL.Query().Get("user"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	resp := wire.RecipeResponse{Recipe: a.Recipe}
	if gel, err := a.Recipe.GEL(s.platform.Registry); err == nil {
		resp.GEL = gel
	}
	if py, err := a.Recipe.Python(s.platform.Registry); err == nil {
		resp.Python = py
	}
	// SQL rendering needs an executor for consolidation; a scratch one
	// compiles without touching any session state.
	scratch := dag.NewExecutor(s.platform.Registry, skills.NewContext())
	if sql, err := a.Recipe.SQL(scratch); err == nil {
		resp.SQL = sql
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleShareArtifact(w http.ResponseWriter, r *http.Request) {
	var req wire.ShareArtifactRequest
	if err := decodeBody(r, &req); err != nil {
		s.writeErr(w, err)
		return
	}
	access, err := parseAccess(req.Access)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	if err := s.platform.Artifacts.Share(r.PathValue("name"), req.By, req.With, access); err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"name": r.PathValue("name"), "with": req.With, "access": req.Access})
}

func (s *Server) handleMintLink(w http.ResponseWriter, r *http.Request) {
	var req wire.LinkRequest
	if err := decodeBody(r, &req); err != nil {
		s.writeErr(w, err)
		return
	}
	secret, err := s.platform.Artifacts.CreateSecretLink(r.PathValue("name"), req.By)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, wire.LinkResponse{Secret: secret})
}

func (s *Server) handleResolveLink(w http.ResponseWriter, r *http.Request) {
	a, err := s.platform.Artifacts.GetBySecret(r.PathValue("secret"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, s.artifactInfo(a, s.cfg.DefaultMaxRows))
}

// refreshRequest names the session whose executor replays the recipe.
type refreshRequest struct {
	User    string `json:"user"`
	Session string `json:"session"`
}

func (s *Server) handleRefreshArtifact(w http.ResponseWriter, r *http.Request) {
	var req refreshRequest
	if err := decodeBody(r, &req); err != nil {
		s.writeErr(w, err)
		return
	}
	tune := s.tuning(0)
	ctx, cancel := s.requestContext(r, tune)
	defer cancel()
	if err := s.admit(ctx, classInteractive, req.User); err != nil {
		s.writeErr(w, err)
		return
	}
	defer s.release(classInteractive)
	s.requests.Add(1)
	a, err := s.platform.RefreshArtifact(ctx, req.Session, req.User, r.PathValue("name"), *tune)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, s.artifactInfo(a, s.cfg.DefaultMaxRows))
}
