// Package wire defines datachatd's HTTP/JSON protocol: the request and
// response bodies exchanged between internal/server and internal/client,
// the typed error payload every non-2xx response carries, and a
// type-faithful encoding of tables so result pages and row streams
// round-trip through JSON without losing column types (int64s stay ints,
// times stay times, nulls stay null).
//
// The protocol maps the paper's §2.4 semantics onto status codes:
//
//	409 CodeBusy      — the session lock is held (session.ErrBusy)
//	429 CodeThrottled — admission control refused the request; retry later
//	499 CodeCanceled  — the client went away before a response was written
//	503 CodeDraining  — the daemon is shutting down gracefully
//	504 CodeDeadline  — the per-request deadline expired mid-execution
package wire

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"datachat/internal/dataset"
	"datachat/internal/plan"
	"datachat/internal/recipe"
	"datachat/internal/skills"
	"datachat/internal/viz"
)

// Error codes carried in the typed error payload.
const (
	CodeBusy       = "busy"
	CodeThrottled  = "throttled"
	CodeDraining   = "draining"
	CodeDeadline   = "deadline"
	CodeCanceled   = "canceled"
	CodeNotFound   = "not_found"
	CodeDenied     = "denied"
	CodeBadRequest = "bad_request"
	CodeTooLarge   = "too_large" // request body over the server's limit (413)
	CodeInternal   = "internal"
	// CodeEvicted ends a board subscribe stream whose client fell too far
	// behind the publish rate (slow-consumer eviction).
	CodeEvicted = "evicted"
)

// Priority classes for RunRequest.Priority and the admission layer.
const (
	PriorityInteractive = "interactive"
	PriorityBackground  = "background"
)

// Error is the JSON body of every non-2xx response.
type Error struct {
	// Code classifies the failure (Code* constants).
	Code string `json:"code"`
	// Message is the underlying error text.
	Message string `json:"message"`
	// RetryAfterMs hints when a busy/throttled request is worth retrying.
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
	// Status is the HTTP status the server sent (filled client-side).
	Status int `json:"-"`
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("datachatd: %s (%s, http %d)", e.Message, e.Code, e.Status)
}

// ColumnMeta describes one column of a wire table.
type ColumnMeta struct {
	Name string `json:"name"`
	Type string `json:"type"` // "int", "float", "string", "bool", "time", "null"
}

// Table is one page of a table: the schema, the page's rows, and enough
// numbers to paginate. Cell encoding by column type: ints and floats as JSON
// numbers, strings and bools natively, times as RFC3339Nano strings, nulls
// as JSON null.
type Table struct {
	Name string       `json:"name"`
	Cols []ColumnMeta `json:"cols"`
	Rows [][]any      `json:"rows"`
	// TotalRows is the full table's row count (>= len(Rows)).
	TotalRows int `json:"total_rows"`
	// Offset is the index of the first row of this page.
	Offset int `json:"offset"`
	// NextOffset is the offset of the next page, or -1 when this page ends
	// the table.
	NextOffset int `json:"next_offset"`
}

// RowChunk is one frame of a streamed table: a slice of rows starting at
// Offset. The stream's first frame is the Table header with no rows; the
// final frame is a sentinel with Last set and no rows, so clients can
// distinguish a clean end-of-stream from a truncated connection.
type RowChunk struct {
	Offset int     `json:"offset"`
	Rows   [][]any `json:"rows,omitempty"`
	// Last marks the terminal sentinel frame: the stream is complete and
	// TotalRows is the stream's final row count. A stream that ends without
	// a Last frame was cut off mid-flight.
	Last      bool `json:"last,omitempty"`
	TotalRows int  `json:"total_rows,omitempty"`
	// Error reports a failure that happened after streaming began (the HTTP
	// status was already committed); nil on a clean end.
	Error *Error `json:"error,omitempty"`
	// Stats rides the terminal sentinel: how the morsel pipeline executed the
	// request (worker count, buffered-row peak, disk spill activity).
	Stats *StreamStats `json:"stats,omitempty"`
	// Board carries one insights-board update on a board subscribe stream
	// (GET /v1/boards/{id}/subscribe); Rows is empty on such frames. Reusing
	// the RowChunk framing means board streams share the header/sentinel
	// protocol — and its truncation detection — with every other stream.
	Board *BoardEvent `json:"board,omitempty"`
}

// BoardEvent is the wire form of one board update: which tile changed, the
// publishing job's run metadata, the refreshed table page, and the
// mandatory degradation/error annotations.
type BoardEvent struct {
	Board   string    `json:"board"`
	Tile    string    `json:"tile"`
	Version uint64    `json:"version"`
	At      time.Time `json:"at"`
	Job     string    `json:"job,omitempty"`
	Seq     int       `json:"seq,omitempty"`

	Table        *Table `json:"table,omitempty"`
	Message      string `json:"message,omitempty"`
	Degraded     bool   `json:"degraded,omitempty"`
	DegradedNote string `json:"degraded_note,omitempty"`
	RunError     string `json:"run_error,omitempty"`

	// FPTotal/FPChanged summarize the producing run's fingerprint diff;
	// CacheHits is how many sub-DAGs the refresh served from cache.
	FPTotal   int   `json:"fp_total,omitempty"`
	FPChanged int   `json:"fp_changed,omitempty"`
	CacheHits int64 `json:"cache_hits,omitempty"`
}

// StreamStats summarizes one streamed execution for the terminal sentinel:
// the morsel worker count, the buffered-row high-water mark against the
// memory budget, and how much the pipeline breakers spilled to disk.
type StreamStats struct {
	Workers          int   `json:"workers,omitempty"`
	PeakBufferedRows int   `json:"peak_buffered_rows,omitempty"`
	SpillRuns        int   `json:"spill_runs,omitempty"`
	SpilledRows      int   `json:"spilled_rows,omitempty"`
	SpilledBytes     int64 `json:"spilled_bytes,omitempty"`
	// Degraded and DegradedNote mirror the result's degraded-scan
	// annotation, so a streaming client sees the same data-quality signal
	// a buffered Run response carries in its Result.
	Degraded     bool   `json:"degraded,omitempty"`
	DegradedNote string `json:"degraded_note,omitempty"`
	// Cost is the compiled plan's cost estimate (nil when the server's cost
	// model is off).
	Cost *CostSummary `json:"cost,omitempty"`
}

// CostSummary is the planner's cost estimate for one executed request:
// estimated output size, cloud bytes scanned with their priced latency and
// dollars, and how many scans the budget pass degraded to samples.
type CostSummary struct {
	EstRows      int64   `json:"est_rows"`
	EstBytes     int64   `json:"est_bytes"`
	EstScanBytes int64   `json:"est_scan_bytes"`
	EstLatencyMS int64   `json:"est_latency_ms"`
	EstDollars   float64 `json:"est_dollars"`
	Substituted  int     `json:"substituted,omitempty"`
	// BudgetBytes echoes the budget the request ran under (0 = unlimited).
	BudgetBytes int64 `json:"budget_bytes,omitempty"`
}

// EncodeTable converts rows [offset, offset+limit) of t to the wire form.
// limit <= 0 means every remaining row.
func EncodeTable(t *dataset.Table, offset, limit int) *Table {
	if t == nil {
		return nil
	}
	n := t.NumRows()
	if offset < 0 {
		offset = 0
	}
	if offset > n {
		offset = n
	}
	end := n
	if limit > 0 && offset+limit < n {
		end = offset + limit
	}
	w := &Table{Name: t.Name(), TotalRows: n, Offset: offset, NextOffset: -1}
	if end < n {
		w.NextOffset = end
	}
	for _, c := range t.Columns() {
		w.Cols = append(w.Cols, ColumnMeta{Name: c.Name(), Type: c.Type().String()})
	}
	w.Rows = EncodeRows(t, offset, end)
	return w
}

// EncodeRows converts rows [from, to) of t to wire cells.
func EncodeRows(t *dataset.Table, from, to int) [][]any {
	rows := make([][]any, 0, to-from)
	cols := t.Columns()
	for i := from; i < to; i++ {
		row := make([]any, len(cols))
		for j, c := range cols {
			row[j] = encodeCell(c, i)
		}
		rows = append(rows, row)
	}
	return rows
}

func encodeCell(c *dataset.Column, i int) any {
	if c.IsNull(i) {
		return nil
	}
	v := c.Value(i)
	switch v.Type {
	case dataset.TypeInt:
		return v.I
	case dataset.TypeFloat:
		return v.F
	case dataset.TypeString:
		return v.S
	case dataset.TypeBool:
		return v.B
	case dataset.TypeTime:
		return v.T.UTC().Format(time.RFC3339Nano)
	default:
		return nil
	}
}

// Decode rebuilds a typed dataset.Table from the wire form (one page's
// rows). Numeric cells may arrive as float64 or json.Number depending on
// how the enclosing document was decoded; both are accepted. Ints beyond
// 2^53 stay exact only on the json.Number path (DecodeJSON uses it).
func (w *Table) Decode() (*dataset.Table, error) {
	if w == nil {
		return nil, nil
	}
	n := len(w.Rows)
	cols := make([]*dataset.Column, len(w.Cols))
	for j, cm := range w.Cols {
		nulls := make([]bool, n)
		var col *dataset.Column
		switch cm.Type {
		case "int":
			vals := make([]int64, n)
			for i, row := range w.Rows {
				if cellNull(row, j) {
					nulls[i] = true
					continue
				}
				iv, err := cellInt(row[j])
				if err != nil {
					return nil, fmt.Errorf("wire: col %q row %d: %w", cm.Name, i, err)
				}
				vals[i] = iv
			}
			col = dataset.IntColumn(cm.Name, vals, nulls)
		case "float":
			vals := make([]float64, n)
			for i, row := range w.Rows {
				if cellNull(row, j) {
					nulls[i] = true
					continue
				}
				fv, err := cellFloat(row[j])
				if err != nil {
					return nil, fmt.Errorf("wire: col %q row %d: %w", cm.Name, i, err)
				}
				vals[i] = fv
			}
			col = dataset.FloatColumn(cm.Name, vals, nulls)
		case "string":
			vals := make([]string, n)
			for i, row := range w.Rows {
				if cellNull(row, j) {
					nulls[i] = true
					continue
				}
				s, ok := row[j].(string)
				if !ok {
					return nil, fmt.Errorf("wire: col %q row %d: want string, got %T", cm.Name, i, row[j])
				}
				vals[i] = s
			}
			col = dataset.StringColumn(cm.Name, vals, nulls)
		case "bool":
			vals := make([]bool, n)
			for i, row := range w.Rows {
				if cellNull(row, j) {
					nulls[i] = true
					continue
				}
				b, ok := row[j].(bool)
				if !ok {
					return nil, fmt.Errorf("wire: col %q row %d: want bool, got %T", cm.Name, i, row[j])
				}
				vals[i] = b
			}
			col = dataset.BoolColumn(cm.Name, vals, nulls)
		case "time":
			vals := make([]time.Time, n)
			for i, row := range w.Rows {
				if cellNull(row, j) {
					nulls[i] = true
					continue
				}
				s, ok := row[j].(string)
				if !ok {
					return nil, fmt.Errorf("wire: col %q row %d: want time string, got %T", cm.Name, i, row[j])
				}
				tv, err := time.Parse(time.RFC3339Nano, s)
				if err != nil {
					return nil, fmt.Errorf("wire: col %q row %d: %w", cm.Name, i, err)
				}
				vals[i] = tv
			}
			col = dataset.TimeColumn(cm.Name, vals, nulls)
		case "null":
			col = dataset.NewColumn(cm.Name, dataset.TypeNull)
			for i := 0; i < n; i++ {
				col.Append(dataset.Null)
			}
		default:
			return nil, fmt.Errorf("wire: unknown column type %q", cm.Type)
		}
		cols[j] = col
	}
	return dataset.NewTable(w.Name, cols...)
}

func cellNull(row []any, j int) bool { return j >= len(row) || row[j] == nil }

func cellInt(v any) (int64, error) {
	switch x := v.(type) {
	case json.Number:
		return x.Int64()
	case float64:
		// Plain-json decodes deliver every number as float64; a fractional
		// value in an int column is a type error, not something to truncate.
		if x != math.Trunc(x) {
			return 0, fmt.Errorf("want int, got non-integral %v", x)
		}
		return int64(x), nil
	case int64:
		return x, nil
	default:
		return 0, fmt.Errorf("want int, got %T", v)
	}
}

func cellFloat(v any) (float64, error) {
	switch x := v.(type) {
	case json.Number:
		return x.Float64()
	case float64:
		return x, nil
	case int64:
		return float64(x), nil
	default:
		return 0, fmt.Errorf("want float, got %T", v)
	}
}

// DecodeJSON decodes a JSON document into v with number fidelity (cells
// arrive as json.Number, keeping large int64s exact). The client uses it for
// every table-bearing response body.
func DecodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	return dec.Decode(v)
}

// Model is the wire form of a trained model attached to a result.
type Model struct {
	Kind        string `json:"kind"`
	Explanation string `json:"explanation,omitempty"`
}

// Result is the wire form of skills.Result: the table page, built charts,
// any model, the message, and — per §2.3 transparency — the degradation
// marker, so remote clients see exactly what in-process callers see.
type Result struct {
	Table        *Table       `json:"table,omitempty"`
	Charts       []*viz.Chart `json:"charts,omitempty"`
	Model        *Model       `json:"model,omitempty"`
	Message      string       `json:"message,omitempty"`
	Degraded     bool         `json:"degraded,omitempty"`
	DegradedNote string       `json:"degraded_note,omitempty"`
}

// EncodeResult converts a skill result to the wire form, paginating the
// table to at most maxRows rows (<= 0 means all).
func EncodeResult(res *skills.Result, maxRows int) *Result {
	if res == nil {
		return nil
	}
	w := &Result{
		Message:      res.Message,
		Degraded:     res.Degraded,
		DegradedNote: res.DegradedNote,
	}
	if res.Table != nil {
		w.Table = EncodeTable(res.Table, 0, maxRows)
	}
	w.Charts = res.Charts
	if res.Model != nil {
		w.Model = &Model{Kind: res.Model.Kind(), Explanation: res.Model.Explain()}
	}
	return w
}

// --- Request/response bodies ---

// CreateSessionRequest opens a session.
type CreateSessionRequest struct {
	Name  string `json:"name"`
	Owner string `json:"owner"`
}

// SessionInfo describes one open session.
type SessionInfo struct {
	Name    string   `json:"name"`
	Owner   string   `json:"owner"`
	Members []string `json:"members"`
	// Steps is the session DAG's node count.
	Steps int `json:"steps"`
	// History is the number of executed requests.
	History int `json:"history"`
}

// SessionsResponse lists open sessions.
type SessionsResponse struct {
	Sessions []string `json:"sessions"`
}

// RunRequest executes work in a session. Exactly one of GEL, Python,
// Phrase, or Program must be set.
type RunRequest struct {
	// User is the requesting platform user (must hold edit access).
	User string `json:"user"`
	// GEL is one GEL sentence; Current names the dataset sentences without
	// explicit inputs act on.
	GEL     string `json:"gel,omitempty"`
	Current string `json:"current,omitempty"`
	// Python is a DataChat Python API script.
	Python string `json:"python,omitempty"`
	// Phrase is a §4.8 phrase-based request against Dataset.
	Phrase  string `json:"phrase,omitempty"`
	Dataset string `json:"dataset,omitempty"`
	// Program is a list of explicit skill steps (the recipe dialect).
	Program []recipe.Step `json:"program,omitempty"`
	// DeadlineMs bounds this request's execution time (0 = server default).
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// MaxRows caps the rows inlined in the response table (0 = server
	// default); fetch the rest via the dataset pages or the row stream.
	MaxRows int `json:"max_rows,omitempty"`
	// StreamWorkers sets the morsel pipeline workers for this request's
	// target fragment: 0 keeps the server default, 1 runs the same operators
	// on one inline worker, -1 asks for one worker per core. It and
	// MaxBufferedRows apply to POST …/run/stream; the buffered …/run route
	// has no morsel pipeline and refuses a request that sets either (400).
	StreamWorkers int `json:"stream_workers,omitempty"`
	// MaxBufferedRows caps the rows the engine's pipeline breakers (group-by,
	// sort, join, distinct) may hold in memory; overflow spills sorted runs
	// to disk. 0 keeps the server default.
	MaxBufferedRows int `json:"max_buffered_rows,omitempty"`
	// CostBudgetBytes caps this request's estimated cloud scan bytes: past
	// it the planner substitutes block samples for the most expensive scans
	// and the result comes back flagged degraded. 0 keeps the server
	// default budget (usually unlimited).
	CostBudgetBytes int64 `json:"cost_budget_bytes,omitempty"`
	// Priority selects the admission class: "" or "interactive" competes
	// normally; "background" queues behind every interactive request and is
	// additionally capped at the server's MaxBackground in-flight slots.
	Priority string `json:"priority,omitempty"`
}

// RunResponse is the outcome of one executed request.
type RunResponse struct {
	Result *Result `json:"result"`
	// Nodes are the DAG node ids the program appended (anchor for saves).
	Nodes []int `json:"nodes"`
	// Cost is the compiled plan's cost estimate (nil when the server's cost
	// model is off).
	Cost *CostSummary `json:"cost,omitempty"`
}

// ShareSessionRequest grants a user access to a session.
type ShareSessionRequest struct {
	By     string `json:"by"`
	With   string `json:"with"`
	Access string `json:"access"` // "view" or "edit"
}

// SaveArtifactRequest persists a session result as an artifact.
type SaveArtifactRequest struct {
	User string `json:"user"`
	// Name is the artifact name to save under.
	Name string `json:"name"`
	// Output names the session dataset whose producing step anchors the
	// recipe slice ("" = the session's latest step).
	Output string `json:"output,omitempty"`
	// Type forces the artifact type ("" = infer from the payload).
	Type string `json:"type,omitempty"`
}

// ArtifactInfo is the wire form of an artifact: metadata, provenance, and
// the payload (table page, chart, model explanation).
type ArtifactInfo struct {
	Name         string         `json:"name"`
	Type         string         `json:"type"`
	Owner        string         `json:"owner"`
	CreatedAt    time.Time      `json:"created_at"`
	RefreshedAt  time.Time      `json:"refreshed_at"`
	Degraded     bool           `json:"degraded,omitempty"`
	DegradedNote string         `json:"degraded_note,omitempty"`
	Recipe       *recipe.Recipe `json:"recipe,omitempty"`
	Table        *Table         `json:"table,omitempty"`
	Chart        *viz.Chart     `json:"chart,omitempty"`
	ModelName    string         `json:"model_name,omitempty"`
	Explanation  string         `json:"explanation,omitempty"`
}

// ArtifactsResponse lists artifact names visible to a user.
type ArtifactsResponse struct {
	Artifacts []string `json:"artifacts"`
}

// ShareArtifactRequest grants a user access to an artifact.
type ShareArtifactRequest struct {
	By     string `json:"by"`
	With   string `json:"with"`
	Access string `json:"access"` // "view" or "edit"
}

// LinkRequest mints a secret link for an artifact.
type LinkRequest struct {
	By string `json:"by"`
}

// LinkResponse carries the minted secret.
type LinkResponse struct {
	Secret string `json:"secret"`
}

// RecipeResponse carries an artifact's recipe in every dialect (§2.3): the
// canonical JSON steps plus the GEL, Python, and consolidated-SQL renderings.
type RecipeResponse struct {
	Recipe *recipe.Recipe `json:"recipe"`
	GEL    []string       `json:"gel,omitempty"`
	Python string         `json:"python,omitempty"`
	SQL    string         `json:"sql,omitempty"`
}

// ExplainResponse wraps the plan EXPLAIN report.
type ExplainResponse struct {
	Explain *plan.Explain `json:"explain"`
}

// FileRequest registers CSV content loadable by name in sessions created
// afterwards (the wire form of file upload).
type FileRequest struct {
	Name    string `json:"name"`
	Content string `json:"content"`
}

// ServerStats counts what the network layer itself did, complementing the
// executor stats below it.
type ServerStats struct {
	// Requests counts execution requests accepted for processing.
	Requests int64 `json:"requests"`
	// Busy409 counts requests refused because the session lock was held.
	Busy409 int64 `json:"busy_409"`
	// Throttled429 counts requests refused by admission control.
	Throttled429 int64 `json:"throttled_429"`
	// Draining503 counts requests refused during graceful drain.
	Draining503 int64 `json:"draining_503"`
	// Deadline504 counts requests that exceeded their deadline.
	Deadline504 int64 `json:"deadline_504"`
	// InFlight and Queued are point-in-time gauges.
	InFlight int64 `json:"in_flight"`
	Queued   int64 `json:"queued"`
	// Draining reports whether the server is shutting down.
	Draining bool `json:"draining"`
}

// ClassStats counts one admission priority class.
type ClassStats struct {
	// Admitted counts requests that got an execution slot; Queued those
	// that had to wait for one first; Throttled those refused with 429.
	Admitted  int64 `json:"admitted"`
	Queued    int64 `json:"queued"`
	Throttled int64 `json:"throttled"`
	// Active and Waiting are point-in-time gauges.
	Active  int64 `json:"active"`
	Waiting int64 `json:"waiting"`
	// AvgWaitMs is the mean time admitted requests of this class spent
	// queued (0 when nothing queued).
	AvgWaitMs float64 `json:"avg_wait_ms"`
	// P50WaitMs is the median admission wait across ALL admitted requests
	// of this class (fast-path admissions count as zero wait), estimated
	// from a fixed bucket histogram and reported as the containing bucket's
	// upper bound in milliseconds.
	P50WaitMs float64 `json:"p50_wait_ms"`
}

// TenantStats counts one tenant's admission outcomes.
type TenantStats struct {
	Admitted  int64 `json:"admitted"`
	Throttled int64 `json:"throttled"`
}

// AdmissionStats is the priority-aware admission layer's /statsz section.
type AdmissionStats struct {
	Interactive ClassStats `json:"interactive"`
	Background  ClassStats `json:"background"`
	// MaxBackground echoes the background in-flight cap.
	MaxBackground int `json:"max_background"`
	// Tenants maps user -> outcome counts (bounded; overflow aggregates
	// under "~other").
	Tenants map[string]TenantStats `json:"tenants,omitempty"`
}

// SchedulerStats is the scheduler's /statsz section.
type SchedulerStats struct {
	Jobs     int   `json:"jobs"`
	Done     int   `json:"done"`
	Runs     int64 `json:"runs"`
	Failures int64 `json:"failures"`
	Skips    int64 `json:"skips"`
	Degraded int64 `json:"degraded"`
	// NodesUnchanged/NodesTotal is the fleet-wide fraction of plan nodes
	// incremental refresh never re-executed.
	NodesTotal     int64 `json:"nodes_total"`
	NodesChanged   int64 `json:"nodes_changed"`
	NodesUnchanged int64 `json:"nodes_unchanged"`
	Published      int64 `json:"published"`
}

// BoardHubStats is the insights-board hub's /statsz section.
type BoardHubStats struct {
	Boards      int   `json:"boards"`
	Tiles       int   `json:"tiles"`
	Subscribers int   `json:"subscribers"`
	Publishes   int64 `json:"publishes"`
	Evictions   int64 `json:"evictions"`
	Backfills   int64 `json:"backfills"`
}

// Statsz is the /statsz payload: the server's own counters, the summed
// executor stats of every session, the shared sub-DAG cache counters (with
// the bytes its entries pin and the byte budget), and the bytes each
// session's retained datasets pin — plus, when the subsystems are wired, the
// admission classes, the scheduler, and the board hub.
type Statsz struct {
	Sessions     int              `json:"sessions"`
	Server       ServerStats      `json:"server"`
	Exec         map[string]int64 `json:"exec"`
	Cache        map[string]int64 `json:"cache"`
	SessionBytes map[string]int64 `json:"session_bytes,omitempty"`
	Admission    *AdmissionStats  `json:"admission,omitempty"`
	Scheduler    *SchedulerStats  `json:"scheduler,omitempty"`
	Boards       *BoardHubStats   `json:"boards,omitempty"`
}

// --- Schedules ---

// ScheduleRequest creates a scheduled job. Exactly one of Recipe or
// Artifact (the name of a saved artifact whose recipe to re-run) must be
// set.
type ScheduleRequest struct {
	Name string `json:"name"`
	// User is the identity background runs execute as (needs edit access
	// on the target session).
	User string `json:"user"`
	// Session is the session replays run in ("" = a dedicated
	// "sched:<name>" session owned by User).
	Session  string         `json:"session,omitempty"`
	Recipe   *recipe.Recipe `json:"recipe,omitempty"`
	Artifact string         `json:"artifact,omitempty"`
	// EveryMs is the trigger period in milliseconds.
	EveryMs int64 `json:"every_ms"`
	// Board/Tile say where refreshes are published ("" board = nowhere).
	Board string `json:"board,omitempty"`
	Tile  string `json:"tile,omitempty"`
	// MaxRuns stops the job after that many completed runs (0 = unlimited).
	MaxRuns int `json:"max_runs,omitempty"`
}

// ScheduleRun is the wire form of one run-history record.
type ScheduleRun struct {
	Seq       int       `json:"seq"`
	At        time.Time `json:"at"`
	ElapsedMs int64     `json:"elapsed_ms"`

	FPTotal     int `json:"fp_total"`
	FPChanged   int `json:"fp_changed"`
	FPUnchanged int `json:"fp_unchanged"`

	TasksRun  int `json:"tasks_run,omitempty"`
	CacheHits int `json:"cache_hits,omitempty"`

	Degraded     bool   `json:"degraded,omitempty"`
	Skipped      bool   `json:"skipped,omitempty"`
	SkipReason   string `json:"skip_reason,omitempty"`
	Error        string `json:"error,omitempty"`
	BoardVersion uint64 `json:"board_version,omitempty"`
}

// ScheduleInfo describes one job and its recent runs.
type ScheduleInfo struct {
	Name    string        `json:"name"`
	Session string        `json:"session"`
	User    string        `json:"user"`
	Board   string        `json:"board,omitempty"`
	Tile    string        `json:"tile,omitempty"`
	EveryMs int64         `json:"every_ms"`
	MaxRuns int           `json:"max_runs,omitempty"`
	NextRun time.Time     `json:"next_run"`
	Runs    int           `json:"runs"`
	Done    bool          `json:"done,omitempty"`
	History []ScheduleRun `json:"history,omitempty"`
}

// SchedulesResponse lists jobs.
type SchedulesResponse struct {
	Schedules []ScheduleInfo `json:"schedules"`
}

// --- Boards ---

// CreateBoardRequest makes an insights board.
type CreateBoardRequest struct {
	ID    string `json:"id"`
	Name  string `json:"name,omitempty"`
	Owner string `json:"owner"`
}

// TileInfo is one tile's pinned artifact.
type TileInfo struct {
	Tile    string      `json:"tile"`
	Updates int         `json:"updates"`
	Last    *BoardEvent `json:"last,omitempty"`
}

// BoardInfo describes a board and its tiles as of Version.
type BoardInfo struct {
	ID      string     `json:"id"`
	Name    string     `json:"name"`
	Owner   string     `json:"owner"`
	Version uint64     `json:"version"`
	Created time.Time  `json:"created"`
	Tiles   []TileInfo `json:"tiles,omitempty"`
}

// BoardsResponse lists boards.
type BoardsResponse struct {
	Boards []BoardInfo `json:"boards"`
}
