package server_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"datachat/internal/client"
	"datachat/internal/dataset"
	"datachat/internal/server"
	"datachat/internal/skills"
	"datachat/internal/testutil"
	"datachat/internal/wire"
)

// wideCSV builds an n-row CSV in the sales shape so streaming tests have
// enough rows for several chunks.
func wideCSV(n int) string {
	var b strings.Builder
	b.WriteString("order_id,region,status,price,discount\n")
	regions := []string{"east", "west", "north", "south"}
	for i := 1; i <= n; i++ {
		status := "Successful"
		if i%7 == 0 {
			status = "Unsuccessful"
		}
		fmt.Fprintf(&b, "%d,%s,%s,%d.5,0.1\n", i, regions[i%4], status, 20+i%200)
	}
	return b.String()
}

// TestRowStreamBadChunkParam pins the regression where chunk<=0 was silently
// clamped to the server maximum instead of refused: a zero or negative chunk
// is a client bug and must come back as a typed 400 before any execution
// slot is consumed.
func TestRowStreamBadChunkParam(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	srv, c := newTestDeployment(t, server.Config{})
	ctx := context.Background()
	if err := c.RegisterFile(ctx, "sales.csv", salesCSV); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSession(ctx, "s", "ann"); err != nil {
		t.Fatal(err)
	}
	final := runPipeline(t, c, "s", "ann")

	for _, chunk := range []int{0, -5} {
		_, err := c.StreamRows(ctx, "s", final, chunk, nil)
		if err == nil {
			t.Fatalf("chunk=%d: expected error, got nil", chunk)
		}
		var we *wire.Error
		if !errors.As(err, &we) {
			t.Fatalf("chunk=%d: error %v is not a wire.Error", chunk, err)
		}
		if we.Status != http.StatusBadRequest || we.Code != wire.CodeBadRequest {
			t.Fatalf("chunk=%d: status=%d code=%q, want 400/%q", chunk, we.Status, we.Code, wire.CodeBadRequest)
		}
	}
	if got := srv.Stats().Requests; got != 0 {
		// Five pipeline runs counted; refused streams must not be. The
		// pipeline ran 5 requests, so anything beyond that is a leak.
		if got != 5 {
			t.Fatalf("requests = %d, want 5 (refused streams must not count)", got)
		}
	}
}

// TestRowStreamUnderAdmission pins the regression where the dataset stream
// endpoint bypassed admission control entirely: with the single execution
// slot held by a blocked run, a stream must be refused with a typed 429, and
// once the slot frees it must succeed and be counted in Requests.
func TestRowStreamUnderAdmission(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	srv, c := newTestDeployment(t, server.Config{MaxInFlight: 1, MaxQueue: 0})
	registerBlockingSkill(t, srv.Platform(), started, release)
	ctx := context.Background()
	if err := c.RegisterFile(ctx, "sales.csv", salesCSV); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSession(ctx, "s", "ann"); err != nil {
		t.Fatal(err)
	}
	loaded, err := c.RunGEL(ctx, "s", "ann", "Load data from the file sales.csv", "")
	if err != nil {
		t.Fatal(err)
	}
	base := nodeOutput(loaded)
	before := srv.Stats().Requests

	// Park a run on the only slot, in a second session so the stream is not
	// blocked by the session lock but by admission alone.
	if _, err := c.CreateSession(ctx, "blocker", "bob"); err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() {
		_, err := c.Run(ctx, "blocker", wire.RunRequest{User: "bob", Program: program("Block", "b")})
		runDone <- err
	}()
	<-started

	if _, err := c.StreamRows(ctx, "s", base, 3, nil); !client.IsThrottled(err) {
		t.Fatalf("stream while saturated: err = %v, want throttled 429", err)
	}

	close(release)
	if err := <-runDone; err != nil {
		t.Fatalf("blocking run: %v", err)
	}
	header, err := c.StreamRows(ctx, "s", base, 3, nil)
	if err != nil {
		t.Fatalf("stream after release: %v", err)
	}
	if header.TotalRows != 10 {
		t.Fatalf("TotalRows = %d, want 10", header.TotalRows)
	}
	// The successful stream (and the blocking run) must be counted.
	if got := srv.Stats().Requests; got != before+2 {
		t.Fatalf("requests = %d, want %d (stream must count as a request)", got, before+2)
	}
}

// TestRowStreamTerminalSentinel reads the NDJSON stream raw and checks the
// protocol contract directly: last line is a sentinel chunk with last=true
// and the final row count, so clients can tell completion from truncation.
func TestRowStreamTerminalSentinel(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	_, c := newTestDeployment(t, server.Config{})
	ctx := context.Background()
	if err := c.RegisterFile(ctx, "sales.csv", salesCSV); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSession(ctx, "s", "ann"); err != nil {
		t.Fatal(err)
	}
	loaded, err := c.RunGEL(ctx, "s", "ann", "Load data from the file sales.csv", "")
	if err != nil {
		t.Fatal(err)
	}
	base := nodeOutput(loaded)

	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+fmt.Sprintf("/v1/sessions/s/datasets/%s/stream?chunk=4", base), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// header + ceil(10/4)=3 chunks + sentinel.
	if len(lines) != 5 {
		t.Fatalf("stream lines = %d, want 5:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	last := lines[len(lines)-1]
	var rc wire.RowChunk
	if err := wire.DecodeJSON(bytes.NewReader([]byte(last)), &rc); err != nil {
		t.Fatalf("decoding sentinel: %v", err)
	}
	if !rc.Last || rc.TotalRows != 10 || len(rc.Rows) != 0 || rc.Error != nil {
		t.Fatalf("sentinel = %+v, want last=true total_rows=10 no rows no error", rc)
	}
}

// TestRunStreamEndToEnd drives the POST run/stream endpoint: the streamed
// result must reassemble to exactly the table a buffered run produces, the
// chunk size must follow MaxRows, and the executor's streamed counters must
// surface in /statsz.
func TestRunStreamEndToEnd(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	_, c := newTestDeployment(t, server.Config{})
	ctx := context.Background()
	if err := c.RegisterFile(ctx, "sales.csv", wideCSV(50)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSession(ctx, "s", "ann"); err != nil {
		t.Fatal(err)
	}
	loaded, err := c.RunGEL(ctx, "s", "ann", "Load data from the file sales.csv", "")
	if err != nil {
		t.Fatal(err)
	}
	base := nodeOutput(loaded)

	// Reference: the same step run buffered, fetched through pagination.
	refResp, err := c.RunGEL(ctx, "s", "ann", "Keep the rows where status = 'Successful'", base)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := c.FetchTable(ctx, "s", nodeOutput(refResp), 7)
	if err != nil {
		t.Fatal(err)
	}

	chunks := 0
	var rows [][]any
	var header *wire.Table
	header, err = c.RunStream(ctx, "s", wire.RunRequest{
		User: "ann", GEL: "Keep the rows where status = 'Successful'", Current: base, MaxRows: 10,
	}, func(h *wire.Table, rc wire.RowChunk) error {
		chunks++
		if len(rc.Rows) > 10 {
			return fmt.Errorf("chunk of %d rows exceeds MaxRows=10", len(rc.Rows))
		}
		rows = append(rows, rc.Rows...)
		return nil
	})
	if err != nil {
		t.Fatalf("RunStream: %v", err)
	}
	if chunks < 2 {
		t.Fatalf("chunks = %d, want >= 2 (43 surviving rows at 10/chunk)", chunks)
	}
	if header.TotalRows != ref.NumRows() || len(rows) != ref.NumRows() {
		t.Fatalf("streamed %d rows (sentinel total %d), want %d", len(rows), header.TotalRows, ref.NumRows())
	}
	streamed, err := c.RunStreamTable(ctx, "s", wire.RunRequest{
		User: "ann", GEL: "Keep the rows where status = 'Successful'", Current: base, MaxRows: 10,
	})
	if err != nil {
		t.Fatalf("RunStreamTable: %v", err)
	}
	if !ref.Equal(streamed) {
		t.Fatal("streamed run result differs from buffered run result")
	}

	stats, err := c.Statsz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Exec["streamed_rows"] == 0 || stats.Exec["streamed_chunks"] == 0 {
		t.Fatalf("statsz streamed counters = %d chunks / %d rows, want non-zero",
			stats.Exec["streamed_chunks"], stats.Exec["streamed_rows"])
	}

	// A request that fails before the first chunk must come back as a plain
	// typed error, not a truncated stream.
	if _, err := c.RunStream(ctx, "s", wire.RunRequest{User: "ann", GEL: "florble the blorb"}, nil); err == nil {
		t.Fatal("expected error for unparseable GEL")
	} else if _, ok := err.(*wire.Error); !ok {
		t.Fatalf("pre-stream failure not typed: %T %v", err, err)
	}
}

// TestRunStreamSentinelStats drives the morsel-pipeline knobs over the wire:
// a run with a tiny max_buffered_rows budget must spill to disk instead of
// failing, stream the exact buffered result, and report the spill activity,
// worker count, and buffered-row peak in the terminal sentinel and /statsz.
func TestRunStreamSentinelStats(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	_, c := newTestDeployment(t, server.Config{})
	ctx := context.Background()
	if err := c.RegisterFile(ctx, "sales.csv", wideCSV(400)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSession(ctx, "s", "ann"); err != nil {
		t.Fatal(err)
	}
	loaded, err := c.RunGEL(ctx, "s", "ann", "Load data from the file sales.csv", "")
	if err != nil {
		t.Fatal(err)
	}
	base := nodeOutput(loaded)

	// 400 groups against a 16-row budget: the partitioned group-by must spill
	// rather than fail, and the stream must still match the buffered result.
	// The streamed run goes first — running the identical fragment buffered
	// beforehand would turn the stream into a sub-DAG cache hit that re-chunks
	// a materialized table instead of exercising the engine.
	const agg = "Compute the sum of price for each order_id and call the computed columns TotalPrice"
	streamed := 0
	header, stats, err := c.RunStreamStats(ctx, "s", wire.RunRequest{
		User: "ann", GEL: agg, Current: base,
		StreamWorkers: 2, MaxBufferedRows: 16,
	}, func(h *wire.Table, rc wire.RowChunk) error {
		streamed += len(rc.Rows)
		return nil
	})
	if err != nil {
		t.Fatalf("RunStreamStats: %v", err)
	}
	// Reference: the identical aggregate run buffered (a cache hit is fine —
	// a spilled execution must produce the exact table a clean one does).
	refResp, err := c.RunGEL(ctx, "s", "ann", agg, base)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := c.FetchTable(ctx, "s", nodeOutput(refResp), 500)
	if err != nil {
		t.Fatal(err)
	}
	if header.TotalRows != ref.NumRows() || streamed != ref.NumRows() {
		t.Fatalf("streamed %d rows (sentinel total %d), want %d", streamed, header.TotalRows, ref.NumRows())
	}
	if stats == nil {
		t.Fatal("terminal sentinel carried no stream stats")
	}
	if stats.Workers != 2 {
		t.Fatalf("sentinel workers = %d, want 2", stats.Workers)
	}
	if stats.SpillRuns == 0 || stats.SpilledRows == 0 || stats.SpilledBytes == 0 {
		t.Fatalf("sentinel spill stats = %+v, want non-zero runs/rows/bytes", stats)
	}
	// Forced admission may overrun the budget by one state per partition.
	if stats.PeakBufferedRows <= 0 || stats.PeakBufferedRows > 16+stats.Workers {
		t.Fatalf("sentinel peak_buffered_rows = %d, want in (0, %d]", stats.PeakBufferedRows, 16+stats.Workers)
	}

	statsz, err := c.Statsz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if statsz.Exec["spilled_rows"] == 0 || statsz.Exec["spill_runs"] == 0 || statsz.Exec["peak_buffered_rows"] == 0 {
		t.Fatalf("statsz spill counters = %v, want non-zero spill_runs/spilled_rows/peak_buffered_rows", statsz.Exec)
	}

	// An absurd worker ask is capped server-side, not honored verbatim (a
	// fresh aggregate, so the run streams live instead of hitting the cache);
	// a negative budget is refused outright.
	_, stats, err = c.RunStreamStats(ctx, "s", wire.RunRequest{
		User: "ann", StreamWorkers: 100000, Current: base,
		GEL: "Compute the sum of discount for each order_id and call the computed columns TotalDiscount",
	}, nil)
	if err != nil {
		t.Fatalf("capped-workers run: %v", err)
	}
	if stats == nil || stats.Workers > 64 {
		t.Fatalf("workers ask 100000 resolved to %+v, want capped at 64", stats)
	}
	if _, _, err := c.RunStreamStats(ctx, "s", wire.RunRequest{
		User: "ann", GEL: agg, Current: base, MaxBufferedRows: -1,
	}, nil); err == nil {
		t.Fatal("negative max_buffered_rows accepted, want 400")
	}
}

// TestRunRefusesStreamTuning: POST .../run executes through the buffered
// engine, which has no morsel workers, row budget or spill, so a request
// that sets stream_workers or max_buffered_rows there is refused with a
// typed 400 naming the route that honours them — not validated and then
// ignored. The same request on .../run/stream runs.
func TestRunRefusesStreamTuning(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	_, c := newTestDeployment(t, server.Config{})
	ctx := context.Background()
	if err := c.RegisterFile(ctx, "sales.csv", wideCSV(40)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSession(ctx, "s", "ann"); err != nil {
		t.Fatal(err)
	}
	loaded, err := c.RunGEL(ctx, "s", "ann", "Load data from the file sales.csv", "")
	if err != nil {
		t.Fatal(err)
	}
	const agg = "Compute the sum of price for each order_id and call the computed columns TotalPrice"
	for _, req := range []wire.RunRequest{
		{User: "ann", GEL: agg, Current: nodeOutput(loaded), StreamWorkers: 2},
		{User: "ann", GEL: agg, Current: nodeOutput(loaded), MaxBufferedRows: 16},
	} {
		_, err := c.Run(ctx, "s", req)
		var we *wire.Error
		if !errors.As(err, &we) || we.Status != http.StatusBadRequest || we.Code != wire.CodeBadRequest ||
			!strings.Contains(we.Message, "/run/stream") {
			t.Errorf("run with stream_workers=%d max_buffered_rows=%d: err = %v, want a 400 naming /run/stream",
				req.StreamWorkers, req.MaxBufferedRows, err)
		}
		if header, err := c.RunStream(ctx, "s", req, nil); err != nil {
			t.Errorf("run/stream with the same fields: %v", err)
		} else if header.TotalRows != 40 {
			t.Errorf("run/stream with the same fields: %d rows, want 40", header.TotalRows)
		}
	}
}

// TestRunStreamStatsArePerRequest pins that the sentinel's stats describe the
// request that carried them, not the session executor's lifetime: after a
// stream that buffered hundreds of rows, a small stream's buffered-row peak
// obeys its own budget, and a stream served from the sub-DAG cache (no morsel
// pipeline ran) reports no workers, peak or spill left over from earlier runs.
func TestRunStreamStatsArePerRequest(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	_, c := newTestDeployment(t, server.Config{})
	ctx := context.Background()
	if err := c.RegisterFile(ctx, "sales.csv", wideCSV(400)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSession(ctx, "s", "ann"); err != nil {
		t.Fatal(err)
	}
	loaded, err := c.RunGEL(ctx, "s", "ann", "Load data from the file sales.csv", "")
	if err != nil {
		t.Fatal(err)
	}
	base := nodeOutput(loaded)

	const big = "Compute the sum of price for each order_id and call the computed columns TotalPrice"
	_, first, err := c.RunStreamStats(ctx, "s", wire.RunRequest{
		User: "ann", GEL: big, Current: base, StreamWorkers: 2, MaxBufferedRows: 300,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first == nil || first.PeakBufferedRows < 100 || first.SpillRuns == 0 || first.Workers != 2 {
		t.Fatalf("first stream stats = %+v, want a spilling 2-worker run with a large buffered peak", first)
	}

	// Four groups under a 16-row budget on one worker.
	_, small, err := c.RunStreamStats(ctx, "s", wire.RunRequest{
		User: "ann", Current: base, StreamWorkers: 1, MaxBufferedRows: 16,
		GEL: "Compute the sum of price for each region and call the computed columns RegionPrice",
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if small == nil || small.Workers != 1 || small.PeakBufferedRows <= 0 || small.PeakBufferedRows > 16+1 {
		t.Fatalf("small stream stats = %+v, want 1 worker and a peak in (0, 17] — its own, not the first stream's %d",
			small, first.PeakBufferedRows)
	}
	if small.SpillRuns != 0 || small.SpilledRows != 0 {
		t.Fatalf("small stream reported spill activity it did not do: %+v", small)
	}

	// The first aggregate again: a sub-DAG cache hit re-chunked to the sink.
	rows := 0
	_, cached, err := c.RunStreamStats(ctx, "s", wire.RunRequest{
		User: "ann", GEL: big, Current: base, StreamWorkers: 2, MaxBufferedRows: 300,
	}, func(h *wire.Table, rc wire.RowChunk) error {
		rows += len(rc.Rows)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows != 400 {
		t.Fatalf("cached stream delivered %d rows, want 400", rows)
	}
	if cached == nil || cached.Workers != 0 || cached.PeakBufferedRows != 0 || cached.SpillRuns != 0 {
		t.Fatalf("cache-served stream stats = %+v, want no workers, peak or spill", cached)
	}
}

// TestRunStreamClientCancelMidStream cancels a streaming run from inside the
// chunk callback and checks the deployment stays healthy: the slot and the
// session lock are released, so an immediate follow-up run succeeds. Run
// under -race this also shakes out writer/executor races on the stream path.
func TestRunStreamClientCancelMidStream(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	_, c := newTestDeployment(t, server.Config{})
	ctx := context.Background()
	if err := c.RegisterFile(ctx, "sales.csv", wideCSV(400)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSession(ctx, "s", "ann"); err != nil {
		t.Fatal(err)
	}
	loaded, err := c.RunGEL(ctx, "s", "ann", "Load data from the file sales.csv", "")
	if err != nil {
		t.Fatal(err)
	}
	base := nodeOutput(loaded)

	streamCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	chunks := 0
	_, err = c.RunStream(streamCtx, "s", wire.RunRequest{
		User: "ann", GEL: "Keep the rows where status = 'Successful'", Current: base, MaxRows: 5,
	}, func(h *wire.Table, rc wire.RowChunk) error {
		chunks++
		if chunks == 1 {
			cancel()
		}
		return streamCtx.Err()
	})
	if err == nil {
		t.Fatal("expected cancellation error")
	}

	// The deployment must be fully usable immediately afterwards.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err = c.RunGEL(ctx, "s", "ann", "Keep the rows where region = 'east'", base)
		if err == nil {
			break
		}
		if !client.IsBusy(err) || time.Now().After(deadline) {
			t.Fatalf("follow-up run after cancel: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRowStreamDrainMidStream starts a stream, initiates shutdown while it
// is mid-flight, and checks the drain contract: the in-flight stream runs to
// its sentinel, new streams are refused 503, and Shutdown returns once the
// stream finishes. Run under -race this exercises drain/stream interleaving.
func TestRowStreamDrainMidStream(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	srv, c := newTestDeployment(t, server.Config{MaxInFlight: 4})
	ctx := context.Background()
	if err := c.RegisterFile(ctx, "sales.csv", wideCSV(100)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSession(ctx, "s", "ann"); err != nil {
		t.Fatal(err)
	}
	loaded, err := c.RunGEL(ctx, "s", "ann", "Load data from the file sales.csv", "")
	if err != nil {
		t.Fatal(err)
	}
	base := nodeOutput(loaded)

	firstChunk := make(chan struct{})
	drained := make(chan error, 1)
	streamDone := make(chan error, 1)
	go func() {
		chunks := 0
		_, err := c.StreamRows(ctx, "s", base, 10, func(h *wire.Table, rc wire.RowChunk) error {
			chunks++
			if chunks == 1 {
				close(firstChunk)
				// Hold the stream open until shutdown is observed in
				// progress, so the sentinel is written during drain.
				for !srv.Draining() {
					time.Sleep(time.Millisecond)
				}
			}
			return nil
		})
		streamDone <- err
	}()

	<-firstChunk
	go func() {
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer scancel()
		drained <- srv.Shutdown(sctx)
	}()
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}

	// New work is refused while the in-flight stream drains.
	if _, err := c.StreamRows(ctx, "s", base, 10, nil); !client.IsDraining(err) {
		t.Fatalf("stream during drain: err = %v, want draining 503", err)
	}

	if err := <-streamDone; err != nil {
		t.Fatalf("in-flight stream during drain: %v", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestRunStreamDegradedSentinel pins streamed-vs-buffered equality of the
// degraded-scan annotation: a buffered Run carries Degraded/DegradedNote on
// the result, but a stream never encodes the result object, so the terminal
// sentinel's stats must carry the same two fields. This guards the
// regression where handleRunStream discarded the result and streaming
// clients silently lost the §2.3 data-quality signal.
func TestRunStreamDegradedSentinel(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	srv, c := newTestDeployment(t, server.Config{})
	err := srv.Platform().Registry.Register(&skills.Definition{
		Name:     "StaleScan",
		Category: skills.DataWrangling,
		Summary:  "test skill: serves a degraded result",
		Volatile: true,
		Apply: func(ctx *skills.Context, inv skills.Invocation) (*skills.Result, error) {
			tab, err := dataset.NewTable(inv.Output, dataset.IntColumn("v", []int64{7, 8, 9}, nil))
			if err != nil {
				return nil, err
			}
			return &skills.Result{
				Table: tab, Degraded: true,
				DegradedNote: "served from snapshot aged 2h after primary scan failed",
			}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.CreateSession(ctx, "s", "ann"); err != nil {
		t.Fatal(err)
	}

	resp, err := c.Run(ctx, "s", wire.RunRequest{User: "ann", Program: program("StaleScan", "d1")})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Result.Degraded || resp.Result.DegradedNote == "" {
		t.Fatalf("buffered result = %+v, want degraded with note", resp.Result)
	}

	rows := 0
	_, stats, err := c.RunStreamStats(ctx, "s", wire.RunRequest{
		User: "ann", Program: program("StaleScan", "d2"),
	}, func(h *wire.Table, rc wire.RowChunk) error {
		rows += len(rc.Rows)
		return nil
	})
	if err != nil {
		t.Fatalf("RunStreamStats: %v", err)
	}
	if rows != 3 {
		t.Fatalf("streamed %d rows, want 3", rows)
	}
	if stats == nil {
		t.Fatal("stream ended without sentinel stats")
	}
	if stats.Degraded != resp.Result.Degraded || stats.DegradedNote != resp.Result.DegradedNote {
		t.Fatalf("sentinel degraded = (%v, %q), buffered result = (%v, %q); the stream must carry the same annotation",
			stats.Degraded, stats.DegradedNote, resp.Result.Degraded, resp.Result.DegradedNote)
	}
}

// TestNonFiniteCellIsATypedError: JSON has no number for NaN or ±Inf, which
// SQRT of a negative and LN(0) produce. Every route answers such a result
// with one typed internal error naming the value: the buffered run and the
// rows page as a 500 — not a 200 with an empty body — and both streams as
// their sentinel, after the chunks before the bad one and with nothing of
// that one written.
func TestNonFiniteCellIsATypedError(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	_, c := newTestDeployment(t, server.Config{})
	ctx := context.Background()
	if err := c.RegisterFile(ctx, "sales.csv", salesCSV); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSession(ctx, "s", "ann"); err != nil {
		t.Fatal(err)
	}
	loaded, err := c.RunGEL(ctx, "s", "ann", "Load data from the file sales.csv", "")
	if err != nil {
		t.Fatal(err)
	}
	base := nodeOutput(loaded)
	for i, tc := range []struct{ gel, value string }{
		{"Create a new column r as SQRT(discount - 0.1)", "NaN"}, // row 2's discount is 0
		{"Create a new column r as LN(discount)", "-Inf"},
	} {
		_, err := c.RunGEL(ctx, "s", "ann", tc.gel, base)
		var buffered *wire.Error
		if !errors.As(err, &buffered) || buffered.Status != http.StatusInternalServerError ||
			buffered.Code != wire.CodeInternal || !strings.HasSuffix(buffered.Message, "unsupported value: "+tc.value) {
			t.Fatalf("%s: buffered run returned %v, want a typed 500 naming %s", tc.gel, err, tc.value)
		}
		same := func(route string, err error) {
			t.Helper()
			var we *wire.Error
			if !errors.As(err, &we) || we.Code != buffered.Code || we.Message != buffered.Message {
				t.Errorf("%s: %s returned %v, want %q (%s)", tc.gel, route, err, buffered.Message, buffered.Code)
			}
		}
		rows := 0
		_, err = c.RunStream(ctx, "s", wire.RunRequest{User: "ann", GEL: tc.gel, Current: base, MaxRows: 1},
			func(_ *wire.Table, rc wire.RowChunk) error {
				rows += len(rc.Rows)
				return nil
			})
		same("run/stream", err)
		if rows != 1 {
			t.Errorf("%s: the stream delivered %d rows before the bad one, want 1", tc.gel, rows)
		}
		name := fmt.Sprintf("node%d", 1+2*i) // the buffered run's step
		_, err = c.Rows(ctx, "s", name, 0, 10)
		same("rows", err)
		_, err = c.StreamRows(ctx, "s", name, 1, nil)
		same("datasets stream", err)
	}
}
