package server_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"datachat/internal/client"
	"datachat/internal/cloud"
	"datachat/internal/core"
	"datachat/internal/dataset"
	"datachat/internal/faults"
	"datachat/internal/recipe"
	"datachat/internal/server"
	"datachat/internal/skills"
	"datachat/internal/testutil"
	"datachat/internal/wire"
)

const salesCSV = `order_id,region,status,price,discount
1,east,Successful,120.5,0.1
2,west,Successful,80.0,0.0
3,east,Unsuccessful,45.0,0.2
4,north,Successful,210.0,0.15
5,west,Refunded,99.0,0.0
6,east,Successful,60.0,0.05
7,south,Successful,150.0,0.1
8,north,Unsuccessful,30.0,0.0
9,south,Successful,75.5,0.25
10,east,Successful,88.0,0.0
`

// newTestDeployment serves a fresh platform over a real listener and returns
// the server (for Shutdown/Stats) plus a client pointed at it.
func newTestDeployment(t *testing.T, cfg server.Config) (*server.Server, *client.Client) {
	t.Helper()
	srv := server.New(core.New(), cfg)
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return srv, client.New(hs.URL)
}

// nodeOutput is the client-side naming convention for unnamed step outputs,
// mirroring dag.Node.OutputName.
func nodeOutput(resp *wire.RunResponse) string {
	return fmt.Sprintf("node%d", resp.Nodes[len(resp.Nodes)-1])
}

// runPipeline executes the quickstart GEL pipeline over the wire and returns
// the output dataset name of the final step.
func runPipeline(t *testing.T, c *client.Client, sess, user string) string {
	t.Helper()
	ctx := context.Background()
	lines := []string{
		"Load data from the file sales.csv",
		"Keep the rows where status = 'Successful'",
		"Create a new column revenue as price * (1 - discount)",
		"Compute the sum of revenue for each region and call the computed columns TotalRevenue",
		"Sort the rows by TotalRevenue in descending order",
	}
	current := ""
	for _, line := range lines {
		resp, err := c.RunGEL(ctx, sess, user, line, current)
		if err != nil {
			t.Fatalf("RunGEL(%q): %v", line, err)
		}
		current = nodeOutput(resp)
	}
	return current
}

// TestEndToEndGELPipeline drives the full acceptance path remotely: upload a
// file, open a session, run load → wrangle → visualize, page and stream the
// result, save it as an artifact, export the recipe in all dialects, mint a
// secret link, and resolve it account-less.
func TestEndToEndGELPipeline(t *testing.T) {
	_, c := newTestDeployment(t, server.Config{})
	ctx := context.Background()

	if err := c.RegisterFile(ctx, "sales.csv", salesCSV); err != nil {
		t.Fatalf("RegisterFile: %v", err)
	}
	if _, err := c.CreateSession(ctx, "quarterly", "ann"); err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	final := runPipeline(t, c, "quarterly", "ann")

	// Visualize the aggregate through GEL.
	chartResp, err := c.RunGEL(ctx, "quarterly", "ann",
		"Plot a bar chart with the x-axis region, the y-axis TotalRevenue", final)
	if err != nil {
		t.Fatalf("plot: %v", err)
	}
	if len(chartResp.Result.Charts) != 1 {
		t.Fatalf("charts = %d, want 1", len(chartResp.Result.Charts))
	}

	// Page the final dataset and check the aggregate itself.
	table, err := c.FetchTable(ctx, "quarterly", final, 2) // tiny pages to exercise pagination
	if err != nil {
		t.Fatalf("FetchTable: %v", err)
	}
	if table.NumRows() != 4 {
		t.Fatalf("rows = %d, want 4 regions", table.NumRows())
	}
	regions := table.Columns()[0]
	if got := regions.Value(0).S; got != "east" {
		t.Errorf("top region = %q, want east (highest TotalRevenue first)", got)
	}

	// The stream endpoint must reassemble to the identical table.
	streamed, err := c.StreamTable(ctx, "quarterly", final, 3)
	if err != nil {
		t.Fatalf("StreamTable: %v", err)
	}
	if !table.Equal(streamed) {
		t.Fatal("streamed table differs from paginated table")
	}

	// EXPLAIN over the wire: the plan report arrives as structured JSON.
	explain, err := c.Explain(ctx, "quarterly", final)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if explain == nil || len(explain.Nodes) == 0 {
		t.Fatalf("explain = %+v, want nodes", explain)
	}

	// The Python API rides the same run endpoint.
	pyResp, err := c.RunPython(ctx, "quarterly", "ann",
		fmt.Sprintf("top2 = %s.limit_rows(count = 2)", final))
	if err != nil {
		t.Fatalf("RunPython: %v", err)
	}
	if got := pyResp.Result.Table.TotalRows; got != 2 {
		t.Fatalf("python limit_rows rows = %d, want 2", got)
	}

	// A request with no dialect set is a typed 400.
	_, err = c.Run(ctx, "quarterly", wire.RunRequest{User: "ann"})
	if e, ok := err.(*wire.Error); !ok || e.Status != 400 || e.Code != wire.CodeBadRequest {
		t.Fatalf("empty run request = %v, want typed 400", err)
	}

	// Save, export the recipe, share by secret link.
	if _, err := c.SaveArtifact(ctx, "quarterly", wire.SaveArtifactRequest{
		User: "ann", Name: "revenue-by-region", Output: final,
	}); err != nil {
		t.Fatalf("SaveArtifact: %v", err)
	}
	rec, err := c.Recipe(ctx, "revenue-by-region", "ann")
	if err != nil {
		t.Fatalf("Recipe: %v", err)
	}
	if rec.Recipe == nil || len(rec.Recipe.Steps) == 0 {
		t.Fatal("recipe has no steps")
	}
	if len(rec.GEL) == 0 || rec.Python == "" || rec.SQL == "" {
		t.Fatalf("missing renderings: gel=%d python=%t sql=%t",
			len(rec.GEL), rec.Python != "", rec.SQL != "")
	}
	if !strings.Contains(rec.SQL, "SELECT") {
		t.Fatalf("SQL rendering = %q, want a SELECT", rec.SQL)
	}

	secret, err := c.MintLink(ctx, "revenue-by-region", "ann")
	if err != nil {
		t.Fatalf("MintLink: %v", err)
	}
	viaLink, err := c.ResolveLink(ctx, secret)
	if err != nil {
		t.Fatalf("ResolveLink: %v", err)
	}
	if viaLink.Name != "revenue-by-region" || viaLink.Table == nil {
		t.Fatalf("link resolved to %+v, want the saved table artifact", viaLink)
	}

	// Statsz reflects the work.
	stats, err := c.Statsz(ctx)
	if err != nil {
		t.Fatalf("Statsz: %v", err)
	}
	if stats.Sessions != 1 || stats.Server.Requests == 0 || stats.Exec["tasks_run"] == 0 {
		t.Fatalf("statsz = %+v, want 1 session and nonzero work", stats)
	}
}

// registerBlockingSkill installs a skill that parks until release is closed,
// then emits a one-row table. started receives one value per execution start.
func registerBlockingSkill(t *testing.T, p *core.Platform, started chan<- struct{}, release <-chan struct{}) {
	t.Helper()
	err := p.Registry.Register(&skills.Definition{
		Name:     "Block",
		Category: skills.DataWrangling,
		Summary:  "test skill: block until released",
		Volatile: true,
		Apply: func(ctx *skills.Context, inv skills.Invocation) (*skills.Result, error) {
			started <- struct{}{}
			<-release
			tab, err := dataset.NewTable(inv.Output, dataset.IntColumn("ok", []int64{1}, nil))
			if err != nil {
				return nil, err
			}
			return &skills.Result{Table: tab, Message: "unblocked"}, nil
		},
	})
	if err != nil {
		t.Fatalf("registering Block skill: %v", err)
	}
}

// program builds a one-step explicit program for a zero-input skill.
func program(skill, output string) []recipe.Step {
	return []recipe.Step{{Skill: skill, Output: output}}
}

// TestConcurrentClientsSerializeOr409 pins the §2.4 contract on the wire: N
// clients hammering one session each either execute (serialized by the
// session lock) or receive a typed 409; nothing else.
func TestConcurrentClientsSerializeOr409(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	srv, c := newTestDeployment(t, server.Config{MaxInFlight: 16, MaxQueue: 32})
	registerBlockingSkill(t, srv.Platform(), started, release)
	ctx := context.Background()
	if err := c.RegisterFile(ctx, "sales.csv", salesCSV); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSession(ctx, "shared", "ann"); err != nil {
		t.Fatal(err)
	}
	loaded, err := c.RunGEL(ctx, "shared", "ann", "Load data from the file sales.csv", "")
	if err != nil {
		t.Fatal(err)
	}
	base := nodeOutput(loaded)

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.RunGEL(ctx, "shared", "ann",
				"Keep the rows where status = 'Successful'", base)
		}(i)
	}
	wg.Wait()

	succeeded, busy := 0, 0
	for i, err := range errs {
		switch {
		case err == nil:
			succeeded++
		case client.IsBusy(err):
			busy++
			if client.RetryAfter(err) <= 0 {
				t.Errorf("client %d: busy without retry_after hint", i)
			}
		default:
			t.Errorf("client %d: unexpected error %v", i, err)
		}
	}
	if succeeded == 0 {
		t.Fatal("no client succeeded")
	}
	if succeeded+busy != n {
		t.Fatalf("succeeded %d + busy %d != %d", succeeded, busy, n)
	}

	// Deterministic half: while a Block execution holds the session lock, a
	// concurrent request MUST come back as a typed 409 with a backoff hint.
	holding := make(chan error, 1)
	go func() {
		_, err := c.Run(ctx, "shared", wire.RunRequest{User: "ann", Program: program("Block", "hold")})
		holding <- err
	}()
	<-started
	_, err = c.RunGEL(ctx, "shared", "ann", "Keep the rows where status = 'Successful'", base)
	if !client.IsBusy(err) {
		t.Fatalf("run against held lock = %v, want busy", err)
	}
	if client.RetryAfter(err) <= 0 {
		t.Error("busy refusal carries no retry_after hint")
	}
	close(release)
	if err := <-holding; err != nil {
		t.Fatalf("lock-holding run: %v", err)
	}
	// The server's counter is the clients' view: every refusal above, once.
	if got := srv.Stats().Busy409; got != int64(busy)+1 {
		t.Fatalf("server counted %d busy refusals, clients saw %d", got, busy+1)
	}
}

// TestBusyRetryAbsorbsContention opts server-created sessions into §2.4
// bounded busy-retry under a virtual clock: every concurrent client succeeds
// and no 409 ever reaches the wire, without a single real sleep.
func TestBusyRetryAbsorbsContention(t *testing.T) {
	vc := faults.NewVirtualClock(time.Unix(0, 0))
	srv, c := newTestDeployment(t, server.Config{
		MaxInFlight: 16,
		MaxQueue:    32,
		Clock:       vc,
		// Virtual backoff returns at once, so the attempts are a spin count:
		// enough of them that the lock holder always finishes first, even
		// under -race on two cores.
		BusyRetry: faults.RetryPolicy{
			MaxAttempts: 1_000_000, BaseDelay: time.Millisecond,
			MaxDelay: 4 * time.Millisecond, Multiplier: 2,
		},
	})
	ctx := context.Background()
	if err := c.RegisterFile(ctx, "sales.csv", salesCSV); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSession(ctx, "shared", "ann"); err != nil {
		t.Fatal(err)
	}
	loaded, err := c.RunGEL(ctx, "shared", "ann", "Load data from the file sales.csv", "")
	if err != nil {
		t.Fatal(err)
	}
	base := nodeOutput(loaded)

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.RunGEL(ctx, "shared", "ann",
				"Keep the rows where status = 'Successful'", base)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}
	if got := srv.Stats().Busy409; got != 0 {
		t.Fatalf("busy 409s = %d, want 0 (absorbed by busy-retry)", got)
	}
	if vc.Slept() == 0 {
		t.Log("note: no backoff was needed (lock never contended)")
	}
}

// TestAdmissionControl429 pins the throttling contract: with one execution
// slot and no queue, a second concurrent run is refused with 429 and a
// Retry-After hint while the first still runs.
func TestAdmissionControl429(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	srv, c := newTestDeployment(t, server.Config{MaxInFlight: 1, MaxQueue: 0, RetryAfter: 2 * time.Second})
	registerBlockingSkill(t, srv.Platform(), started, release)
	ctx := context.Background()
	if _, err := c.CreateSession(ctx, "s1", "ann"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSession(ctx, "s2", "ann"); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := c.Run(ctx, "s1", wire.RunRequest{
			User: "ann", Program: program("Block", "b1"),
		})
		done <- err
	}()
	<-started // the first run holds the only slot

	_, err := c.Run(ctx, "s2", wire.RunRequest{User: "ann", Program: program("Block", "b2")})
	if !client.IsThrottled(err) {
		t.Fatalf("second run = %v, want throttled", err)
	}
	if ra := client.RetryAfter(err); ra != 2000 {
		t.Errorf("retry_after = %dms, want 2000", ra)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("first run: %v", err)
	}
	if got := srv.Stats().Throttled429; got != 1 {
		t.Fatalf("throttled count = %d, want 1", got)
	}
}

// TestDeadlineExpiresTo504 drives a transiently failing skill under a
// virtual clock: retry backoff crosses the request deadline, the executor
// reports faults.ErrDeadline, and the wire maps it to a typed 504 — all
// without a real sleep.
func TestDeadlineExpiresTo504(t *testing.T) {
	vc := faults.NewVirtualClock(time.Unix(0, 0))
	srv, c := newTestDeployment(t, server.Config{
		MaxInFlight: 4,
		Clock:       vc,
		Retry: faults.RetryPolicy{
			MaxAttempts: 10, BaseDelay: 60 * time.Millisecond,
			MaxDelay: time.Second, Multiplier: 2,
		},
	})
	err := srv.Platform().Registry.Register(&skills.Definition{
		Name:     "Flaky",
		Category: skills.DataWrangling,
		Summary:  "test skill: always fails transiently",
		Volatile: true,
		Apply: func(ctx *skills.Context, inv skills.Invocation) (*skills.Result, error) {
			return nil, &faults.Error{Op: "scan", Target: "flaky", Kind: faults.Throttled, Class: faults.Transient}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.CreateSession(ctx, "s1", "ann"); err != nil {
		t.Fatal(err)
	}

	_, err = c.Run(ctx, "s1", wire.RunRequest{
		User: "ann", Program: program("Flaky", "f1"), DeadlineMs: 100,
	})
	if !client.IsDeadline(err) {
		t.Fatalf("run = %v, want deadline error", err)
	}
	if got := srv.Stats().Deadline504; got != 1 {
		t.Fatalf("deadline 504s = %d, want 1", got)
	}
	if vc.Slept() == 0 {
		t.Fatal("no virtual backoff was taken before the deadline fired")
	}
}

// TestDrainOnShutdown pins graceful drain: an in-flight execution completes,
// new work is refused with a typed 503, and Shutdown returns once the last
// slot frees.
func TestDrainOnShutdown(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	srv, c := newTestDeployment(t, server.Config{MaxInFlight: 2})
	registerBlockingSkill(t, srv.Platform(), started, release)
	ctx := context.Background()
	if _, err := c.CreateSession(ctx, "s1", "ann"); err != nil {
		t.Fatal(err)
	}

	inFlight := make(chan error, 1)
	go func() {
		_, err := c.Run(ctx, "s1", wire.RunRequest{User: "ann", Program: program("Block", "b1")})
		inFlight <- err
	}()
	<-started

	drained := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- srv.Shutdown(sctx)
	}()
	// Wait until the drain flag is visible, then verify refusal.
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}
	_, err := c.Run(ctx, "s1", wire.RunRequest{User: "ann", Program: program("Block", "b2")})
	if !client.IsDraining(err) {
		t.Fatalf("run during drain = %v, want draining error", err)
	}
	if err := c.Health(ctx); !client.IsDraining(err) && err == nil {
		t.Fatalf("healthz during drain = %v, want non-nil", err)
	}

	select {
	case err := <-drained:
		t.Fatalf("Shutdown returned %v before in-flight work finished", err)
	default:
	}
	close(release)
	if err := <-inFlight; err != nil {
		t.Fatalf("in-flight run failed across drain: %v", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := srv.Stats().Draining503; got == 0 {
		t.Fatal("draining refusals were not counted")
	}
}

// TestDegradedPropagatesOverWire pins §2.3 transparency end to end: a
// degraded skill result crosses the wire with its note, the artifact saved
// from it stays marked, and the executor counter surfaces in /statsz.
func TestDegradedPropagatesOverWire(t *testing.T) {
	srv, c := newTestDeployment(t, server.Config{})
	err := srv.Platform().Registry.Register(&skills.Definition{
		Name:     "StaleRead",
		Category: skills.DataWrangling,
		Summary:  "test skill: serves a degraded result",
		Volatile: true,
		Apply: func(ctx *skills.Context, inv skills.Invocation) (*skills.Result, error) {
			tab, err := dataset.NewTable(inv.Output, dataset.IntColumn("v", []int64{7}, nil))
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
	if _, err := c.CreateSession(ctx, "s1", "ann"); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Run(ctx, "s1", wire.RunRequest{User: "ann", Program: program("StaleRead", "d1")})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Result.Degraded || !strings.Contains(resp.Result.DegradedNote, "snapshot") {
		t.Fatalf("result = %+v, want degraded with note", resp.Result)
	}
	a, err := c.SaveArtifact(ctx, "s1", wire.SaveArtifactRequest{User: "ann", Name: "stale", Output: "d1"})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Degraded || a.DegradedNote == "" {
		t.Fatalf("artifact = %+v, want degradation preserved", a)
	}
	stats, err := c.Statsz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Exec["degraded"] == 0 {
		t.Fatal("statsz does not count the degraded execution")
	}
}

// TestSaveArtifactRacesRun hammers one session with concurrent runs,
// artifact saves, and info reads. Saves resolve their anchor step inside the
// session under the §2.4 lock and the DAG is internally synchronized, so
// under -race none of this may trip the detector; every response must be a
// success or a typed busy refusal.
func TestSaveArtifactRacesRun(t *testing.T) {
	_, c := newTestDeployment(t, server.Config{MaxInFlight: 16, MaxQueue: 32})
	ctx := context.Background()
	if err := c.RegisterFile(ctx, "sales.csv", salesCSV); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSession(ctx, "racy", "ann"); err != nil {
		t.Fatal(err)
	}
	loaded, err := c.RunGEL(ctx, "racy", "ann", "Load data from the file sales.csv", "")
	if err != nil {
		t.Fatal(err)
	}
	base := nodeOutput(loaded)

	const n = 6
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := c.RunGEL(ctx, "racy", "ann",
				"Keep the rows where status = 'Successful'", base)
			if err != nil && !client.IsBusy(err) {
				t.Errorf("run %d: %v", i, err)
			}
		}(i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := c.SaveArtifact(ctx, "racy", wire.SaveArtifactRequest{
				User: "ann", Name: fmt.Sprintf("racy-%d", i),
			})
			if err != nil && !client.IsBusy(err) {
				t.Errorf("save %d: %v", i, err)
			}
		}(i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.SessionInfo(ctx, "racy"); err != nil {
				t.Errorf("info %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	// With the session quiet, a save anchored at the latest step must land.
	a, err := c.SaveArtifact(ctx, "racy", wire.SaveArtifactRequest{User: "ann", Name: "final"})
	if err != nil {
		t.Fatalf("final save: %v", err)
	}
	if a.Recipe == nil || len(a.Recipe.Steps) == 0 {
		t.Fatalf("artifact = %+v, want a sliced recipe", a)
	}
}

// TestSessionShareOverWire pins remote permission grants: a non-member is
// denied with 403 until the owner shares edit access over the wire.
func TestSessionShareOverWire(t *testing.T) {
	_, c := newTestDeployment(t, server.Config{})
	ctx := context.Background()
	if err := c.RegisterFile(ctx, "sales.csv", salesCSV); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSession(ctx, "s1", "ann"); err != nil {
		t.Fatal(err)
	}
	_, err := c.RunGEL(ctx, "s1", "bob", "Load data from the file sales.csv", "")
	if e, ok := err.(*wire.Error); !ok || e.Status != 403 {
		t.Fatalf("outsider run = %v, want 403", err)
	}
	if err := c.ShareSession(ctx, "s1", "ann", "bob", "edit"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunGEL(ctx, "s1", "bob", "Load data from the file sales.csv", ""); err != nil {
		t.Fatalf("member run after share: %v", err)
	}
	info, err := c.SessionInfo(ctx, "s1")
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Members) != 2 {
		t.Fatalf("members = %v, want ann and bob", info.Members)
	}
}

// ordersCSV builds a cloud fixture large enough that its estimated scan
// dwarfs a one-kilobyte request budget.
func ordersCSV(rows int) string {
	var sb strings.Builder
	sb.WriteString("id,region,amount\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "%d,region-%d,%d\n", i, i%7, i*3)
	}
	return sb.String()
}

// TestCostBudgetOverWire pins the §3 budget knob end to end: a request whose
// estimated scan exceeds cost_budget_bytes gets a block-sampled answer that
// is flagged degraded with the substitution note and a cost summary showing
// the scan reduction; the same scan unbudgeted stays exact; the planner's
// scan estimate matches what the warehouse meter then charges at every
// budget rung; and the degraded answer is never served from cache on a
// repeat run.
func TestCostBudgetOverWire(t *testing.T) {
	srv, c := newTestDeployment(t, server.Config{})
	// 2 000 blocks: a sample reads whole blocks, and this keeps that
	// rounding under 1 % of the scan down to the 5 % rung.
	db := cloud.NewDatabase("warehouse", cloud.DefaultPricing, 16)
	tab, err := dataset.ReadCSVString("orders", ordersCSV(32_000))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(tab); err != nil {
		t.Fatal(err)
	}
	if err := srv.Platform().ConnectDatabase(db); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.CreateSession(ctx, "s1", "ann"); err != nil {
		t.Fatal(err)
	}
	load := func(output string) []recipe.Step {
		return []recipe.Step{{
			Skill:  "LoadTable",
			Args:   skills.Args{"database": "warehouse", "table": "orders"},
			Output: output,
		}}
	}

	exact, err := c.Run(ctx, "s1", wire.RunRequest{User: "ann", Program: load("full")})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Result.Degraded {
		t.Fatalf("unbudgeted run degraded: %q", exact.Result.DegradedNote)
	}
	if exact.Cost == nil || exact.Cost.EstScanBytes <= 0 || exact.Cost.Substituted != 0 {
		t.Fatalf("unbudgeted cost summary = %+v, want positive scan estimate, no substitution", exact.Cost)
	}
	full := db.Meter().BytesScanned()
	if full != exact.Cost.EstScanBytes {
		t.Fatalf("full scan: meter charged %d bytes, planner estimated %d", full, exact.Cost.EstScanBytes)
	}

	// The budget gate decides on the estimate, so the estimate has to be
	// what the warehouse charges: the ladder halves, fifths and twentieths
	// the scan, and at each rung the meter lands within 1 % of the estimate
	// and inside the budget by the same margin.
	for i, div := range []int64{2, 5, 20} {
		budget := full / div
		before := db.Meter().BytesScanned()
		resp, err := c.Run(ctx, "s1", wire.RunRequest{
			User: "ann", Program: load(fmt.Sprintf("rung%d", i)), CostBudgetBytes: budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		charged := db.Meter().BytesScanned() - before
		if !resp.Result.Degraded || resp.Cost == nil {
			t.Fatalf("budget 1/%d: degraded=%v cost=%+v, want a degraded, costed answer", div, resp.Result.Degraded, resp.Cost)
		}
		est := resp.Cost.EstScanBytes
		if diff := charged - est; diff*100 >= est || -diff*100 >= est {
			t.Errorf("budget 1/%d: meter charged %d bytes, planner estimated %d — off by 1 %% or more", div, charged, est)
		}
		if charged*100 > budget*101 {
			t.Errorf("budget 1/%d: meter charged %d bytes against a %d-byte budget", div, charged, budget)
		}
	}

	budgeted, err := c.Run(ctx, "s1", wire.RunRequest{
		User: "ann", Program: load("sampled"), CostBudgetBytes: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !budgeted.Result.Degraded || !strings.Contains(budgeted.Result.DegradedNote, "block sample") {
		t.Fatalf("budgeted result = degraded=%v note=%q, want degraded block-sample note",
			budgeted.Result.Degraded, budgeted.Result.DegradedNote)
	}
	if budgeted.Cost == nil || budgeted.Cost.Substituted == 0 || budgeted.Cost.BudgetBytes != 1024 {
		t.Fatalf("budgeted cost summary = %+v, want substituted with budget echo", budgeted.Cost)
	}
	if budgeted.Cost.EstScanBytes*2 > exact.Cost.EstScanBytes {
		t.Fatalf("estimated scan %d not reduced >=2x from %d",
			budgeted.Cost.EstScanBytes, exact.Cost.EstScanBytes)
	}

	// The sampled scan is keyless (volatile, refingerprinted), so a repeat
	// can only re-execute — never a silent cache hit of a degraded answer.
	repeat, err := c.Run(ctx, "s1", wire.RunRequest{
		User: "ann", Program: load("sampled2"), CostBudgetBytes: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !repeat.Result.Degraded {
		t.Fatal("repeat budgeted run lost the degraded flag (cached?)")
	}

	// Negative budgets are refused at the door.
	if _, err := c.Run(ctx, "s1", wire.RunRequest{
		User: "ann", Program: load("bad"), CostBudgetBytes: -5,
	}); err == nil {
		t.Fatal("negative cost_budget_bytes accepted")
	}
}

// TestDefaultCostBudgetConfig pins the server-wide default: with
// DefaultCostBudgetBytes configured, a request that sets no budget of its own
// still gets the substitution, while an explicit per-request budget overrides
// the default.
func TestDefaultCostBudgetConfig(t *testing.T) {
	srv, c := newTestDeployment(t, server.Config{DefaultCostBudgetBytes: 1024})
	db := cloud.NewDatabase("warehouse", cloud.DefaultPricing, 64)
	tab, err := dataset.ReadCSVString("orders", ordersCSV(4000))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(tab); err != nil {
		t.Fatal(err)
	}
	if err := srv.Platform().ConnectDatabase(db); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.CreateSession(ctx, "s1", "ann"); err != nil {
		t.Fatal(err)
	}
	steps := []recipe.Step{{
		Skill:  "LoadTable",
		Args:   skills.Args{"database": "warehouse", "table": "orders"},
		Output: "d1",
	}}
	resp, err := c.Run(ctx, "s1", wire.RunRequest{User: "ann", Program: steps})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Result.Degraded || resp.Cost == nil || resp.Cost.Substituted == 0 {
		t.Fatalf("default budget did not substitute: degraded=%v cost=%+v",
			resp.Result.Degraded, resp.Cost)
	}
	if resp.Cost.BudgetBytes != 1024 {
		t.Fatalf("budget echo = %d, want 1024", resp.Cost.BudgetBytes)
	}

	// A generous explicit budget overrides the tight default.
	steps[0].Output = "d2"
	resp, err = c.Run(ctx, "s1", wire.RunRequest{
		User: "ann", Program: steps, CostBudgetBytes: 1 << 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result.Degraded || (resp.Cost != nil && resp.Cost.Substituted != 0) {
		t.Fatalf("explicit ample budget still degraded: %+v", resp.Cost)
	}
}

// TestArtifactExecutionsRetryTransientScans pins that the server's execution
// policy covers artifact executions too: Config.Retry is documented as
// applied to every remote execution, and a refresh or a save whose source
// changed — its scan keyed by the new content, so it must re-run — is as
// exposed to a transient scan fault as a run request is.
func TestArtifactExecutionsRetryTransientScans(t *testing.T) {
	vc := faults.NewVirtualClock(time.Unix(0, 0))
	srv, c := newTestDeployment(t, server.Config{
		Clock: vc,
		Retry: faults.RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond},
	})
	db := cloud.NewDatabase("warehouse", cloud.DefaultPricing, 64)
	tab, err := dataset.ReadCSVString("orders", ordersCSV(50))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(tab); err != nil {
		t.Fatal(err)
	}
	// Scan 1 is the session's own load; scan 2 is the refresh's first attempt
	// and scan 4 the save's, each failing once with a transient fault.
	inj := faults.NewInjector(faults.Schedule{
		Ops:     map[string]bool{"scan": true},
		FailOps: map[int]faults.Kind{2: faults.Throttled, 4: faults.Throttled},
	}, vc)
	if err := srv.Platform().ConnectDatabase(faults.WrapDB(db, inj)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.CreateSession(ctx, "s1", "ann"); err != nil {
		t.Fatal(err)
	}
	load := []recipe.Step{{Skill: "LoadTable", Output: "orders",
		Args: skills.Args{"database": "warehouse", "table": "orders"}}}
	if _, err := c.Run(ctx, "s1", wire.RunRequest{User: "ann", Program: load}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SaveArtifact(ctx, "s1", wire.SaveArtifactRequest{User: "ann", Name: "orders-art"}); err != nil {
		t.Fatal(err)
	}
	if got := inj.Ops(); got != 1 {
		t.Fatalf("setup scanned %d times, want 1 (the save republishes from cache)", got)
	}

	replace := func(rows int) {
		t.Helper()
		tab, err := dataset.ReadCSVString("orders", ordersCSV(rows))
		if err != nil {
			t.Fatal(err)
		}
		if err := db.ReplaceTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	replace(60)
	a, err := c.RefreshArtifact(ctx, "orders-art", "ann", "s1")
	if err != nil {
		t.Fatalf("refresh over a transiently failing scan: %v (Config.Retry not applied?)", err)
	}
	if a.Table == nil || a.Table.TotalRows != 60 {
		t.Fatalf("refreshed artifact table = %+v, want the replaced table's 60 rows", a.Table)
	}

	replace(70)
	saved, err := c.SaveArtifact(ctx, "s1", wire.SaveArtifactRequest{User: "ann", Name: "orders-art-2"})
	if err != nil {
		t.Fatalf("save over a transiently failing scan: %v (Config.Retry not applied?)", err)
	}
	if saved.Table == nil || saved.Table.TotalRows != 70 {
		t.Fatalf("saved artifact table = %+v, want the replaced table's 70 rows", saved.Table)
	}
	if transient, _ := inj.Counts(); transient != 2 || inj.Ops() != 5 {
		t.Fatalf("injected %d transient faults over %d scans, want 2 over 5", transient, inj.Ops())
	}
	if vc.Slept() == 0 {
		t.Fatal("no retry backoff was taken on the server's clock")
	}
}

// TestRefreshArtifactAbortsWhenClientGoesAway pins that an artifact replay
// runs under its request's context: a client that cancels while the replay is
// backing off between retries frees the session lock at once instead of
// holding it for the rest of the retry budget.
func TestRefreshArtifactAbortsWhenClientGoesAway(t *testing.T) {
	srv, c := newTestDeployment(t, server.Config{
		// ~100 s of retrying if nothing aborts it.
		Retry: faults.RetryPolicy{MaxAttempts: 1000, BaseDelay: 100 * time.Millisecond, MaxDelay: 100 * time.Millisecond},
	})
	var failing atomic.Bool
	attempts := make(chan struct{}, 1000)
	err := srv.Platform().Registry.Register(&skills.Definition{
		Name:     "Flaky",
		Category: skills.DataWrangling,
		Summary:  "test skill: fails transiently while the test says so",
		Volatile: true,
		Apply: func(ctx *skills.Context, inv skills.Invocation) (*skills.Result, error) {
			if failing.Load() {
				attempts <- struct{}{}
				return nil, &faults.Error{Op: "scan", Target: "flaky", Kind: faults.Throttled, Class: faults.Transient}
			}
			tab, err := dataset.NewTable(inv.Output, dataset.IntColumn("ok", []int64{1}, nil))
			return &skills.Result{Table: tab}, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.CreateSession(ctx, "s1", "ann"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(ctx, "s1", wire.RunRequest{User: "ann", Program: program("Flaky", "f1")}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SaveArtifact(ctx, "s1", wire.SaveArtifactRequest{User: "ann", Name: "flaky-art"}); err != nil {
		t.Fatal(err)
	}

	failing.Store(true)
	rctx, cancel := context.WithCancel(ctx)
	refreshed := make(chan error, 1)
	go func() {
		_, err := c.RefreshArtifact(rctx, "flaky-art", "ann", "s1")
		refreshed <- err
	}()
	// Two attempts in: the replay is retrying under the server's policy.
	for i := 0; i < 2; i++ {
		select {
		case <-attempts:
		case err := <-refreshed:
			t.Fatalf("refresh gave up after %d attempts with %v (Config.Retry not applied?)", i, err)
		}
	}
	cancel()
	if err := <-refreshed; err == nil {
		t.Fatal("cancelled refresh reported success")
	}
	failing.Store(false)
	// The session lock comes free as soon as the server notices the client is
	// gone — not after the remaining retry budget.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := c.Run(ctx, "s1", wire.RunRequest{User: "ann", Program: program("Flaky", "f2")})
		if err == nil {
			return
		}
		if !client.IsBusy(err) || time.Now().After(deadline) {
			t.Fatalf("run after cancelled refresh = %v, want the session lock free within seconds", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
