package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"datachat/internal/cloud"
	"datachat/internal/dataset"
	"datachat/internal/session"
	"datachat/internal/skills"
)

func seedTable() *dataset.Table {
	n := 400
	ids := make([]int64, n)
	vals := make([]float64, n)
	cats := make([]string, n)
	for i := range ids {
		ids[i] = int64(i)
		vals[i] = float64(i % 13)
		cats[i] = string(rune('a' + i%5))
	}
	return dataset.MustNewTable("people",
		dataset.IntColumn("id", ids, nil),
		dataset.FloatColumn("v", vals, nil),
		dataset.StringColumn("cat", cats, nil),
	)
}

// runWorkload issues the same two requests every concurrent session makes:
// a relational filter, then an aggregation over its output.
func runWorkload(s *session.Session, user string) (*skills.Result, error) {
	if _, _, err := s.Request(user, skills.Invocation{Skill: "KeepRows",
		Inputs: []string{"people"}, Args: skills.Args{"condition": "v > 3"}, Output: "f"}); err != nil {
		return nil, err
	}
	res, _, err := s.Request(user, skills.Invocation{Skill: "Compute",
		Inputs: []string{"f"}, Args: skills.Args{"aggregates": []string{"sum of v as total"}, "for_each": []string{"cat"}}, Output: "agg"})
	return res, err
}

// TestConcurrentSessionsShareOnePlatform exercises the tentpole concurrency
// model under -race: N goroutines concurrently create sessions on one
// Platform and run identical workloads. Distinct sessions execute in
// parallel (no ErrBusy across sessions), produce identical results, and the
// shared sub-DAG cache deduplicates the work — the first session computes,
// the rest hit or join in-flight executions.
func TestConcurrentSessionsShareOnePlatform(t *testing.T) {
	p := New()
	const n = 8
	var wg sync.WaitGroup
	results := make([]*skills.Result, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := p.CreateSession(fmt.Sprintf("s%d", i), "user")
			if err != nil {
				errs[i] = err
				return
			}
			// Seeding touches only this session's private context.
			s.Context().Datasets["people"] = seedTable()
			results[i], errs[i] = runWorkload(s, "user")
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if !results[0].Table.Equal(results[i].Table) {
			t.Fatalf("session %d result differs from session 0", i)
		}
	}
	cs := p.CacheStats()
	// The workload has two cacheable tasks (the filter chain and the
	// aggregation); every other lookup across all n sessions must be served
	// by the shared cache or a shared in-flight execution.
	if cs.Misses > 2 {
		t.Errorf("cache misses = %d, want <= 2 (shared cache should deduplicate)", cs.Misses)
	}
	if cs.Hits < int64(n) {
		t.Errorf("cache hits = %d, want >= %d", cs.Hits, n)
	}
}

// TestSessionLockStillFailsConcurrentRequests pins the §2.4 semantics the
// parallel engine must preserve: within one session, a request that arrives
// while another is executing fails fast with ErrBusy — concurrency lives
// across sessions and across DAG branches, never across requests in a
// session.
func TestSessionLockStillFailsConcurrentRequests(t *testing.T) {
	p := New()
	s, err := p.CreateSession("locked", "ann")
	if err != nil {
		t.Fatal(err)
	}
	s.Context().Datasets["people"] = seedTable()

	const attempts = 64
	var wg sync.WaitGroup
	var busy, ok, other int
	var mu sync.Mutex
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, err := s.Request("ann", skills.Invocation{Skill: "KeepRows",
				Inputs: []string{"people"},
				Args:   skills.Args{"condition": fmt.Sprintf("v > %d", i%11)},
				Output: fmt.Sprintf("out%d", i)})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				ok++
			case errors.Is(err, session.ErrBusy):
				busy++
			default:
				other++
			}
		}(i)
	}
	wg.Wait()
	if other != 0 {
		t.Errorf("unexpected errors: %d", other)
	}
	if ok == 0 {
		t.Error("no request succeeded")
	}
	if ok+busy != attempts {
		t.Errorf("ok=%d busy=%d, want %d total", ok, busy, attempts)
	}
}

// TestConcurrentSessionsWithDifferentData verifies the cache-correctness
// half of the tentpole: two sessions holding *different* content under the
// same dataset name must not serve each other's results from the shared
// cache, because keys carry content fingerprints.
func TestConcurrentSessionsWithDifferentData(t *testing.T) {
	p := New()
	mk := func(name string, scale float64) *session.Session {
		s, err := p.CreateSession(name, "user")
		if err != nil {
			t.Fatal(err)
		}
		n := 100
		ids := make([]int64, n)
		vals := make([]float64, n)
		cats := make([]string, n)
		for i := range ids {
			ids[i] = int64(i)
			vals[i] = float64(i%13) * scale
			cats[i] = "x"
		}
		s.Context().Datasets["people"] = dataset.MustNewTable("people",
			dataset.IntColumn("id", ids, nil),
			dataset.FloatColumn("v", vals, nil),
			dataset.StringColumn("cat", cats, nil),
		)
		return s
	}
	a := mk("a", 1)
	b := mk("b", 100)

	var wg sync.WaitGroup
	var resA, resB *skills.Result
	var errA, errB error
	wg.Add(2)
	go func() { defer wg.Done(); resA, errA = runWorkload(a, "user") }()
	go func() { defer wg.Done(); resB, errB = runWorkload(b, "user") }()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if resA.Table.Equal(resB.Table) {
		t.Fatal("sessions with different data under the same name shared a cached result")
	}
	expected := func(scale float64) float64 {
		var sum float64
		for i := 0; i < 100; i++ {
			if v := float64(i%13) * scale; v > 3 {
				sum += v
			}
		}
		return sum
	}
	for _, tc := range []struct {
		res   *skills.Result
		scale float64
	}{{resA, 1}, {resB, 100}} {
		col, err := tc.res.Table.Column("total")
		if err != nil {
			t.Fatal(err)
		}
		if got := col.Value(0).F; got != expected(tc.scale) {
			t.Errorf("total at scale %v = %v, want %v", tc.scale, got, expected(tc.scale))
		}
	}
}

// TestConcurrentCreateAndList hammers the platform-level maps while
// sessions run, for the race detector's benefit.
func TestConcurrentCreateAndList(t *testing.T) {
	p := New()
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("sess%d", i)
			s, err := p.CreateSession(name, "user")
			if err != nil {
				t.Error(err)
				return
			}
			s.Context().Datasets["people"] = seedTable()
			if _, err := runWorkload(s, "user"); err != nil {
				t.Error(err)
			}
			p.Sessions()
			if _, err := p.Session(name); err != nil {
				t.Error(err)
			}
			p.CacheStats()
		}(i)
	}
	wg.Wait()
	if got := len(p.Sessions()); got != 12 {
		t.Errorf("sessions = %d, want 12", got)
	}
}

// TestExplainDuringTunedRun pins that a request's options are arguments of
// its run and nothing else's: EXPLAIN takes no §2.4 lock, so it plans beside
// a budgeted run on the same session — under -race that must not be a data
// race on executor state, and the EXPLAIN, issued with no budget, must never
// be planned with the running request's (the sample-substitute pass must not
// fire). Both loops are bounded by the runner's iteration count; the
// explainer keeps going until the runner is done, so they always overlap.
func TestExplainDuringTunedRun(t *testing.T) {
	p := New()
	db := cloud.NewDatabase("wh", cloud.DefaultPricing, 16)
	if err := db.CreateTable(seedTable().WithName("orders")); err != nil {
		t.Fatal(err)
	}
	if err := p.ConnectDatabase(db); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CreateSession("s", "ann"); err != nil {
		t.Fatal(err)
	}
	load := skills.Invocation{Skill: "LoadTable", Args: skills.Args{"database": "wh", "table": "orders"}}
	if _, err := p.Run("s", "ann", load); err != nil {
		t.Fatal(err)
	}

	const runs = 100
	done := make(chan struct{})
	var runErr error
	go func() {
		defer close(done)
		tune := &session.Tuning{CostBudgetBytes: 64}
		for i := 0; i < runs; i++ {
			res, _, err := p.RunCtx(context.Background(), "s", "ann", tune, load)
			if err != nil {
				runErr = err
				return
			}
			if !res.Degraded {
				runErr = fmt.Errorf("run %d under a 64-byte budget was not degraded", i)
				return
			}
		}
	}()
	for explains := 0; ; explains++ {
		ex, err := p.Explain("s", "")
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range ex.Passes {
			if tr.Pass == "sample-substitute" && tr.Fired {
				t.Fatalf("explain %d with no budget was planned under the running request's budget: %+v", explains, tr)
			}
		}
		select {
		case <-done:
			if runErr != nil {
				t.Fatal(runErr)
			}
			return
		default:
		}
	}
}
