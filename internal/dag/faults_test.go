package dag

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"datachat/internal/dataset"
	"datachat/internal/faults"
	"datachat/internal/skills"
)

// These tests pin the executor's fault-tolerance contract: transient task
// failures are retried (with all waiting on a virtual clock), permanent
// failures cancel in-flight sibling retries and surface the real cause,
// retry time is bounded by the run deadline, and degraded results are never
// stored in the sub-DAG cache.

// faultReg returns a registry with the built-in skills plus the given custom
// test skills.
func faultReg(t *testing.T, defs ...*skills.Definition) *skills.Registry {
	t.Helper()
	r := skills.NewRegistry()
	for _, def := range defs {
		if err := r.Register(def); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// passthrough returns inv's first input unchanged.
func passthrough(ctx *skills.Context, inv skills.Invocation) (*skills.Result, error) {
	tb, err := ctx.Dataset(inv.Inputs[0])
	if err != nil {
		return nil, err
	}
	return &skills.Result{Table: tb}, nil
}

// TestRetryRecoversTransientTaskFailure: a task failing twice with a
// transient fault recovers under ExecOptions.Retry and yields the same
// result as a fault-free run, with the retries visible in Stats and all
// backoff on the virtual clock.
func TestRetryRecoversTransientTaskFailure(t *testing.T) {
	var calls atomic.Int32
	reg2 := faultReg(t, &skills.Definition{
		Name: "FlakyScan", Summary: "fails twice, then passes through",
		Apply: func(ctx *skills.Context, inv skills.Invocation) (*skills.Result, error) {
			if calls.Add(1) <= 2 {
				return nil, &faults.Error{Op: "scan", Target: inv.Inputs[0], Kind: faults.Throttled, Class: faults.Transient}
			}
			return passthrough(ctx, inv)
		},
	})
	build := func() (*Graph, NodeID) {
		g := NewGraph()
		g.Add(skills.Invocation{Skill: "FlakyScan", Inputs: []string{"base"}, Output: "loaded"})
		last := g.Add(skills.Invocation{Skill: "KeepRows", Inputs: []string{"loaded"},
			Args: skills.Args{"condition": "id < 5"}, Output: "few"})
		return g, last
	}

	clock := faults.NewVirtualClock(time.Unix(0, 0))
	ex := NewExecutor(reg2, newCtx(t))
	opts := ExecOptions{
		Retry: faults.RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond,
			MaxDelay: time.Second, Multiplier: 2, JitterFrac: 0.3, Seed: 9},
		Clock: clock,
	}
	g, last := build()
	res, _, err := ex.RunWith(context.Background(), g, last, opts)
	if err != nil {
		t.Fatalf("run with retries: %v", err)
	}
	if res.Table.NumRows() != 5 {
		t.Errorf("rows = %d, want 5", res.Table.NumRows())
	}
	if got := ex.Stats().Retries; got != 2 {
		t.Errorf("Stats.Retries = %d, want 2", got)
	}
	if clock.Slept() <= 0 {
		t.Error("retries did not wait on the virtual clock")
	}

	// The zero policy fails fast on the first transient error.
	calls.Store(0)
	ex2 := NewExecutor(reg2, newCtx(t))
	g2, last2 := build()
	_, err = ex2.Run(g2, last2)
	if !faults.IsTransient(err) {
		t.Fatalf("zero policy: err = %v, want the transient fault", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("zero policy attempted %d times, want 1", got)
	}
	if got := ex2.Stats().Retries; got != 0 {
		t.Errorf("zero policy Stats.Retries = %d", got)
	}
}

// TestPermanentFailureCancelsSiblingRetries: when one branch fails
// permanently, a sibling branch spinning on transient retries is cancelled
// instead of running out its (enormous) retry budget, and the run reports
// the permanent fault — not the sibling's collateral context.Canceled.
func TestPermanentFailureCancelsSiblingRetries(t *testing.T) {
	permErr := &faults.Error{Op: "scan", Target: "gone", Kind: faults.Unavailable, Class: faults.Permanent}
	var spins atomic.Int32
	reg2 := faultReg(t,
		&skills.Definition{
			Name: "PermFail", Summary: "always fails permanently",
			Apply: func(ctx *skills.Context, inv skills.Invocation) (*skills.Result, error) {
				return nil, permErr
			},
		},
		&skills.Definition{
			Name: "SpinTransient", Summary: "always fails transiently",
			Apply: func(ctx *skills.Context, inv skills.Invocation) (*skills.Result, error) {
				spins.Add(1)
				return nil, &faults.Error{Op: "scan", Target: inv.Inputs[0], Kind: faults.BlockIO, Class: faults.Transient}
			},
		},
		&skills.Definition{
			Name: "Pair", Summary: "joins two branches",
			Apply: func(ctx *skills.Context, inv skills.Invocation) (*skills.Result, error) {
				return passthrough(ctx, inv)
			},
		},
	)
	g := NewGraph()
	g.Add(skills.Invocation{Skill: "PermFail", Inputs: []string{"base"}, Output: "a"})
	g.Add(skills.Invocation{Skill: "SpinTransient", Inputs: []string{"base"}, Output: "b"})
	last := g.Add(skills.Invocation{Skill: "Pair", Inputs: []string{"a", "b"}, Output: "joined"})

	ex := NewExecutor(reg2, newCtx(t))
	opts := ExecOptions{
		Parallelism: 2,
		// The spinner's budget is effectively unbounded: only cancellation by
		// the sibling's permanent failure can stop it promptly.
		Retry: faults.RetryPolicy{MaxAttempts: 1 << 20, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
		Clock: faults.NewVirtualClock(time.Unix(0, 0)),
	}
	_, _, err := ex.RunWith(context.Background(), g, last, opts)
	if !errors.Is(err, permErr) {
		t.Fatalf("err = %v, want the permanent fault", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("run surfaced the collateral cancellation, not the cause: %v", err)
	}
	if got := ex.Stats().PermanentFailures; got != 1 {
		t.Errorf("Stats.PermanentFailures = %d, want 1", got)
	}
	if got := spins.Load(); got >= 1<<20 {
		t.Errorf("sibling was not cancelled: %d attempts", got)
	}
}

// TestRunDeadlineBoundsRetryTime: a persistently transient task stops
// retrying once the next backoff would cross ExecOptions.Deadline; total
// virtual retry time stays within the budget.
func TestRunDeadlineBoundsRetryTime(t *testing.T) {
	reg2 := faultReg(t, &skills.Definition{
		Name: "AlwaysThrottled", Summary: "never succeeds",
		Apply: func(ctx *skills.Context, inv skills.Invocation) (*skills.Result, error) {
			return nil, &faults.Error{Op: "scan", Target: inv.Inputs[0], Kind: faults.Throttled, Class: faults.Transient}
		},
	})
	g := NewGraph()
	last := g.Add(skills.Invocation{Skill: "AlwaysThrottled", Inputs: []string{"base"}, Output: "x"})

	start := time.Unix(50, 0)
	clock := faults.NewVirtualClock(start)
	const budget = 200 * time.Millisecond
	ex := NewExecutor(reg2, newCtx(t))
	opts := ExecOptions{
		Retry: faults.RetryPolicy{MaxAttempts: 1000, BaseDelay: 10 * time.Millisecond,
			MaxDelay: 50 * time.Millisecond, Multiplier: 2, JitterFrac: 0.2, Seed: 3},
		Deadline: budget,
		Clock:    clock,
	}
	_, _, err := ex.RunWith(context.Background(), g, last, opts)
	if err == nil {
		t.Fatal("run against an always-failing task succeeded")
	}
	if !strings.Contains(err.Error(), "deadline") {
		t.Errorf("err = %v, want a retry-deadline error", err)
	}
	if !faults.IsTransient(err) {
		t.Errorf("deadline error lost the transient cause: %v", err)
	}
	if clock.Slept() > budget {
		t.Errorf("virtual retry time %v exceeds the %v deadline", clock.Slept(), budget)
	}
	if clock.Now().After(start.Add(budget)) {
		t.Errorf("virtual clock %v passed the deadline %v", clock.Now(), start.Add(budget))
	}
}

// TestDegradedResultNotCached: a cacheable task returning a degraded result
// is re-executed on the next run — the fallback answer never enters the
// sub-DAG cache under the exact-result fingerprint — while an identical
// exact result is cached as usual.
func TestDegradedResultNotCached(t *testing.T) {
	sample := dataset.MustNewTable("s", dataset.IntColumn("x", []int64{1, 2, 3}, nil))
	var degradedCalls, exactCalls atomic.Int32
	reg2 := faultReg(t,
		&skills.Definition{
			Name: "DegradedSrc", Summary: "always returns a fallback sample",
			Apply: func(ctx *skills.Context, inv skills.Invocation) (*skills.Result, error) {
				degradedCalls.Add(1)
				return &skills.Result{Table: sample, Degraded: true,
					DegradedNote: "block sample at rate 0.1", Message: "degraded"}, nil
			},
		},
		&skills.Definition{
			Name: "ExactSrc", Summary: "same shape, exact",
			Apply: func(ctx *skills.Context, inv skills.Invocation) (*skills.Result, error) {
				exactCalls.Add(1)
				return &skills.Result{Table: sample}, nil
			},
		},
	)

	ex := NewExecutor(reg2, newCtx(t))
	g := NewGraph()
	last := g.Add(skills.Invocation{Skill: "DegradedSrc", Inputs: []string{"base"}, Output: "d"})
	for run := 1; run <= 2; run++ {
		res, err := ex.Run(g, last)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Degraded || res.DegradedNote == "" {
			t.Fatalf("run %d: degraded annotation lost: %+v", run, res)
		}
		if got := ex.Cache().Len(); got != 0 {
			t.Fatalf("run %d: degraded result entered the cache (len %d)", run, got)
		}
	}
	if got := degradedCalls.Load(); got != 2 {
		t.Errorf("degraded task executed %d times, want 2 (no cache reuse)", got)
	}
	st := ex.Stats()
	if st.Degraded != 2 {
		t.Errorf("Stats.Degraded = %d, want 2", st.Degraded)
	}
	if st.CacheHits != 0 || st.CacheMisses != 2 {
		t.Errorf("cache hits/misses = %d/%d, want 0/2", st.CacheHits, st.CacheMisses)
	}

	// Control: the identical exact-result task is cached on the second run.
	ex2 := NewExecutor(reg2, newCtx(t))
	g2 := NewGraph()
	last2 := g2.Add(skills.Invocation{Skill: "ExactSrc", Inputs: []string{"base"}, Output: "e"})
	for run := 1; run <= 2; run++ {
		if _, err := ex2.Run(g2, last2); err != nil {
			t.Fatal(err)
		}
	}
	if got := exactCalls.Load(); got != 1 {
		t.Errorf("exact task executed %d times, want 1 (second run cached)", got)
	}
	if ex2.Stats().CacheHits == 0 {
		t.Error("exact-result control never hit the cache")
	}
}
