package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"datachat/internal/core"
	"datachat/internal/dag"
	"datachat/internal/faults"
	"datachat/internal/session"
	"datachat/internal/wire"
)

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.MaxInFlight <= 0 {
		t.Fatalf("MaxInFlight = %d, want > 0", cfg.MaxInFlight)
	}
	if cfg.MaxQueue != 0 {
		t.Fatalf("MaxQueue = %d, want 0 (zero value queues nothing)", cfg.MaxQueue)
	}
	cfg = Config{MaxQueue: -1}.withDefaults()
	if cfg.MaxQueue != 2*cfg.MaxInFlight {
		t.Fatalf("MaxQueue = %d, want 2*MaxInFlight = %d", cfg.MaxQueue, 2*cfg.MaxInFlight)
	}
	if cfg.DefaultMaxRows != 100 || cfg.MaxPageRows != 10000 {
		t.Fatalf("row caps = (%d, %d), want (100, 10000)", cfg.DefaultMaxRows, cfg.MaxPageRows)
	}
}

func TestTuningDeadlines(t *testing.T) {
	s := New(core.New(), Config{DefaultDeadline: 2 * time.Second, MaxDeadline: 5 * time.Second})
	if got := s.tuning(0).Deadline; got != 2*time.Second {
		t.Fatalf("default deadline = %v, want 2s", got)
	}
	if got := s.tuning(1000).Deadline; got != time.Second {
		t.Fatalf("asked deadline = %v, want 1s", got)
	}
	if got := s.tuning(60_000).Deadline; got != 5*time.Second {
		t.Fatalf("capped deadline = %v, want 5s", got)
	}
	// With a cap but no default, an unbounded ask is still capped.
	s = New(core.New(), Config{MaxDeadline: 3 * time.Second})
	if got := s.tuning(0).Deadline; got != 3*time.Second {
		t.Fatalf("uncapped ask with MaxDeadline = %v, want 3s", got)
	}
}

func TestErrStatus(t *testing.T) {
	cases := []struct {
		err    error
		status int
		code   string
	}{
		{session.ErrBusy, http.StatusConflict, wire.CodeBusy},
		{fmt.Errorf("session: wrapped: %w", session.ErrBusy), http.StatusConflict, wire.CodeBusy},
		{errThrottled, http.StatusTooManyRequests, wire.CodeThrottled},
		{errDraining, http.StatusServiceUnavailable, wire.CodeDraining},
		{faults.ErrDeadline, http.StatusGatewayTimeout, wire.CodeDeadline},
		{context.DeadlineExceeded, http.StatusGatewayTimeout, wire.CodeDeadline},
		// A client disconnect is not a deadline expiry: distinct status and
		// code, and countRefusal leaves deadline504 untouched for 499s.
		{context.Canceled, statusClientClosedRequest, wire.CodeCanceled},
		{fmt.Errorf("run: %w", context.Canceled), statusClientClosedRequest, wire.CodeCanceled},
		{errors.New(`core: no session "x"`), http.StatusNotFound, wire.CodeNotFound},
		{errors.New(`artifact: no artifact "kpis"`), http.StatusNotFound, wire.CodeNotFound},
		{errors.New(`artifact: invalid or revoked link`), http.StatusNotFound, wire.CodeNotFound},
		{errors.New(`session: bob cannot run requests`), http.StatusForbidden, wire.CodeDenied},
		{errors.New(`artifact: ann has no access to "kpis"`), http.StatusForbidden, wire.CodeDenied},
		{errors.New(`gel: cannot understand "frobnicate"`), http.StatusBadRequest, wire.CodeBadRequest},
		{errors.New(`pyapi: unexpected token`), http.StatusBadRequest, wire.CodeBadRequest},
		{errors.New(`server: file name must not be empty`), http.StatusBadRequest, wire.CodeBadRequest},
		{fmt.Errorf("server: invalid request body: %w", &http.MaxBytesError{Limit: maxBodyBytes}),
			http.StatusRequestEntityTooLarge, wire.CodeTooLarge},
		{errors.New("boom"), http.StatusInternalServerError, wire.CodeInternal},
	}
	for _, c := range cases {
		status, code := errStatus(c.err)
		if status != c.status || code != c.code {
			t.Errorf("errStatus(%q) = (%d, %s), want (%d, %s)", c.err, status, code, c.status, c.code)
		}
	}
}

// TestBodyLimit: a request body is read up to maxBodyBytes and no further —
// one of exactly that size is served, one byte more is a typed 413.
func TestBodyLimit(t *testing.T) {
	hs := httptest.NewServer(New(core.New(), Config{}))
	defer hs.Close()
	post := func(name string, bodyBytes int) (int, wire.Error) {
		t.Helper()
		prefix, suffix := `{"name":"`+name+`","content":"`, `"}`
		body := prefix + strings.Repeat("a", bodyBytes-len(prefix)-len(suffix)) + suffix
		resp, err := http.Post(hs.URL+"/v1/files", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var we wire.Error
		if resp.StatusCode >= 300 {
			if err := json.NewDecoder(resp.Body).Decode(&we); err != nil {
				t.Fatalf("status %d with an untyped body: %v", resp.StatusCode, err)
			}
		}
		return resp.StatusCode, we
	}
	if status, we := post("fits.csv", maxBodyBytes); status >= 300 {
		t.Fatalf("body of exactly maxBodyBytes: status %d %+v, want success", status, we)
	}
	status, we := post("over.csv", maxBodyBytes+1)
	if status != http.StatusRequestEntityTooLarge || we.Code != wire.CodeTooLarge {
		t.Fatalf("body one byte over: status %d %+v, want 413 %s", status, we, wire.CodeTooLarge)
	}
}

func TestAdmitRefusesWhenFull(t *testing.T) {
	s := New(core.New(), Config{MaxInFlight: 1, MaxQueue: 0})
	if err := s.admit(context.Background(), classInteractive, "t"); err != nil {
		t.Fatalf("first admit: %v", err)
	}
	if err := s.admit(context.Background(), classInteractive, "t"); !errors.Is(err, errThrottled) {
		t.Fatalf("second admit = %v, want errThrottled", err)
	}
	s.release(classInteractive)
	if err := s.admit(context.Background(), classInteractive, "t"); err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	s.release(classInteractive)
}

func TestAdmitQueuesUntilCancel(t *testing.T) {
	s := New(core.New(), Config{MaxInFlight: 1, MaxQueue: 1})
	if err := s.admit(context.Background(), classInteractive, "t"); err != nil {
		t.Fatalf("first admit: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- s.admit(ctx, classInteractive, "t") }()
	// The queued waiter blocks until its context dies.
	select {
	case err := <-errc:
		t.Fatalf("queued admit returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued admit = %v, want context.Canceled", err)
	}
	s.release(classInteractive)
}

func TestAdmitRefusesWhileDraining(t *testing.T) {
	s := New(core.New(), Config{MaxInFlight: 1})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with nothing in flight: %v", err)
	}
	if err := s.admit(context.Background(), classInteractive, "t"); !errors.Is(err, errDraining) {
		t.Fatalf("admit while draining = %v, want errDraining", err)
	}
	if !s.Draining() {
		t.Fatal("Draining() = false after Shutdown")
	}
}

// TestStatszExecHasEveryStatsField guards the /statsz "exec" key list, the
// one hand-written copy of dag.Stats' fields outside the struct and its Add:
// every field must be served under its own key with its own value, and the
// keys existing clients read by name (bench/trace.go: tasks_run) must stay
// byte-identical.
func TestStatszExecHasEveryStatsField(t *testing.T) {
	var st dag.Stats
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(i + 1))
	}
	exec := execStatsz(st)
	if len(exec) != v.NumField() {
		t.Errorf("/statsz exec has %d keys for %d dag.Stats fields: %v", len(exec), v.NumField(), exec)
	}
	seen := map[int64]string{}
	for key, val := range exec {
		if val < 1 || val > int64(v.NumField()) {
			t.Errorf("key %q = %d, not the value of any field", key, val)
		}
		if other, dup := seen[val]; dup {
			t.Errorf("keys %q and %q serve the same field", key, other)
		}
		seen[val] = key
	}
	for _, key := range []string{
		"tasks_run", "sql_tasks", "direct_tasks", "nodes_consolidated", "query_blocks",
		"rows_materialized", "cache_hits", "cache_misses", "retries", "permanent_failures",
		"degraded", "streamed_chunks", "streamed_rows", "spill_runs", "spilled_rows",
		"spilled_bytes", "peak_buffered_rows", "stream_workers",
	} {
		if _, ok := exec[key]; !ok {
			t.Errorf("/statsz exec lost key %q", key)
		}
	}
}
