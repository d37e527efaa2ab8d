// Package testutil holds helpers shared by the test suites of several
// packages. Nothing outside a _test.go file imports it.
package testutil

import (
	"runtime"
	"testing"
	"time"
)

// LeakCheck snapshots the goroutine count and returns the assertion to run
// once the code under test should have stopped everything it started: the
// count is back at the snapshot. Goroutines exit asynchronously (workers,
// context watchers, a closed server's connections), so it polls for up to
// five seconds, then fails with every goroutine's stack — a goroutine left
// waiting fails the test in seconds instead of hanging it to the timeout.
//
// The count is process-wide: do not use it in a test that runs in parallel
// with others (t.Parallel).
func LeakCheck(t testing.TB) func() {
	t.Helper()
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines leaked (%d, baseline %d):\n%s", n-base, n, base, buf[:runtime.Stack(buf, true)])
		}
	}
}
