// Command bench is the repository's layered benchmark: it boots a real
// datachatd over a loopback listener inside this process, drives it through
// internal/client from at most two load goroutines, checks every answer, and
// prints every metric by name with its unit. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds; a test keeps the two equal.
const defaultSeconds = 20

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 3

type options struct {
	seed    int64
	seconds float64
	trace   bool
	rows    int // rows of the facts file; tests shrink it
	outDir  string
	// tamper, when a test sets it, changes the benchmark's own copy of the
	// inputs after the server has been given them, so that answers stop
	// matching expectations.
	tamper func(*facts)
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload in this process (default: each of the four in a child process)")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", defaultSeconds, "length of the timed window")
		trace   = flag.Int("trace", 0, "1 = traced run: print the per-layer metrics and write the spans")
		repeat  = flag.Int("repeat", 1, "without -workload: run each workload this many times, on seeds seed, seed+1, …")
		compare = flag.Bool("compare", false, "compare two result.json files: -compare A.json B.json")
		outDir  = flag.String("out", defaultOutDir(), "where result.json and the span files go")
	)
	flag.Parse()
	opts := options{seed: *seed, seconds: *seconds, trace: *trace != 0, rows: factsRows, outDir: *outDir}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result.json files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	case *name != "":
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		code, err := runOne(context.Background(), w, opts, os.Stdout)
		if err != nil {
			fatal(err)
		}
		os.Exit(code)
	default:
		ok, err := runAll(opts, *repeat)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runOne runs one workload in this process and prints its report, the last
// line of which is the result the regression gate reads. The exit code it
// returns is 1 when any answer was wrong, refused or failed.
func runOne(ctx context.Context, w workload, opts options, stdout io.Writer) (int, error) {
	res, err := runWorkload(ctx, w, opts)
	if err != nil {
		return 0, err
	}
	res.print(stdout)
	if err := res.writeDetail(opts.outDir); err != nil {
		return 0, err
	}
	line, err := json.Marshal(res.gateLine())
	if err != nil {
		return 0, err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

// defaultOutDir is bench/out seen from wherever the command runs: from the
// root of the repository (run.sh) or from bench/ itself (go run .).
func defaultOutDir() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}

// runWorkload runs one workload in this process, so its memory is its own.
func runWorkload(ctx context.Context, w workload, opts options) (*runResult, error) {
	if opts.trace {
		return runTraced(ctx, w, opts)
	}
	res := newRunResult(w, opts)
	s, setup, err := setUp(ctx, w, opts)
	if err != nil {
		return nil, err
	}
	win, err := s.measure(ctx, time.Duration(opts.seconds*float64(time.Second)), nil)
	if err == nil {
		s.verifyFirsts(win.rec)
	}
	s.close()
	if err != nil {
		return nil, err
	}
	// The repeat set-ups come after the window, so that what they leave on
	// the heap is in neither the window's timings nor its peak RSS.
	setups := []float64{setup.Seconds()}
	for len(setups) < setupRuns {
		s = nil
		runtime.GC()
		again, d, err := setUp(ctx, w, opts)
		if err != nil {
			return nil, err
		}
		again.close()
		setups = append(setups, d.Seconds())
	}
	res.endToEnd(w, win, setups)
	return res, nil
}

// runAll runs every workload repeat times, each run in a child process, and
// writes result.json. It reports whether every run was correct.
func runAll(opts options, repeat int) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	report := newReport(opts, repeat)
	ok := true
	for rep := 0; rep < repeat; rep++ {
		for _, w := range workloads {
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(opts.seed + int64(rep)),
				"-seconds", fmt.Sprint(opts.seconds), "-out", opts.outDir}
			if opts.trace {
				args = append(args, "-trace", "1")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			// Everything but the gate's line is for the reader.
			fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
			if err != nil {
				ok = false
				if _, exited := err.(*exec.ExitError); !exited {
					return false, fmt.Errorf("running %s: %w", w.name, err)
				}
			}
			res, rerr := readDetail(opts.outDir, w.name, opts.trace)
			if rerr != nil {
				return false, fmt.Errorf("%s left no result: %w", w.name, rerr)
			}
			report.add(res)
		}
	}
	report.summarize()
	report.print(os.Stdout)
	path := filepath.Join(opts.outDir, "result.json")
	if opts.trace {
		path = filepath.Join(opts.outDir, "result-trace.json")
	}
	if err := writeJSON(path, report); err != nil {
		return false, err
	}
	fmt.Printf("wrote %s\n", path)
	return ok, nil
}
