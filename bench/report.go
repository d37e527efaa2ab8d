package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number. Samples is how many observations a latency
// or rate rests on (0 where that has no meaning).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// runResult is everything one run of one workload reports.
type runResult struct {
	Workload     string  `json:"workload"`
	Loop         string  `json:"loop"`
	Clients      int     `json:"clients"`
	Seed         int64   `json:"seed"`
	Traced       bool    `json:"traced"`
	TimedSeconds float64 `json:"timed_seconds"`
	// SetupSeconds lists every set-up of the run (inputs, boot, warm-up).
	SetupSeconds []float64 `json:"setup_seconds,omitempty"`

	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	FailShare float64  `json:"fail_share"`
	Errors    []string `json:"errors,omitempty"`

	// Metrics are the ones BENCHMARK.json declares: the end-to-end metrics
	// of an untraced run, the per-layer metrics of a traced one.
	Metrics map[string]metric `json:"metrics"`
	// Diagnostics are printed and recorded but never gated: the end-to-end
	// metrics under their workload-specific names, tails, generator lateness.
	Diagnostics map[string]metric `json:"diagnostics,omitempty"`
}

func newRunResult(w workload, opts options) *runResult {
	return &runResult{
		Workload: w.name, Loop: w.loop, Clients: w.clients, Seed: opts.seed, Traced: opts.trace,
		TimedSeconds: opts.seconds,
		Metrics:      map[string]metric{}, Diagnostics: map[string]metric{},
	}
}

// outcomes copies the attempt counts off the merged recorder.
func (r *runResult) outcomes(rec *recorder) {
	r.Attempted, r.Failed, r.Errors = rec.attempted, rec.failed, rec.errs
	r.Correct = rec.failed == 0 && rec.attempted > 0
	if rec.attempted > 0 {
		r.FailShare = float64(rec.failed) / float64(rec.attempted)
	}
}

// latency records a latency diagnostic as its median, and beside it the
// highest percentile that still has ten samples beyond it.
func (r *runResult) latency(name string, v []time.Duration) metric {
	asc := sorted(v)
	m := metric{ms(percentile(asc, 50)), "ms", len(asc)}
	r.Diagnostics[name] = m
	if p := tailPercentile(len(asc)); p > 50 {
		base := strings.TrimSuffix(strings.TrimSuffix(name, "_ms"), "_p50")
		r.Diagnostics[fmt.Sprintf("%s_tail_ms@p%g", base, p)] = metric{ms(percentile(asc, p)), "ms", len(asc)}
	}
	return m
}

// endToEnd fills in an untraced run's metrics. Every workload reports the same
// four gated metrics; which observation stands behind latency_p50_ms and
// throughput_per_s is the workload's own (see README.md), and the
// diagnostics carry them under those names.
func (r *runResult) endToEnd(w workload, win *window, setups []float64) {
	rec := win.rec
	r.outcomes(rec)
	r.SetupSeconds = setups
	r.Metrics["setup_s"] = metric{median(setups), "s", len(setups)}
	r.Metrics["peak_rss_mb"] = metric{win.peakRSS, "MB", 0}

	rate := func(name string, n float64, samples int) metric {
		m := metric{n / win.seconds, "1/s", samples}
		r.Diagnostics[name] = m
		return m
	}
	switch {
	case w.refresh:
		r.Metrics["latency_p50_ms"] = r.latency("refresh_p50_ms", rec.refresh)
		r.latency("step_p50_ms", rec.step)
		r.latency("gen_late_p50_ms", rec.late)
		r.Metrics["throughput_per_s"] = rate("steps_per_s", float64(len(rec.step)), len(rec.step))
	case w.traffic == trafficStream:
		// first_chunk_ms rests on some 85 samples a run and spreads too wide to
		// gate (README.md, "Demoted"), so the gated latency is the whole stream.
		r.Metrics["latency_p50_ms"] = r.latency("stream_p50_ms", rec.stream)
		r.latency("first_chunk_ms", rec.firstChunk)
		r.Metrics["throughput_per_s"] = rate("rows_per_s", float64(rec.rows), len(rec.stream))
	default:
		r.Metrics["latency_p50_ms"] = r.latency("step_p50_ms", rec.step)
		r.Metrics["throughput_per_s"] = rate("steps_per_s", float64(len(rec.step)), len(rec.step))
	}
	for sh, v := range rec.byShape {
		r.Diagnostics["step_p50_ms@"+sh.String()] = metric{ms(median(v)), "ms", len(v)}
	}
	r.Diagnostics["fail_share"] = metric{r.FailShare, "share", r.Attempted}
}

// gateLine is the one JSON object the regression gate reads off the last line
// of standard output.
func (r *runResult) gateLine() map[string]any {
	metrics := map[string]any{}
	for name, m := range r.Metrics {
		metrics[name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics}
}

func (r *runResult) print(w io.Writer) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s; %s; seed %d; %.0f s timed)\n", r.Workload, r.Loop, mode, r.Seed, r.TimedSeconds)
	printMetrics(w, "  ", r.Metrics)
	if len(r.Diagnostics) > 0 {
		fmt.Fprintln(w, "  diagnostics (not gated):")
		printMetrics(w, "    ", r.Diagnostics)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d, correct %v\n", r.Attempted, r.Failed, r.Correct)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
}

func printMetrics(w io.Writer, indent string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := ms[name]
		fmt.Fprintf(w, "%s%-38s %14.4f %-6s", indent, name, m.Value, m.Unit)
		if m.Samples > 0 {
			fmt.Fprintf(w, " (%d samples)", m.Samples)
		}
		fmt.Fprintln(w)
	}
}

func detailPath(dir, workload string, traced bool) string {
	name := "run-" + workload
	if traced {
		name += "-trace"
	}
	return filepath.Join(dir, name+".json")
}

// writeDetail leaves the full result beside the span files, for runAll to
// collect: the gate's line has no room for sample counts or diagnostics.
func (r *runResult) writeDetail(dir string) error {
	return writeJSON(detailPath(dir, r.Workload, r.Traced), r)
}

func readDetail(dir, workload string, traced bool) (*runResult, error) {
	data, err := os.ReadFile(detailPath(dir, workload, traced))
	if err != nil {
		return nil, err
	}
	var r runResult
	return &r, json.Unmarshal(data, &r)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// environment is what a number is worthless without.
type environment struct {
	NumCPU       int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	GitCommit    string  `json:"git_commit"`
	Seed         int64   `json:"seed"`
	Repeat       int     `json:"repeat"`
	TimedSeconds float64 `json:"timed_seconds"`
	// WarmUp says what precedes the window; its length is inside setup_s.
	WarmUp    string `json:"warm_up"`
	SetupRuns int    `json:"setup_runs"`
	FactsRows int    `json:"facts_rows"`
}

// summary condenses one metric over a workload's runs the way the gate does.
type summary struct {
	Unit   string  `json:"unit"`
	Runs   int     `json:"runs"`
	Median float64 `json:"median"`
	// Q1, Q3 and Spread = (Q3−Q1)/Median need two runs or more.
	Q1     float64 `json:"q1,omitempty"`
	Q3     float64 `json:"q3,omitempty"`
	Spread float64 `json:"spread,omitempty"`
}

type workloadReport struct {
	Why       string             `json:"why"`
	Loop      string             `json:"loop"`
	Clients   int                `json:"clients"`
	Runs      []*runResult       `json:"runs"`
	Metrics   map[string]summary `json:"metrics"`
	FailShare float64            `json:"fail_share"`
}

// report is result.json.
type report struct {
	Env       environment                `json:"env"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

func newReport(opts options, repeat int) *report {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return &report{
		Env: environment{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			GitCommit: commit, Seed: opts.seed, Repeat: repeat, TimedSeconds: opts.seconds,
			WarmUp:    "one pass over the workload's own traffic until caches are filled; timed inside setup_s",
			SetupRuns: setupRuns, FactsRows: opts.rows,
		},
		Workloads: map[string]*workloadReport{},
	}
}

func (r *report) add(res *runResult) {
	wr, ok := r.Workloads[res.Workload]
	if !ok {
		w, _ := findWorkload(res.Workload)
		wr = &workloadReport{Why: w.why, Loop: w.loop, Clients: w.clients}
		r.Workloads[res.Workload] = wr
	}
	wr.Runs = append(wr.Runs, res)
}

func (r *report) summarize() {
	for _, wr := range r.Workloads {
		wr.Metrics = map[string]summary{}
		values := map[string][]float64{}
		attempted, failed := 0, 0
		for _, run := range wr.Runs {
			attempted += run.Attempted
			failed += run.Failed
			for name, m := range run.Metrics {
				values[name] = append(values[name], m.Value)
				wr.Metrics[name] = summary{Unit: m.Unit}
			}
		}
		if attempted > 0 {
			wr.FailShare = float64(failed) / float64(attempted)
		}
		for name, v := range values {
			s := wr.Metrics[name]
			s.Runs, s.Median = len(v), median(v)
			if len(v) >= 2 {
				s.Q1, s.Median, s.Q3 = quartiles(v)
				if s.Median != 0 {
					s.Spread = (s.Q3 - s.Q1) / s.Median
				}
			}
			wr.Metrics[name] = s
		}
	}
}

func (r *report) print(w io.Writer) {
	e := r.Env
	fmt.Fprintf(w, "\nenvironment: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d repeat=%d timed=%.0fs set-ups/run=%d facts=%d rows\n",
		e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.GitCommit, e.Seed, e.Repeat, e.TimedSeconds, e.SetupRuns, e.FactsRows)
	fmt.Fprintf(w, "%-18s %-38s %14s %-6s %5s %8s\n", "workload", "metric", "median", "unit", "runs", "spread")
	for _, wl := range workloads {
		wr, ok := r.Workloads[wl.name]
		if !ok {
			continue
		}
		names := make([]string, 0, len(wr.Metrics))
		for name := range wr.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			s := wr.Metrics[name]
			fmt.Fprintf(w, "%-18s %-38s %14.4f %-6s %5d %7.1f%%\n", wl.name, name, s.Median, s.Unit, s.Runs, 100*s.Spread)
		}
		fmt.Fprintf(w, "%-18s %-38s %14.6f %-6s\n", wl.name, "fail_share", wr.FailShare, "share")
	}
}
