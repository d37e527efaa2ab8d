package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// benchmarkJSON is the contract at the root of the repository: what the
// benchmark is run with, and the bound by which each end-to-end metric may
// worsen before a change counts as a regression.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// failShareBound is absolute: fail_share is 0 on a healthy commit, so it has
// no ratio to bound.
const failShareBound = 0.001

// loadBenchmarkJSON finds BENCHMARK.json from the root of the repository or
// from bench/.
func loadBenchmarkJSON() (*benchmarkJSON, error) {
	var data []byte
	var err error
	for _, dir := range []string{".", ".."} {
		if data, err = os.ReadFile(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints one row per workload and end-to-end metric with both
// medians, their ratio and its base, and a verdict; it reports whether any row
// is worse.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	decl, err := loadBenchmarkJSON()
	if err != nil {
		return false, err
	}
	a, err := loadReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadReport(pathB)
	if err != nil {
		return false, err
	}
	return compareReports(w, decl, a, b), nil
}

// verdict judges one metric. worse means B is worse than A by more than the
// bound; unresolved means either side's own runs spread wider than the bound,
// so the two medians cannot be told apart at that resolution.
func verdict(d metricDecl, a, b summary) string {
	if a.Spread > d.Bound || b.Spread > d.Bound {
		return "unresolved"
	}
	change := (b.Median - a.Median) / a.Median
	if d.Better == "higher" {
		change = -change
	}
	if change > d.Bound {
		return "worse"
	}
	return "ok"
}

func compareReports(w io.Writer, decl *benchmarkJSON, a, b *report) bool {
	anyWorse := false
	fmt.Fprintf(w, "A: commit %s, %d run(s) per workload; B: commit %s, %d run(s). Ratios are B/A, base A.\n",
		a.Env.GitCommit, a.Env.Repeat, b.Env.GitCommit, b.Env.Repeat)
	fmt.Fprintf(w, "%-18s %-18s %-7s %14s %14s %8s %6s  %s\n", "workload", "metric", "better", "A", "B", "B/A", "bound", "verdict")
	for _, wl := range decl.Workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil {
			fmt.Fprintf(w, "%-18s missing from one of the files: worse\n", wl.Name)
			anyWorse = true
			continue
		}
		for _, d := range decl.EndToEnd {
			sa, okA := wa.Metrics[d.Name]
			sb, okB := wb.Metrics[d.Name]
			if !okA || !okB {
				fmt.Fprintf(w, "%-18s %-18s missing from one of the files: worse\n", wl.Name, d.Name)
				anyWorse = true
				continue
			}
			v := verdict(d, sa, sb)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(w, "%-18s %-18s %-7s %14.4f %14.4f %8.3f %6.2f  %s\n",
				wl.Name, d.Name, d.Better, sa.Median, sb.Median, sb.Median/sa.Median, d.Bound, v)
		}
		v := "ok"
		if wb.FailShare > wa.FailShare+failShareBound {
			v, anyWorse = "worse", true
		}
		fmt.Fprintf(w, "%-18s %-18s %-7s %14.6f %14.6f %8s %+6.3f  %s\n",
			wl.Name, "fail_share", "lower", wa.FailShare, wb.FailShare, "-", failShareBound, v)
	}
	return anyWorse
}
