package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// smallRows keeps the tests' facts file small; the generators' constants cut
// the value domain, not the row count, so every shape still returns rows.
const smallRows = 8_000

// sequence renders the first n requests of a lane the way they go on the wire.
func sequence(t *testing.T, w workload, seed int64, lane, n int) []byte {
	t.Helper()
	g := newGenerator(w, seed, lane, newFacts(seed, smallRows))
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := 0; i < n; i++ {
		if err := enc.Encode(g.next()); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, w := range workloads {
		a, b := sequence(t, w, 7, 0, 200), sequence(t, w, 7, 0, 200)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated two different request sequences", w.name)
		}
		if other := sequence(t, w, 8, 0, 200); bytes.Equal(a, other) {
			t.Errorf("%s: seeds 7 and 8 generated the same request sequence", w.name)
		}
		if lane1 := sequence(t, w, 7, 1, 200); bytes.Equal(a, lane1) {
			t.Errorf("%s: two clients of one seed send the same requests", w.name)
		}
	}
	for _, seed := range []int64{7, 8} {
		a, b := whTable(seed, 1, 3, 100), whTable(seed, 1, 3, 100)
		if !a.Equal(b) {
			t.Errorf("seed %d built two different versions 3 of a warehouse table", seed)
		}
	}
	if whTable(7, 1, 3, 100).Equal(whTable(8, 1, 3, 100)) {
		t.Error("seeds 7 and 8 built the same warehouse table")
	}
	if whTable(7, 1, 3, 100).Equal(whTable(7, 1, 4, 100)) {
		t.Error("two versions of a warehouse table hold the same rows")
	}
}

// constants collects the filter constants of a lane's first n requests.
func constants(w workload, seed int64, lane, n int) []int64 {
	g := newGenerator(w, seed, lane, newFacts(seed, smallRows))
	var ks []int64
	for i := 0; i < n; i++ {
		if req := g.next(); req.shape == shapeFilter || req.shape == shapeStream {
			ks = append(ks, req.k)
		}
	}
	return ks
}

func TestConstantsRepeatOnlyWhenHot(t *testing.T) {
	for _, w := range workloads {
		seen := map[int64]bool{}
		repeats := 0
		for lane := 0; lane < lanes; lane++ {
			for _, k := range constants(w, 3, lane, 600) {
				if seen[k] {
					repeats++
				}
				seen[k] = true
			}
		}
		switch w.traffic {
		case trafficHot:
			if len(seen) != hotPool {
				t.Errorf("%s drew %d distinct constants, want the pool's %d", w.name, len(seen), hotPool)
			}
		default:
			if repeats > 0 {
				t.Errorf("%s repeated %d constants across lanes; every one must be new", w.name, repeats)
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "parent", Start: 0, End: 100, Parent: noSpan},
		{ID: 1, Name: "covers part", Start: 10, End: 30, Parent: 0},
		{ID: 2, Name: "sibling", Start: 40, End: 60, Parent: 0},
		{ID: 3, Name: "overlaps its sibling", Start: 50, End: 70, Parent: 0},
		{ID: 4, Name: "zero length", Start: 80, End: 80, Parent: 0},
		{ID: 5, Name: "sticks out", Start: 90, End: 150, Parent: 0},
		{ID: 6, Name: "grandchild", Start: 12, End: 20, Parent: 1},
		{ID: 7, Name: "childless", Start: 200, End: 260, Parent: noSpan},
	}
	// Parent: 100 − [10,30] − [40,70] − [90,100] = 40.
	want := []time.Duration{40, 12, 20, 20, 0, 60, 8, 60}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %q is %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestPlacedSpansQueueInsideTheirParent(t *testing.T) {
	log := newSpanLog()
	parent := log.begin("parent", "r", noSpan)
	log.end(parent)
	log.spans[parent].Start, log.spans[parent].End = 1000, 2000
	a := log.place("a", "r", parent, 300)
	b := log.place("b", "r", parent, 200)
	if s := log.spans[a]; s.Start != 1000 || s.End != 1300 {
		t.Errorf("first placed span lies at [%d,%d], want [1000,1300]", s.Start, s.End)
	}
	if s := log.spans[b]; s.Start != 1300 || s.End != 1500 {
		t.Errorf("second placed span lies at [%d,%d], want [1300,1500]", s.Start, s.End)
	}
	if self := selfTimes(log.spans)[parent]; self != 500 {
		t.Errorf("parent keeps %d of its 1000, want 500", self)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10_000, 99.9}, {100_000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("with %d samples the tail is p%g, want p%g", c.n, got, c.want)
		}
	}
	asc := make([]time.Duration, 1000)
	for i := range asc {
		asc[i] = time.Duration(i)
	}
	if got := percentile(asc, 99); got != 990 {
		t.Errorf("p99 of 0..999 is %d, want 990 (ten samples beyond it)", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 22, 2, 37, 4, 29, 7, 16, 11})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles are %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestHasherIsOrderSensitive(t *testing.T) {
	sum := func(rows [][]any) uint64 {
		var h hasher
		if err := h.wireRows(rows); err != nil {
			t.Fatal(err)
		}
		return h.sum()
	}
	a := [][]any{{json.Number("1"), "x"}, {json.Number("2"), nil}}
	swapped := [][]any{a[1], a[0]}
	if sum(a) == sum(swapped) {
		t.Error("swapping two rows kept the checksum")
	}
	if sum([][]any{{"ab", "c"}}) == sum([][]any{{"a", "bc"}}) {
		t.Error("moving a cell boundary kept the checksum")
	}
	var h hasher
	h.int(1)
	h.str("x")
	h.endRow()
	h.int(2)
	h.null()
	h.endRow()
	if h.sum() != sum(a) {
		t.Error("typed cells and decoded wire cells hash differently")
	}
}

// smoke runs one workload for a second on a small file and returns its report
// and exit code.
func smoke(t *testing.T, w workload, opts options) (string, int) {
	t.Helper()
	opts.seed, opts.seconds, opts.rows, opts.outDir = 5, 1, smallRows, t.TempDir()
	var out bytes.Buffer
	code, err := runOne(context.Background(), w, opts, &out)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return out.String(), code
}

// gateLine decodes the last line of a report.
func lastLine(t *testing.T, report string) (correct bool, attempted, failed int, metrics map[string]metric) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(report), "\n")
	var line struct {
		Correct   *bool             `json:"correct"`
		Attempted *int              `json:"attempted"`
		Failed    *int              `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil || line.Metrics == nil {
		t.Fatalf("last line %q lacks one of correct, attempted, failed, metrics", lines[len(lines)-1])
	}
	return *line.Correct, *line.Attempted, *line.Failed, line.Metrics
}

func TestSmokeEveryWorkload(t *testing.T) {
	decl, err := loadBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			report, code := smoke(t, w, options{trace: traced})
			correct, attempted, failed, metrics := lastLine(t, report)
			if code != 0 || !correct || failed != 0 || attempted == 0 {
				t.Errorf("%s traced=%v: exit %d, correct %v, %d of %d failed\n%s", w.name, traced, code, correct, failed, attempted, report)
			}
			want := decl.EndToEnd
			if traced {
				want = decl.PerLayer
			}
			if len(metrics) != len(want) {
				t.Errorf("%s traced=%v printed %d metrics, BENCHMARK.json declares %d", w.name, traced, len(metrics), len(want))
			}
			for _, d := range want {
				m, ok := metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s is %+v, want unit %s", w.name, traced, d.Name, m, d.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.name, d.Name, m.Value)
				}
			}
		}
	}
}

func TestWrongAnswersFailTheRun(t *testing.T) {
	// The server keeps the file it was given; the benchmark's own copy moves
	// every value, so its expectations stop matching what comes back.
	shift := func(f *facts) {
		for i := range f.v {
			f.v[i] = (f.v[i] + 1) % vDomain
		}
	}
	for _, name := range []string{"interactive.cold", "stream.wide"} {
		w, _ := findWorkload(name)
		report, code := smoke(t, w, options{tamper: shift})
		correct, attempted, failed, _ := lastLine(t, report)
		if code == 0 || correct || failed == 0 {
			t.Errorf("%s: exit %d, correct %v, %d of %d failed; wrong answers must fail the run\n%s", name, code, correct, failed, attempted, report)
		}
		if !strings.Contains(report, "FAILED:") {
			t.Errorf("%s: the report does not say what failed\n%s", name, report)
		}
	}
}

func TestBenchmarkJSONAgreesWithTheCode(t *testing.T) {
	decl, err := loadBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the -seconds default %d", decl.RunSeconds, defaultSeconds)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := decl.Workloads[i]; d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d is %q (%q) in BENCHMARK.json, %q (%q) in the code", i, d.Name, d.Why, w.name, w.why)
		}
	}
	if len(decl.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the code %d", len(decl.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if decl.PerLayer[i] != m {
			t.Errorf("per-layer metric %d is %+v in BENCHMARK.json, %+v in the code", i, decl.PerLayer[i], m)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDecl{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDecl{Name: "throughput_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d    metricDecl
		a, b summary
		want string
	}{
		{lower, summary{Median: 100}, summary{Median: 109}, "ok"},
		{lower, summary{Median: 100}, summary{Median: 111}, "worse"},
		{lower, summary{Median: 100}, summary{Median: 50}, "ok"},
		{higher, summary{Median: 100}, summary{Median: 91}, "ok"},
		{higher, summary{Median: 100}, summary{Median: 89}, "worse"},
		{higher, summary{Median: 100}, summary{Median: 200}, "ok"},
		{lower, summary{Median: 100, Spread: 0.2}, summary{Median: 150}, "unresolved"},
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v → %v: verdict %q, want %q", c.d.Name, c.a.Median, c.b.Median, got, c.want)
		}
	}

	decl := &benchmarkJSON{EndToEnd: []metricDecl{lower}}
	decl.Workloads = append(decl.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	side := func(median, failShare float64) *report {
		return &report{Workloads: map[string]*workloadReport{"w": {
			Metrics: map[string]summary{"latency_p50_ms": {Median: median}}, FailShare: failShare}}}
	}
	var out bytes.Buffer
	if compareReports(&out, decl, side(100, 0), side(105, 0.0005)) {
		t.Errorf("a 5 %% slower median and a 0.0005 fail share within bounds were reported worse:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "base A") {
		t.Errorf("the comparison does not name the base of its ratios:\n%s", out.String())
	}
	if !compareReports(&out, decl, side(100, 0), side(100, 0.002)) {
		t.Error("a fail share 0.002 above the base was not reported worse")
	}
}
