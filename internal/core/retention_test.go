package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"datachat/internal/dag"
	"datachat/internal/dataset"
	"datachat/internal/session"
	"datachat/internal/skills"
)

// factsCSV is a small `id,grp,cat,v` file shaped like the benchmark's.
func factsCSV(rows int) string {
	var b strings.Builder
	b.WriteString("id,grp,cat,v\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "%d,g%d,c%d,%d\n", i, i%13, (i*7)%50, (i*7919)%1000)
	}
	return b.String()
}

// runChain runs an analysis the way the benchmark's interactive workloads
// do: create, load, then steps/4 chains of filter → aggregate → sort → limit,
// each chain's filter constant drawn by k.
func runChain(t testing.TB, p *Platform, name string, steps int, k func(chain int) int) {
	t.Helper()
	if _, err := p.CreateSession(name, "bench"); err != nil {
		t.Fatal(err)
	}
	run := func(gel, current string) {
		t.Helper()
		inv, err := p.ParseGEL(gel, current)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := p.RunCtx(context.Background(), name, "bench", nil, inv); err != nil {
			t.Fatalf("%s: %s: %v", name, gel, err)
		}
	}
	for node := 0; node <= steps; node++ {
		run(chainStep(node, k((node-1)/4)), chainInput(node))
	}
}

// chainInput is the dataset step node acts on: a filter reads the load, the
// other chain steps their predecessor.
func chainInput(node int) string {
	if node == 0 {
		return ""
	}
	if (node-1)%4 == 0 {
		return "node0"
	}
	return fmt.Sprintf("node%d", node-1)
}

// chainStep is the GEL of an analysis' step node: the load, then chains of
// filter (keeping v >= k, on node0), aggregate, sort and limit.
func chainStep(node, k int) string {
	if node == 0 {
		return "Load data from the file facts.csv"
	}
	return [...]string{
		fmt.Sprintf("Keep the rows where v >= %d", k),
		"Compute the sum of v and count of records for each cat",
		"Sort the rows by sum_v in descending order",
		"Limit the data to 10 rows",
	}[(node-1)%4]
}

func heapAfterGC() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSessionBytesPerStep pins what a step leaves behind once its result is
// cached: 250 analyses of 40 hot-chain steps, every one a cache hit, must
// grow the live heap by at most 0.3 KB a step — the graph node with its step
// record, with arguments shared across sessions and node outputs handed back
// to the cache.
func TestSessionBytesPerStep(t *testing.T) {
	const analyses, steps, pool = 250, 40, 16
	p := New()
	p.RegisterFile("facts.csv", factsCSV(2000))
	hot := func(i int) func(int) int {
		return func(chain int) int { return 100 + 50*((i+chain*7)%pool) }
	}
	for i := 0; i < pool; i++ { // warm the cache with every chain
		runChain(t, p, fmt.Sprintf("warm-%d", i), 4, func(int) int { return 100 + 50*i })
	}
	before := heapAfterGC()
	for i := 0; i < analyses; i++ {
		runChain(t, p, fmt.Sprintf("hot-%d", i), steps, hot(i))
	}
	after := heapAfterGC()
	perStep := (float64(after) - float64(before)) / (analyses * steps)
	t.Logf("%.0f B retained per step (%d analyses × %d steps)", perStep, analyses, steps)
	if perStep > 300 {
		t.Errorf("a cached step retains %.0f B, want ≤ 300", perStep)
	}
	if st := p.CacheStats(); st.Misses > 5*pool+1 {
		t.Errorf("cache misses = %d: the measured steps were not all hits", st.Misses)
	}
}

// TestRegisteredFileHashedOnce: a file's hash is taken at registration and
// keys every LoadData downstream — the same FNV-1a byte stream as before, so
// cache keys did not move — re-registering new bytes changes it, and two
// platforms registering one name with different bytes never share a hash.
func TestRegisteredFileHashedOnce(t *testing.T) {
	const v1, v2 = "x\n1\n2\n", "x\n1\n3\n"
	hashOf := func(p *Platform, session string) uint64 {
		t.Helper()
		s, err := p.CreateSession(session, "ann")
		if err != nil {
			t.Fatal(err)
		}
		h, ok := s.Context().FileHash("f.csv")
		if !ok {
			t.Fatal("registered file has no hash")
		}
		return h
	}
	streamHash := func(content string) uint64 {
		h := fnv.New64a()
		io.WriteString(h, "f.csv\x00"+content)
		return h.Sum64()
	}
	p := New()
	p.RegisterFile("f.csv", v1)
	first := hashOf(p, "a")
	if first != streamHash(v1) {
		t.Errorf("hash %#x, want the byte stream's %#x", first, streamHash(v1))
	}
	p.RegisterFile("f.csv", v2)
	if second := hashOf(p, "b"); second == first || second != streamHash(v2) {
		t.Errorf("re-registered file hashes %#x (was %#x)", second, first)
	}
	other := New()
	other.RegisterFile("f.csv", v1)
	if h := hashOf(other, "a"); h != first {
		t.Errorf("same bytes on another platform hash %#x, want %#x", h, first)
	}
	if h := hashOf(p, "c"); h == hashOf(other, "b") {
		t.Error("two platforms with different bytes under one name share a hash")
	}

	// The keys follow the content: a new session over v2 loads v2's rows,
	// not the cached v1 table.
	for i, want := range []string{"2", "3"} {
		q := New()
		q.RegisterFile("f.csv", []string{v1, v2}[i])
		if _, err := q.CreateSession("s", "ann"); err != nil {
			t.Fatal(err)
		}
		res, err := q.RequestGEL("s", "ann", "Load data from the file f.csv", "")
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Table.Columns()[0].Value(1).String(); got != want {
			t.Errorf("load of version %d: last row %s, want %s", i+1, got, want)
		}
	}
}

// TestPlanNeverRereadsTheFile: planning step 40 of an analysis costs the
// same over a 16 MB registered file as over a tiny one — the source
// fingerprint is a lookup, not a pass over the content.
func TestPlanNeverRereadsTheFile(t *testing.T) {
	planStep40 := func(content string) time.Duration {
		p := New()
		p.RegisterFile("facts.csv", content)
		if _, err := p.CreateSession("a", "ann"); err != nil {
			t.Fatal(err)
		}
		// One request appends all 41 steps and runs only the last chain.
		invs := make([]skills.Invocation, 0, 41)
		for node := 0; node <= 40; node++ {
			inv, err := p.ParseGEL(chainStep(node, 100+node/4), chainInput(node))
			if err != nil {
				t.Fatal(err)
			}
			invs = append(invs, inv)
		}
		if _, err := p.Run("a", "ann", invs...); err != nil {
			t.Fatal(err)
		}
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 5; i++ {
			start := time.Now()
			if _, err := p.Explain("a", ""); err != nil {
				t.Fatal(err)
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	small := planStep40(factsCSV(4))
	wide := "9,g" + strings.Repeat("9", 200) + ",c9,999\n"
	large := planStep40(factsCSV(4) + strings.Repeat(wide, 16<<20/len(wide)))
	t.Logf("plan of step 40: %v over a tiny file, %v over 16 MB", small, large)
	if large > 3*small+2*time.Millisecond {
		t.Errorf("planning over a 16 MB file took %v, over a tiny one %v: the plan reads the file", large, small)
	}
}

// heldOutputs lists the datasets s's context holds that a graph node produces.
func heldOutputs(s *session.Session) []string {
	var out []string
	for _, name := range s.Context().DatasetNames() {
		if _, produced := s.Graph().ProducerOf(name); produced {
			out = append(out, name)
		}
	}
	return out
}

// cacheHolds reports whether the shared cache holds name's result: the plan
// for it pins its target from the cache.
func cacheHolds(t testing.TB, s *session.Session, name string) bool {
	t.Helper()
	ex, err := s.Explain(name)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range ex.Nodes {
		if n.Output == ex.Target {
			return n.Cached
		}
	}
	t.Fatalf("the plan of %q has no node for its target %q", name, ex.Target)
	return false
}

// checkHeld fails unless the node outputs s holds are exactly those of names
// the shared cache does not hold.
func checkHeld(t testing.TB, s *session.Session, names ...string) {
	t.Helper()
	var want []string
	for _, name := range names {
		if !cacheHolds(t, s, name) {
			want = append(want, name)
		}
	}
	slices.Sort(want)
	if held := heldOutputs(s); !slices.Equal(held, want) {
		t.Fatalf("session holds %v; of %v the cache lacks %v", held, names, want)
	}
}

// TestSessionRetainsTargetAndInputs: a session that runs 1 000 distinct
// filters holds, after each, only those of the target's and its direct
// inputs' outputs the shared cache does not hold — here none, since every
// result fits — and the cache they went to stays inside its byte budget,
// evicting instead of growing.
func TestSessionRetainsTargetAndInputs(t *testing.T) {
	const budget = 64 << 10
	p := New()
	s, err := p.CreateSession("s", "ann")
	if err != nil {
		t.Fatal(err)
	}
	s.Executor().SetCache(dag.NewCache(budget))
	s.Context().PutDataset("base", planTable())
	for i := 0; i < 1000; i++ {
		_, id, err := s.Request("ann", skills.Invocation{Skill: "KeepRows", Inputs: []string{"base"},
			Args: skills.Args{"condition": fmt.Sprintf("v >= %d", -i)}})
		if err != nil {
			t.Fatal(err)
		}
		if held := heldOutputs(s); len(held) > 0 {
			t.Fatalf("after filter %d (node%d) the session holds %v, though the cache holds every result", i, id, held)
		}
	}
	checkHeld(t, s, "node999")
	if _, err := s.Context().Dataset("base"); err != nil {
		t.Errorf("a dataset no node produces was dropped: %v", err)
	}
	st := s.Executor().CacheStats()
	if st.Bytes > st.Capacity || st.Capacity != budget || st.Evictions == 0 {
		t.Errorf("cache %+v: want bytes within the %d B budget, with evictions", st, budget)
	}
	// A dropped output still answers by name, re-derived through the plan.
	want, err := s.Executor().Run(s.Graph(), 7)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Context().Dataset("node7")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want.Table.WithName("node7")) {
		t.Error("re-derived node7 differs from a run of node 7")
	}
}

// TestDroppedCSEAliasesStayConsistent: once a duplicated branch's outputs
// are dropped, both names still re-derive — to the same rows, whether from
// the cache or, after an invalidation, recomputed.
func TestDroppedCSEAliasesStayConsistent(t *testing.T) {
	p := New()
	s, err := p.CreateSession("a", "ann")
	if err != nil {
		t.Fatal(err)
	}
	s.Context().PutDataset("base", planTable())
	if _, err := p.Run("a", "ann", cseProgram("f1", "f2", "both")...); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run("a", "ann", skillInv("LimitRows", []string{"both"}, "top", map[string]any{"count": 3})); err != nil {
		t.Fatal(err)
	}
	checkHeld(t, s, "top", "both")
	for _, invalidate := range []bool{false, true} {
		if invalidate {
			p.InvalidateCache()
		}
		f1, err := s.Context().Dataset("f1")
		if err != nil {
			t.Fatal(err)
		}
		f2, err := s.Context().Dataset("f2")
		if err != nil {
			t.Fatal(err)
		}
		if f1.Name() != "f1" || f2.Name() != "f2" || !f1.Equal(f2.WithName("f1")) {
			t.Errorf("invalidated=%v: alias f2 differs from f1", invalidate)
		}
	}
	if held := heldOutputs(s); len(held) != 0 {
		t.Errorf("re-deriving published into the session: it holds %v", held)
	}
}

// TestStreamingSessionsPinNothingTheCacheHolds is the "1 000 distinct
// filters over one table" bound at a size -race can afford: 200 sessions,
// each loading one file and streaming one distinct filter over it, hold no
// bytes between them — every result they computed is the shared cache's —
// and the cache stays inside its budget, evicting instead of growing.
func TestStreamingSessionsPinNothingTheCacheHolds(t *testing.T) {
	const sessions, budget = 200, 512 << 10
	p := New()
	p.RegisterFile("facts.csv", factsCSV(2000))
	cache := dag.NewCache(budget)
	for i := 0; i < sessions; i++ {
		name := fmt.Sprintf("s%d", i)
		s, err := p.CreateSession(name, "bench")
		if err != nil {
			t.Fatal(err)
		}
		s.Executor().SetCache(cache)
		streamed := 0
		stream := &session.Tuning{Stream: func(chunk *dataset.Table) error {
			streamed += chunk.NumRows()
			return nil
		}}
		for step, tune := range []*session.Tuning{nil, stream} {
			gel := chainStep(step, 100+i) // the load, then a filter on it
			inv, err := p.ParseGEL(gel, chainInput(step))
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := p.RunCtx(context.Background(), name, "bench", tune, inv); err != nil {
				t.Fatalf("%s: %s: %v", name, gel, err)
			}
		}
		if streamed == 0 {
			t.Fatalf("%s streamed no rows", name)
		}
	}
	var total int64
	for _, b := range p.SessionBytes() {
		total += b
	}
	st := cache.Stats()
	t.Logf("%d sessions hold %d B; cache %d B of %d, %d evictions", sessions, total, st.Bytes, st.Capacity, st.Evictions)
	if total != 0 {
		t.Errorf("%d sessions hold %d B of results the cache holds", sessions, total)
	}
	if st.Bytes > budget || st.Evictions == 0 {
		t.Errorf("cache %+v: want bytes within the %d B budget, with evictions", st, budget)
	}
}

// wideBase is a table of n rows of an int and a float, every row kept by a
// filter on v >= 0.
func wideBase(n int) *dataset.Table {
	ids, vs := make([]int64, n), make([]float64, n)
	for i := range ids {
		ids[i], vs[i] = int64(i), float64(i%97)
	}
	return dataset.MustNewTable("base", dataset.IntColumn("id", ids, nil), dataset.FloatColumn("v", vs, nil))
}

// TestResultOverBudgetStaysHeld: a target the cache refuses — its result is
// larger than the whole budget — stays in the session, so reading it by name
// (twice) answers from the session: nothing is planned, so the cache sees no
// lookup and no task runs.
func TestResultOverBudgetStaysHeld(t *testing.T) {
	p := New()
	s, err := p.CreateSession("s", "ann")
	if err != nil {
		t.Fatal(err)
	}
	s.Executor().SetCache(dag.NewCache(16 << 10))
	s.Context().PutDataset("base", wideBase(5000)) // 80 KB
	res, id, err := s.Request("ann", skillInv("KeepRows", []string{"base"}, "", map[string]any{"condition": "v >= 0"}))
	if err != nil {
		t.Fatal(err)
	}
	name := fmt.Sprintf("node%d", id)
	checkHeld(t, s, name)
	if held := heldOutputs(s); len(held) != 1 {
		t.Fatalf("the refused result is not held: the session holds %v", held)
	}
	before := s.Executor().CacheStats()
	for i := 0; i < 2; i++ {
		got, err := s.Context().Dataset(name)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(res.Table.WithName(name)) {
			t.Errorf("read %d of %s differs from the run's result", i, name)
		}
	}
	if after := s.Executor().CacheStats(); after.Hits != before.Hits || after.Misses != before.Misses {
		t.Errorf("reading a held result by name went through the plan: cache %+v -> %+v", before, after)
	}
}

// TestDroppedTargetReadsBackIdentical: each step's output, dropped because
// the cache holds it, reads back by name cell for cell — types included — as
// the request returned it: from the cache, and recomputed after an
// invalidation.
func TestDroppedTargetReadsBackIdentical(t *testing.T) {
	p := New()
	p.RegisterFile("facts.csv", factsCSV(500))
	s, err := p.CreateSession("a", "ann")
	if err != nil {
		t.Fatal(err)
	}
	var results []*dataset.Table
	for node := 0; node <= 4; node++ {
		inv, err := p.ParseGEL(chainStep(node, 300), chainInput(node))
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := p.RunCtx(context.Background(), "a", "ann", nil, inv)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res.Table)
	}
	if held := heldOutputs(s); len(held) != 0 {
		t.Fatalf("the session holds %v though the cache holds every step", held)
	}
	for _, invalidate := range []bool{false, true} {
		if invalidate {
			p.InvalidateCache()
		}
		for id, want := range results {
			name := fmt.Sprintf("node%d", id)
			got, err := s.Context().Dataset(name)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want.WithName(name)) {
				t.Errorf("invalidated=%v: %s reads back unlike its run", invalidate, name)
			}
			for c, col := range got.Columns() {
				if wt := want.Columns()[c].Type(); col.Type() != wt {
					t.Errorf("invalidated=%v: %s column %s reads back as %v, ran as %v", invalidate, name, col.Name(), col.Type(), wt)
				}
			}
		}
	}
}

// TestDeriveBesideRequests: readers re-derive dropped outputs and render the
// history while requests append to the same session (run under -race): a
// re-derivation takes no session lock and publishes nothing the requests
// could observe.
func TestDeriveBesideRequests(t *testing.T) {
	p := New()
	p.RegisterFile("facts.csv", factsCSV(500))
	runChain(t, p, "a", 4, func(int) int { return 100 })
	s, err := p.Session("a")
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Context().Dataset("node2")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				got, err := s.Context().Dataset("node2")
				if err != nil || !got.Equal(want) {
					t.Errorf("node2 beside requests: %v", err)
					return
				}
				_ = s.History()
			}
		}()
	}
	for i := 0; i < 40; i++ {
		inv, err := p.ParseGEL(fmt.Sprintf("Keep the rows where v >= %d", i), "node0")
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := p.RunCtx(context.Background(), "a", "bench", nil, inv); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if h := s.History(); len(h) != 45 || h[44].Node != 44 || h[44].User != "bench" {
		t.Errorf("history has %d entries, last %+v", len(h), h[len(h)-1])
	}
}

// TestOneOffResultsStayOnProbation: 300 cold chains, each with a filter
// constant no other chain uses, compute results that nothing reads again but
// the chain's own next step. The shared cache keeps the load in its main
// segment and holds those one-off results on probation alone, so its bytes
// stay within the load's charge plus a quarter of the budget — under a pure
// LRU they would fill the budget — and no session holds more than it did
// after its load. The chains run 30 to a session, so the test's time is not
// the planning of one long session.
func TestOneOffResultsStayOnProbation(t *testing.T) {
	const sessions, chains, budget = 10, 30, 8 << 20
	p := New()
	p.cache = dag.NewCache(budget)
	p.RegisterFile("facts.csv", factsCSV(2000))
	var load int64
	for i := 0; i < sessions; i++ {
		name := fmt.Sprintf("cold-%d", i)
		if _, err := p.CreateSession(name, "bench"); err != nil {
			t.Fatal(err)
		}
		run := func(node, k int) {
			t.Helper()
			inv, err := p.ParseGEL(chainStep(node, k), chainInput(node))
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := p.RunCtx(context.Background(), name, "bench", nil, inv); err != nil {
				t.Fatalf("%s step %d: %v", name, node, err)
			}
		}
		run(0, 0)
		if i == 0 {
			load = p.CacheStats().Bytes
		}
		held := p.SessionBytes()[name]
		for chain := 0; chain < chains; chain++ {
			for step := 1; step <= 4; step++ {
				run(4*chain+step, i*chains+chain)
				if st := p.CacheStats(); st.Bytes > load+budget/4 || st.Bytes-st.ProbationBytes != load {
					t.Fatalf("%s chain %d step %d: cache %+v; want the load's %d B in main and at most %d B on probation",
						name, chain, step, st, load, budget/4)
				}
			}
		}
		if got := p.SessionBytes()[name]; got != held {
			t.Errorf("%s holds %d B after its chains, %d B after its load", name, got, held)
		}
	}
	st := p.CacheStats()
	t.Logf("cache %+v after %d chains", st, sessions*chains)
	if st.Evictions == 0 || st.Promotions != 0 {
		t.Errorf("cache %+v: want one-off results evicted from probation, none promoted", st)
	}
}
