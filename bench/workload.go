package main

import (
	"fmt"
	"math/rand"

	"datachat/internal/wire"
)

// A workload is a traffic mix. Its requests are a pure function of the seed:
// the server only ever sees what a generator emits.
type workload struct {
	name string
	// why is the one line BENCHMARK.json and the README carry.
	why string
	// loop states how load is offered, as the report prints it.
	loop string
	// clients is the number of closed-loop load goroutines, one connection each.
	clients int
	// traffic is what those goroutines send.
	traffic traffic
	// refresh adds the warehouse, the scheduled recipe, the board subscriber
	// and the open-loop refresher beside the closed loop.
	refresh bool
}

type traffic int

const (
	trafficHot    traffic = iota // chains whose constants come from a 16-value pool
	trafficCold                  // chains whose constants never repeat
	trafficStream                // streamed wide filters whose constants never repeat
)

var workloads = []workload{
	{
		name:    "interactive.hot",
		why:     "constants from a 16-value pool: every step is a cross-session cache hit, so server, wire, gel, session, plan and fingerprinting do the work",
		loop:    "closed loop, 2 clients",
		clients: 2, traffic: trafficHot,
	},
	{
		name:    "interactive.cold",
		why:     "every constant is new: every step misses the cache, runs a task (the filter scans all 200k rows) and evicts, so dag execution and sqlengine are in every step",
		loop:    "closed loop, 2 clients",
		clients: 2, traffic: trafficCold,
	},
	{
		name:    "stream.wide",
		why:     "150k-row results streamed as NDJSON: the morsel path, wire row encoding and client decoding do the work",
		loop:    "closed loop, 2 clients",
		clients: 2, traffic: trafficStream,
	},
	{
		name:    "refresh.mixed",
		why:     "a table replace and recipe refresh every 250 ms beside cache-hit reads: invalidation, background admission and board fan-out run against reads",
		loop:    "open loop, 1 refresher at 4/s, beside a closed loop of 1 client",
		clients: 1, traffic: trafficHot, refresh: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	// An analysis is one fresh session: create, load the file, then
	// stepsPerAnalysis GEL steps in chains of four (filter, aggregate per
	// cat, sort, limit) that consolidate into one SQL query. The cap pins
	// session length, so what a step costs as its DAG grows is part of the
	// number and not drift in it.
	stepsPerAnalysis = 40
	chainSteps       = 4
	hotPool          = 16
	limitRows        = 10
	// A stream analysis is create, load, project, then this many streams.
	streamsPerAnalysis = 10
	// pageRows is the server's default number of inlined rows per response.
	pageRows = 100

	benchUser = "bench"
)

// Filter constants. Interactive chains keep the top 5–30 % of v; wide streams
// keep about three quarters of the rows.
const (
	chainLo, chainSpan   = 700_000, 250_000
	streamLo, streamSpan = 245_000, 10_000
)

// Lanes keep the never-repeating constants of concurrent generators apart:
// lane l draws constants l, l+lanes, l+2·lanes, … of one seeded permutation.
const (
	laneWarm  = 2
	laneTrace = 3
	lanes     = 4
)

type shape int

const (
	shapeCreate shape = iota
	shapeLoad
	shapeFilter
	shapeGroup
	shapeSort
	shapeLimit
	shapeProject
	shapeStream
)

var shapeNames = [...]string{"create", "load", "filter", "group", "sort", "limit", "project", "stream"}

func (s shape) String() string { return shapeNames[s] }

// step reports whether s is one of the GEL steps whose latency the
// interactive workloads report.
func (s shape) step() bool { return s >= shapeFilter && s <= shapeLimit }

// request is one generated call. The exported fields are what goes to the
// server; the rest is what the generator knows about the answer.
type request struct {
	Op      string           `json:"op"` // "create", "run" or "stream"
	Session string           `json:"session"`
	Run     *wire.RunRequest `json:"run,omitempty"`

	// id names the request in spans: its session and its place in it.
	id    string
	shape shape
	k     int64 // the chain's or stream's filter constant
	// node is the DAG node id the step must be appended as.
	node int
	want expectation
}

// generator emits one lane's requests for an interactive or stream workload.
type generator struct {
	traffic traffic
	lane    int
	prefix  string
	rng     *rand.Rand
	facts   *facts

	// Never-repeating constants: constant number j is lo + (a·j + b) mod span
	// with a coprime to span, a bijection on [lo, lo+span).
	lo, span, a, b int64
	drawn          int64

	pool     []int64
	poolWant [][4]expectation
	// inOrder makes a hot generator walk the pool instead of drawing from it,
	// so a warm-up fills the cache with every entry exactly once.
	inOrder bool

	analysis int
	pos      int // next request within the analysis
	k        int64
	chain    [4]expectation
	head     [2]expectation // what load and project return
}

func newGenerator(w workload, seed int64, lane int, f *facts) *generator {
	// Constants depend on the seed only; which of them a lane draws, and in
	// which order, depends on the lane too.
	perm := rand.New(rand.NewSource(seed ^ 0x5eed))
	g := &generator{
		traffic: w.traffic,
		lane:    lane,
		prefix:  fmt.Sprintf("%s-%d", w.name, lane),
		rng:     rand.New(rand.NewSource(seed*31 + int64(lane))),
		facts:   f,
		lo:      chainLo, span: chainSpan,
	}
	if w.traffic == trafficStream {
		g.lo, g.span = streamLo, streamSpan
	}
	for {
		g.a = perm.Int63n(g.span)
		if gcd(g.a, g.span) == 1 {
			break
		}
	}
	g.b = perm.Int63n(g.span)
	if w.traffic == trafficHot {
		for j := int64(0); j < hotPool; j++ {
			k := g.constant(j)
			g.pool = append(g.pool, k)
			g.poolWant = append(g.poolWant, f.chainExpect(k, pageRows))
		}
	}
	g.head = f.headExpect(pageRows)
	return g
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (g *generator) constant(j int64) int64 { return g.lo + (g.a*j+g.b)%g.span }

// fresh draws the lane's next never-repeating constant.
func (g *generator) fresh() int64 {
	k := g.constant(g.drawn*lanes + int64(g.lane))
	g.drawn++
	return k
}

func (g *generator) session() string { return fmt.Sprintf("%s-%d", g.prefix, g.analysis) }

func (g *generator) run(s shape, node int, gel, current string, want expectation) request {
	op := "run"
	if s == shapeStream {
		op = "stream"
	}
	return request{
		Op: op, Session: g.session(),
		Run: &wire.RunRequest{User: benchUser, GEL: gel, Current: current},
		id:  fmt.Sprintf("%s/%d", g.session(), node), shape: s, k: g.k, node: node, want: want,
	}
}

func nodeName(id int) string { return fmt.Sprintf("node%d", id) }

// next returns the lane's next request.
func (g *generator) next() request {
	pos := g.pos
	g.pos++
	switch pos {
	case 0:
		return request{Op: "create", Session: g.session(), id: g.session() + "/create", shape: shapeCreate}
	case 1:
		return g.run(shapeLoad, 0, "Load data from the file "+factsFile, "", g.head[0])
	}
	node := pos - 1 // load is node 0, the analysis' next step is node 1, …
	var req request
	last := false
	switch {
	case g.traffic == trafficStream && pos == 2:
		req = g.run(shapeProject, node, "Keep the columns id, grp, v", nodeName(0), g.head[1])
	case g.traffic == trafficStream:
		g.k = g.fresh()
		req = g.run(shapeStream, node, fmt.Sprintf("Keep the rows where v >= %d", g.k), nodeName(1), g.facts.streamExpect(g.k))
		last = node == 1+streamsPerAnalysis
	default:
		at := (node - 1) % chainSteps
		if at == 0 {
			g.nextChain()
		}
		gel := [chainSteps]string{
			fmt.Sprintf("Keep the rows where v >= %d", g.k),
			"Compute the sum of v and count of records for each cat",
			"Sort the rows by sum_v in descending order",
			fmt.Sprintf("Limit the data to %d rows", limitRows),
		}[at]
		current := nodeName(node - 1)
		if at == 0 {
			current = nodeName(0)
		}
		req = g.run(shapeFilter+shape(at), node, gel, current, g.chain[at])
		last = node == stepsPerAnalysis
	}
	if last {
		g.analysis++
		g.pos = 0
	}
	return req
}

// nextChain picks the constant of the chain about to start.
func (g *generator) nextChain() {
	if g.traffic == trafficCold {
		g.k = g.fresh()
		g.chain = g.facts.chainExpect(g.k, pageRows)
		return
	}
	var i int
	if g.inOrder {
		i = int(g.drawn) % hotPool
		g.drawn++
	} else {
		i = g.rng.Intn(hotPool)
	}
	g.k, g.chain = g.pool[i], g.poolWant[i]
}

// referenceSQL is the query a step of shape s with constant k must answer,
// written by hand for the row-reference engine.
func referenceSQL(s shape, k int64) string {
	// The Compute skill emits its groups ordered by key, and the sort step is
	// stable over that order.
	grouped := fmt.Sprintf("SELECT cat, SUM(v) AS sum_v, COUNT(*) AS count_records FROM facts WHERE v >= %d GROUP BY cat ORDER BY cat", k)
	sorted := "SELECT * FROM (" + grouped + ") AS g ORDER BY sum_v DESC"
	switch s {
	case shapeLoad:
		return "SELECT * FROM facts"
	case shapeFilter:
		return fmt.Sprintf("SELECT * FROM facts WHERE v >= %d", k)
	case shapeGroup:
		return grouped
	case shapeSort:
		return sorted
	case shapeLimit:
		return sorted + fmt.Sprintf(" LIMIT %d", limitRows)
	case shapeProject:
		return "SELECT id, grp, v FROM facts"
	case shapeStream:
		return fmt.Sprintf("SELECT id, grp, v FROM facts WHERE v >= %d", k)
	}
	return ""
}
