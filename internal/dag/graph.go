// Package dag implements DataChat's execution layer (§2.2): skill requests
// accumulate in a directed acyclic graph without running anything; when a
// result is needed, the DAG compiles into execution tasks — consolidating
// chains of relational skills into single flattened SQL queries (Figure 4)
// — runs them against a sub-DAG result cache, and returns the results. It
// also implements recipe slicing (§2.3, Figure 5): reducing an exploratory
// DAG to just the steps an artifact depends on.
package dag

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"datachat/internal/skills"
)

// NodeID identifies a node within one Graph.
type NodeID int

// Node is one skill request in the DAG.
type Node struct {
	ID NodeID
	// Inv is the skill invocation this node will execute. It is shared with
	// every identical step in any graph (see Graph.Add) and must not be
	// mutated.
	Inv *skills.Invocation
	// Parents are the nodes whose outputs this node consumes, aligned with
	// the Inv.Inputs entries they satisfy; -1 marks an external dataset.
	Parents []NodeID
	// User, When and Err record the request that appended the node: who
	// made it, when, and how its run failed ("" for success). A session's
	// history is these records, rendered on read.
	User string
	When time.Time
	Err  string
}

// OutputName returns the dataset name this node produces.
func (n *Node) OutputName() string {
	if n.Inv.Output != "" {
		return n.Inv.Output
	}
	return fmt.Sprintf("node%d", n.ID)
}

// Graph is a DAG of skill requests. Building it performs no computation.
// A Graph is internally synchronized: Add and the read accessors may be
// called concurrently (the network layer reads Len/Last/ProducerOf while a
// session execution appends nodes). Node pointers returned by accessors stay
// valid — existing nodes are never rewired after insertion.
type Graph struct {
	mu sync.RWMutex
	// nodes is indexed by NodeID: IDs are dense, in insertion order.
	nodes []*Node
	// named maps explicit Output names to the latest node giving one; a
	// default "node<N>" name needs no entry, it is parsed.
	named map[string]NodeID
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{named: map[string]NodeID{}}
}

// Add appends a skill invocation, wiring dependencies: each input that
// matches an earlier node's output becomes a parent edge; other inputs are
// external session datasets. The invocation is hash-consed (shared), so
// identical steps in every graph hold one immutable copy.
func (g *Graph) Add(inv skills.Invocation) NodeID {
	return g.AddBy(inv, "", time.Time{})
}

// AddBy is Add for a session request: the node records who made it and when.
func (g *Graph) AddBy(inv skills.Invocation, user string, when time.Time) NodeID {
	node := &Node{Inv: shared(inv), User: user, When: when}
	g.mu.Lock()
	defer g.mu.Unlock()
	id := NodeID(len(g.nodes))
	node.ID = id
	if len(inv.Inputs) > 0 {
		node.Parents = make([]NodeID, len(inv.Inputs))
		for i, in := range inv.Inputs {
			node.Parents[i] = -1
			if parent, ok := g.producerLocked(in); ok {
				node.Parents[i] = parent
			}
		}
	}
	g.nodes = append(g.nodes, node)
	if inv.Output != "" {
		g.named[inv.Output] = id
	}
	return id
}

// Fail records the error a node's run ended with.
func (g *Graph) Fail(id NodeID, err string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if n := g.nodeLocked(id); n != nil {
		n.Err = err
	}
}

func (g *Graph) nodeLocked(id NodeID) *Node {
	if id < 0 || int(id) >= len(g.nodes) {
		return nil
	}
	return g.nodes[id]
}

// Node returns a node by ID.
func (g *Graph) Node(id NodeID) (*Node, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := g.nodeLocked(id)
	if n == nil {
		return nil, fmt.Errorf("dag: no node %d", id)
	}
	return n, nil
}

// Len returns the number of nodes.
func (g *Graph) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.nodes)
}

// Order returns node IDs in insertion (and hence topological) order.
func (g *Graph) Order() []NodeID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]NodeID, len(g.nodes))
	for i := range out {
		out[i] = NodeID(i)
	}
	return out
}

// Last returns the most recently added node ID, or -1 for an empty graph.
func (g *Graph) Last() NodeID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return NodeID(len(g.nodes) - 1)
}

// ProducerOf returns the node producing the named dataset, if any.
func (g *Graph) ProducerOf(output string) (NodeID, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.producerLocked(output)
}

// producerLocked resolves an output name to the latest node answering to
// it: an explicit Output, or the default name of a node that has none.
func (g *Graph) producerLocked(output string) (NodeID, bool) {
	id, ok := g.named[output]
	if digits, found := strings.CutPrefix(output, "node"); found {
		n, err := strconv.Atoi(digits)
		if err == nil && n >= 0 && n < len(g.nodes) && strconv.Itoa(n) == digits &&
			g.nodes[n].Inv.Output == "" && (!ok || NodeID(n) > id) {
			return NodeID(n), true
		}
	}
	return id, ok
}

// Ancestors returns target plus all its transitive parents, in topological
// order.
func (g *Graph) Ancestors(target NodeID) ([]NodeID, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if g.nodeLocked(target) == nil {
		return nil, fmt.Errorf("dag: no node %d", target)
	}
	needed := make([]bool, target+1)
	var visit func(id NodeID)
	visit = func(id NodeID) {
		if id < 0 || needed[id] {
			return
		}
		needed[id] = true
		for _, p := range g.nodes[id].Parents {
			visit(p)
		}
	}
	visit(target)
	var out []NodeID
	for id, in := range needed {
		if in {
			out = append(out, NodeID(id))
		}
	}
	return out, nil
}

// consumers maps each node to the needed nodes that consume its output.
func (g *Graph) consumers(needed []NodeID) map[NodeID][]NodeID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	inSet := map[NodeID]bool{}
	for _, id := range needed {
		inSet[id] = true
	}
	out := map[NodeID][]NodeID{}
	for _, id := range needed {
		for _, p := range g.nodes[id].Parents {
			if p >= 0 && inSet[p] {
				out[p] = append(out[p], id)
			}
		}
	}
	return out
}

// Clone returns a deep-enough copy of the graph (nodes are copied; their
// invocations are shared, as invocations are immutable).
func (g *Graph) Clone() *Graph {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := &Graph{nodes: make([]*Node, len(g.nodes)), named: maps.Clone(g.named)}
	for i, src := range g.nodes {
		node := *src
		node.Parents = append([]NodeID(nil), src.Parents...)
		out.nodes[i] = &node
	}
	return out
}

// maxShared bounds the process-wide invocation table. When it fills up it
// starts over: that costs sharing for a while, never correctness.
const maxShared = 4096

// invocations hash-conses invocations by their canonical encoding — skill,
// inputs, output, and the arguments as JSON, whose map keys come out sorted
// (the per-value encoding the fingerprint pass hashes) — so identical steps
// in any session share one immutable Invocation instead of holding a copy
// each.
var invocations = struct {
	sync.Mutex
	m map[string]*skills.Invocation
}{m: map[string]*skills.Invocation{}}

// shared returns the table's invocation for inv's encoding, entering a
// private copy of inv when there is none. An invocation whose arguments do
// not encode gets a private copy, unshared.
func shared(inv skills.Invocation) *skills.Invocation {
	args, err := json.Marshal(inv.Args)
	if err != nil {
		return own(inv)
	}
	var b strings.Builder
	b.WriteString(inv.Skill)
	for _, in := range inv.Inputs {
		b.WriteByte(0)
		b.WriteString(in)
	}
	b.WriteByte(1)
	b.WriteString(inv.Output)
	b.WriteByte(1)
	b.Write(args)
	key := b.String()
	invocations.Lock()
	defer invocations.Unlock()
	if s, ok := invocations.m[key]; ok {
		return s
	}
	if len(invocations.m) >= maxShared {
		clear(invocations.m)
	}
	s := own(inv)
	invocations.m[key] = s
	return s
}

// own copies inv's slice and map, so no caller can change it afterwards.
func own(inv skills.Invocation) *skills.Invocation {
	inv.Inputs = slices.Clone(inv.Inputs)
	inv.Args = maps.Clone(inv.Args)
	return &inv
}
