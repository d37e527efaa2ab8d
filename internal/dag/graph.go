// Package dag implements DataChat's execution layer (§2.2): skill requests
// accumulate in a directed acyclic graph without running anything; when a
// result is needed, the DAG compiles into execution tasks — consolidating
// chains of relational skills into single flattened SQL queries (Figure 4)
// — runs them against a sub-DAG result cache, and returns the results. It
// also implements recipe slicing (§2.3, Figure 5): reducing an exploratory
// DAG to just the steps an artifact depends on.
package dag

import (
	"fmt"
	"sync"

	"datachat/internal/skills"
)

// NodeID identifies a node within one Graph.
type NodeID int

// Node is one skill request in the DAG.
type Node struct {
	ID NodeID
	// Inv is the skill invocation this node will execute.
	Inv skills.Invocation
	// Parents are the nodes whose outputs this node consumes, aligned with
	// the Inv.Inputs entries they satisfy; -1 marks an external dataset.
	Parents []NodeID
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
	mu       sync.RWMutex
	nodes    map[NodeID]*Node
	order    []NodeID
	next     NodeID
	byOutput map[string]NodeID
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{nodes: map[NodeID]*Node{}, byOutput: map[string]NodeID{}}
}

// Add appends a skill invocation, wiring dependencies: each input that
// matches an earlier node's output becomes a parent edge; other inputs are
// external session datasets.
func (g *Graph) Add(inv skills.Invocation) NodeID {
	g.mu.Lock()
	defer g.mu.Unlock()
	id := g.next
	g.next++
	node := &Node{ID: id, Inv: inv}
	for _, in := range inv.Inputs {
		if parent, ok := g.byOutput[in]; ok {
			node.Parents = append(node.Parents, parent)
		} else {
			node.Parents = append(node.Parents, -1)
		}
	}
	g.nodes[id] = node
	g.order = append(g.order, id)
	g.byOutput[node.OutputName()] = id
	return id
}

// Node returns a node by ID.
func (g *Graph) Node(id NodeID) (*Node, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n, ok := g.nodes[id]
	if !ok {
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
	return append([]NodeID{}, g.order...)
}

// Last returns the most recently added node ID, or -1 for an empty graph.
func (g *Graph) Last() NodeID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if len(g.order) == 0 {
		return -1
	}
	return g.order[len(g.order)-1]
}

// ProducerOf returns the node producing the named dataset, if any.
func (g *Graph) ProducerOf(output string) (NodeID, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	id, ok := g.byOutput[output]
	return id, ok
}

// Ancestors returns target plus all its transitive parents, in topological
// order.
func (g *Graph) Ancestors(target NodeID) ([]NodeID, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if _, ok := g.nodes[target]; !ok {
		return nil, fmt.Errorf("dag: no node %d", target)
	}
	needed := map[NodeID]bool{}
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
	out := make([]NodeID, 0, len(needed))
	for _, id := range g.order {
		if needed[id] {
			out = append(out, id)
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

// Clone returns a deep-enough copy of the graph (nodes are copied; Args
// maps are shared, as invocations are immutable by convention).
func (g *Graph) Clone() *Graph {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := NewGraph()
	out.next = g.next
	for _, id := range g.order {
		src := g.nodes[id]
		node := &Node{ID: src.ID, Inv: src.Inv, Parents: append([]NodeID{}, src.Parents...)}
		out.nodes[id] = node
		out.order = append(out.order, id)
		out.byOutput[node.OutputName()] = id
	}
	return out
}
