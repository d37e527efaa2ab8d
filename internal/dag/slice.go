package dag

import (
	"datachat/internal/plan"
	"datachat/internal/skills"
)

// SliceReport describes what slicing removed and merged.
type SliceReport struct {
	// NodesBefore and NodesAfter are the graph sizes around slicing.
	NodesBefore, NodesAfter int
	// Pruned counts nodes removed because the artifact does not depend on
	// them; Merged counts adjacent nodes folded into one.
	Pruned, Merged int
}

// Slice reduces a graph to the recipe of one target node (§2.3, Figure 5) by
// running the plan pipeline's slicing and fusion passes: every node the
// target does not depend on is pruned, and adjacent steps that a single
// skill call can represent are merged — consecutive KeepRows become one
// AND-ed filter, consecutive LimitRows keep the minimum, and a KeepColumns
// whose projection is a subset of its predecessor's wins outright (see
// plan.FuseArgs, the single home of those rules).
func Slice(g *Graph, target NodeID) (*Graph, SliceReport, error) {
	report := SliceReport{NodesBefore: g.Len()}
	lp, err := lowerGraph(g, target)
	if err != nil {
		return nil, report, err
	}
	if err := plan.RunPasses(lp, nil, plan.SlicePass(), plan.FusePass()); err != nil {
		return nil, report, err
	}
	for _, t := range lp.Trace {
		report.Pruned += t.Pruned
		report.Merged += t.Merged
	}

	// Rebuild a fresh graph from the surviving plan nodes, remapping parent
	// IDs to new IDs. Inputs that referenced pruned/merged nodes by their
	// old generated names keep working because parent wiring is restored
	// explicitly below.
	out := NewGraph()
	idMap := map[int]NodeID{}
	for _, n := range lp.Nodes {
		inv := skills.Invocation{Skill: n.Skill, Output: n.Output, Args: n.Args}
		for _, in := range n.Inputs {
			inv.Inputs = append(inv.Inputs, in.Name)
		}
		newID := out.Add(inv)
		idMap[n.ID] = newID
		// Fix parent wiring explicitly (Add matched by output name; enforce
		// the recorded inputs instead).
		node := out.nodes[newID]
		node.Parents = node.Parents[:0]
		for _, in := range n.Inputs {
			if in.Node == plan.External {
				node.Parents = append(node.Parents, -1)
			} else {
				node.Parents = append(node.Parents, idMap[in.Node])
			}
		}
	}
	report.NodesAfter = out.Len()
	return out, report, nil
}

// IsLinear reports whether the graph is a simple chain: every node has at
// most one parent and at most one consumer. Sliced recipes for single
// artifacts typically are (Figure 5's "simple linear" result).
func IsLinear(g *Graph) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	consumerCount := map[NodeID]int{}
	for _, n := range g.nodes {
		realParents := 0
		for _, p := range n.Parents {
			if p >= 0 {
				realParents++
				consumerCount[p]++
			}
		}
		if realParents > 1 {
			return false
		}
	}
	for _, c := range consumerCount {
		if c > 1 {
			return false
		}
	}
	return true
}
