package dag

import (
	"fmt"
	"sort"
	"strings"

	"datachat/internal/skills"
)

// RenderDOT renders the graph in Graphviz DOT form — the §2.3 "view the
// skill DAG directly in a graphical form" affordance. Nodes are labeled
// with their skill and output name; external dataset inputs appear as
// box-shaped source nodes.
func RenderDOT(g *Graph, reg *skills.Registry) string {
	var b strings.Builder
	b.WriteString("digraph recipe {\n  rankdir=TB;\n  node [shape=ellipse, fontsize=10];\n")
	externals := map[string]bool{}
	for _, id := range g.Order() {
		node, err := g.Node(id)
		if err != nil {
			continue
		}
		label := node.Inv.Skill
		if reg != nil {
			if sentence, err := reg.RenderGEL(*node.Inv); err == nil && len(sentence) <= 60 {
				label = sentence
			}
		}
		fmt.Fprintf(&b, "  n%d [label=%q];\n", id, fmt.Sprintf("%s\n→ %s", label, node.OutputName()))
		for i, p := range node.Parents {
			if p >= 0 {
				fmt.Fprintf(&b, "  n%d -> n%d;\n", p, id)
				continue
			}
			src := node.Inv.Inputs[i]
			if !externals[src] {
				externals[src] = true
				fmt.Fprintf(&b, "  %s [shape=box, label=%q];\n", dotID(src), src)
			}
			fmt.Fprintf(&b, "  %s -> n%d;\n", dotID(src), id)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

func dotID(name string) string {
	var b strings.Builder
	b.WriteString("src_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// RenderASCII renders the graph as an indented tree rooted at its sinks —
// the console-friendly DAG view. Shared subtrees print once and are
// referenced by node id afterwards.
func RenderASCII(g *Graph, reg *skills.Registry) string {
	consumers := map[NodeID]int{}
	for _, id := range g.Order() {
		n, err := g.Node(id)
		if err != nil {
			continue
		}
		for _, p := range n.Parents {
			if p >= 0 {
				consumers[p]++
			}
		}
	}
	var sinks []NodeID
	for _, id := range g.Order() {
		if consumers[id] == 0 {
			sinks = append(sinks, id)
		}
	}
	sort.Slice(sinks, func(a, b int) bool { return sinks[a] < sinks[b] })
	var b strings.Builder
	printed := map[NodeID]bool{}
	var walk func(id NodeID, depth int)
	walk = func(id NodeID, depth int) {
		node, err := g.Node(id)
		if err != nil {
			return
		}
		indent := strings.Repeat("  ", depth)
		label := node.Inv.Skill
		if reg != nil {
			if sentence, err := reg.RenderGEL(*node.Inv); err == nil {
				label = sentence
			}
		}
		if printed[id] {
			fmt.Fprintf(&b, "%s[%d] (see above)\n", indent, id)
			return
		}
		printed[id] = true
		fmt.Fprintf(&b, "%s[%d] %s → %s\n", indent, id, label, node.OutputName())
		for i, p := range node.Parents {
			if p >= 0 {
				walk(p, depth+1)
			} else {
				fmt.Fprintf(&b, "%s  (source: %s)\n", indent, node.Inv.Inputs[i])
			}
		}
	}
	for _, sink := range sinks {
		walk(sink, 0)
	}
	return b.String()
}
