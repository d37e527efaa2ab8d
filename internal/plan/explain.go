package plan

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Explain is the serializable report of one planned execution: the surviving
// nodes, the consolidated SQL fragments, and what every pass did. It renders
// as text for humans and round-trips through JSON for tools.
type Explain struct {
	// Target is the output name the plan materializes.
	Target    string            `json:"target"`
	Nodes     []ExplainNode     `json:"nodes"`
	Fragments []ExplainFragment `json:"fragments,omitempty"`
	Passes    []PassTrace       `json:"passes"`
	// Cost is the whole-plan estimate after the final pass (nil when the
	// cost model was off).
	Cost *PlanCost `json:"cost,omitempty"`
}

// ExplainNode is one surviving plan node.
type ExplainNode struct {
	ID     int      `json:"id"`
	Skill  string   `json:"skill"`
	Args   string   `json:"args,omitempty"` // canonical: sorted keys, JSON values
	Inputs []string `json:"inputs,omitempty"`
	Output string   `json:"output"`
	// Fingerprint is a short prefix of the canonical fingerprint.
	Fingerprint string   `json:"fingerprint,omitempty"`
	Absorbed    []int    `json:"absorbed,omitempty"`
	Cached      bool     `json:"cached,omitempty"`
	Pushdown    []string `json:"pushdown,omitempty"`
	Aliases     []string `json:"aliases,omitempty"`
	// Cost is the node's estimated cost (nil when the cost model was off);
	// Substituted marks a budget-degraded scan.
	Cost           *NodeCost `json:"cost,omitempty"`
	Substituted    bool      `json:"substituted,omitempty"`
	SubstituteNote string    `json:"substitute_note,omitempty"`
}

// ExplainFragment is one consolidated SQL fragment.
type ExplainFragment struct {
	Nodes    []int  `json:"nodes"`
	Base     string `json:"base"`
	SQL      string `json:"sql"`
	Blocks   int    `json:"blocks"`
	DagNodes int    `json:"dag_nodes"`
}

// NewExplain builds the report for a plan that has been through the pass
// pipeline.
func NewExplain(p *Plan) *Explain {
	e := &Explain{Passes: append([]PassTrace{}, p.Trace...)}
	if p.Cost != nil {
		c := *p.Cost
		e.Cost = &c
	}
	if t := p.Node(p.Target); t != nil {
		e.Target = t.OutputName()
	}
	for _, n := range p.Nodes {
		en := ExplainNode{
			ID:     n.ID,
			Skill:  n.Skill,
			Args:   canonicalArgs(n),
			Output: n.OutputName(),
			Cached: n.Cached,
		}
		// Copy-only-when-present keeps the report DeepEqual to its own JSON
		// round trip (omitempty drops empty slices).
		if len(n.Absorbed) > 0 {
			en.Absorbed = append([]int{}, n.Absorbed...)
		}
		if len(n.Pushdown) > 0 {
			en.Pushdown = append([]string{}, n.Pushdown...)
		}
		if len(n.Aliases) > 0 {
			en.Aliases = append([]string{}, n.Aliases...)
		}
		if n.Cost != nil {
			c := *n.Cost
			en.Cost = &c
		}
		en.Substituted = n.Substituted
		en.SubstituteNote = n.SubstituteNote
		if len(n.Fingerprint) >= 12 {
			en.Fingerprint = n.Fingerprint[:12]
		} else {
			en.Fingerprint = n.Fingerprint
		}
		for _, in := range n.Inputs {
			if in.Node == External {
				en.Inputs = append(en.Inputs, in.Name)
			} else {
				en.Inputs = append(en.Inputs, fmt.Sprintf("#%d", in.Node))
			}
		}
		e.Nodes = append(e.Nodes, en)
	}
	for _, f := range p.Fragments {
		base := f.Base.Name
		if f.Base.Node != External {
			base = fmt.Sprintf("#%d", f.Base.Node)
		}
		e.Fragments = append(e.Fragments, ExplainFragment{
			Nodes:    append([]int{}, f.Nodes...),
			Base:     base,
			SQL:      f.SQL,
			Blocks:   f.Blocks,
			DagNodes: f.DagNodes,
		})
	}
	return e
}

// TargetSQL returns the SQL of the fragment whose tail is the target, the
// statement the plan runs to compute it. It fails when no fragment ends
// there: the target is not a relational skill, or it is a cache hit.
func (e *Explain) TargetSQL() (string, error) {
	for _, n := range e.Nodes {
		if n.Output != e.Target {
			continue
		}
		for _, f := range e.Fragments {
			if f.Nodes[len(f.Nodes)-1] == n.ID {
				return f.SQL, nil
			}
		}
	}
	return "", fmt.Errorf("plan: no SQL fragment computes %s", e.Target)
}

func canonicalArgs(n *Node) string {
	if len(n.Args) == 0 {
		return ""
	}
	keys := make([]string, 0, len(n.Args))
	for k := range n.Args {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		v, err := json.Marshal(n.Args[k])
		if err != nil {
			v = []byte(fmt.Sprintf("%q", fmt.Sprint(n.Args[k])))
		}
		parts = append(parts, fmt.Sprintf("%s=%s", k, v))
	}
	return strings.Join(parts, ", ")
}

// String renders the report as indented text, stable enough for golden-file
// tests.
func (e *Explain) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "EXPLAIN target=%s\n", e.Target)
	b.WriteString("passes:\n")
	var prevScan int64
	prevKnown := false
	for _, t := range e.Passes {
		fired := "-"
		if t.Fired {
			fired = "fired"
		}
		fmt.Fprintf(&b, "  %-17s %s", t.Pass, fired)
		if t.Pruned > 0 {
			fmt.Fprintf(&b, " pruned=%d", t.Pruned)
		}
		if t.Merged > 0 {
			fmt.Fprintf(&b, " merged=%d", t.Merged)
		}
		if t.Dedup > 0 {
			fmt.Fprintf(&b, " dedup=%d", t.Dedup)
		}
		if t.Reordered > 0 {
			fmt.Fprintf(&b, " reordered=%d", t.Reordered)
		}
		if t.Substituted > 0 {
			fmt.Fprintf(&b, " substituted=%d", t.Substituted)
		}
		if t.Chains > 0 {
			fmt.Fprintf(&b, " chains=%d nodes=%d", t.Chains, t.NodesConsolidated)
		}
		if t.Pushdowns > 0 {
			fmt.Fprintf(&b, " pushdowns=%d", t.Pushdowns)
		}
		if t.CacheHits > 0 {
			fmt.Fprintf(&b, " hits=%d", t.CacheHits)
		}
		if t.Cost != nil {
			fmt.Fprintf(&b, " est_scan=%d", t.Cost.ScanBytes)
			if prevKnown && t.Cost.ScanBytes != prevScan {
				fmt.Fprintf(&b, " (%+d)", t.Cost.ScanBytes-prevScan)
			}
			prevScan, prevKnown = t.Cost.ScanBytes, true
		}
		b.WriteByte('\n')
	}
	if e.Cost != nil {
		fmt.Fprintf(&b, "cost: rows~%d bytes~%d scan~%d latency~%s dollars~%.6f",
			e.Cost.Rows, e.Cost.Bytes, e.Cost.ScanBytes, e.Cost.Latency, e.Cost.Dollars)
		if e.Cost.Substituted > 0 {
			fmt.Fprintf(&b, " substituted=%d", e.Cost.Substituted)
		}
		b.WriteByte('\n')
	}
	b.WriteString("nodes:\n")
	for _, n := range e.Nodes {
		fmt.Fprintf(&b, "  #%d %s", n.ID, n.Skill)
		if n.Args != "" {
			fmt.Fprintf(&b, "(%s)", n.Args)
		}
		if len(n.Inputs) > 0 {
			fmt.Fprintf(&b, " <- %s", strings.Join(n.Inputs, ", "))
		}
		fmt.Fprintf(&b, " => %s", n.Output)
		if len(n.Absorbed) > 0 {
			fmt.Fprintf(&b, " [fused %s]", joinInts(n.Absorbed))
		}
		if n.Cached {
			b.WriteString(" [cached]")
		}
		if len(n.Pushdown) > 0 {
			fmt.Fprintf(&b, " [pushdown %s]", strings.Join(n.Pushdown, ","))
		}
		if len(n.Aliases) > 0 {
			fmt.Fprintf(&b, " [aka %s]", strings.Join(n.Aliases, ","))
		}
		if n.Cost != nil {
			fmt.Fprintf(&b, " [rows~%d", n.Cost.Rows)
			if n.Cost.ScanBytes > 0 {
				fmt.Fprintf(&b, " scan~%d", n.Cost.ScanBytes)
			}
			b.WriteByte(']')
		}
		if n.Substituted {
			b.WriteString(" [substituted]")
		}
		b.WriteByte('\n')
	}
	if len(e.Fragments) > 0 {
		b.WriteString("fragments:\n")
		for i, f := range e.Fragments {
			fmt.Fprintf(&b, "  F%d nodes=[%s] base=%s blocks=%d dag_nodes=%d\n",
				i, joinInts(f.Nodes), f.Base, f.Blocks, f.DagNodes)
			fmt.Fprintf(&b, "     %s\n", f.SQL)
		}
	}
	return b.String()
}

func joinInts(v []int) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("#%d", x)
	}
	return strings.Join(parts, " ")
}

// Encode serializes the report as indented JSON.
func (e *Explain) Encode() ([]byte, error) {
	return json.MarshalIndent(e, "", "  ")
}

// DecodeExplain parses a report produced by Encode.
func DecodeExplain(data []byte) (*Explain, error) {
	var e Explain
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("plan: decoding explain: %w", err)
	}
	return &e, nil
}
