package cfg

import (
	"fmt"
	"strings"

	"repro/internal/graph"
)

// DOT renders the CFG in Graphviz syntax. highlight marks blocks (by
// leader) drawn filled — the attack-relevant set, for figures like the
// paper's Fig. 1 and Fig. 4.
func (c *CFG) DOT(highlight map[uint64]bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  node [shape=box, fontname=\"monospace\"];\n", c.Prog.Name)
	for k := range c.blocks {
		bb := &c.blocks[k]
		leader := bb.Leader
		var lines []string
		for _, in := range bb.Insns {
			lines = append(lines, in.String())
		}
		attrs := ""
		if highlight[leader] {
			attrs = ", style=filled, fillcolor=lightcoral"
		}
		fmt.Fprintf(&b, "  n%x [label=\"0x%x:\\l%s\\l\"%s];\n",
			leader, leader, strings.Join(lines, "\\l"), attrs)
	}
	for _, e := range c.G.Edges() {
		fmt.Fprintf(&b, "  n%x -> n%x;\n", e.From, e.To)
	}
	b.WriteString("}\n")
	return b.String()
}

// GraphDOT renders any leader-keyed digraph (e.g. the attack-relevant
// graph) with block summaries from this CFG.
func (c *CFG) GraphDOT(g *graph.Digraph, title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  node [shape=box, fontname=\"monospace\"];\n", title)
	for _, n := range g.Nodes() {
		label := fmt.Sprintf("0x%x", n)
		if bb, ok := c.Block(n); ok {
			label = fmt.Sprintf("0x%x (%d insns)", n, len(bb.Insns))
		}
		fmt.Fprintf(&b, "  n%x [label=%q];\n", n, label)
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "  n%x -> n%x;\n", e.From, e.To)
	}
	b.WriteString("}\n")
	return b.String()
}
