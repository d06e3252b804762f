package graph

import (
	"fmt"
	"io"
)

// ToDOT writes g in Graphviz DOT format. Edges in highlight (may be nil)
// are drawn bold red — the conventional way to show a spanner inside its
// graph. Weighted graphs get weight labels.
func ToDOT(w io.Writer, g *Graph, highlight *EdgeSet) error {
	if _, err := fmt.Fprintln(w, "graph G {"); err != nil {
		return err
	}
	for v := 0; v < g.N(); v++ {
		if _, err := fmt.Fprintf(w, "  %d;\n", v); err != nil {
			return err
		}
	}
	for i := 0; i < g.M(); i++ {
		e := g.Edge(i)
		attrs := ""
		if highlight != nil && highlight.Has(i) {
			attrs = ` [color=red, penwidth=2]`
		}
		if g.Weighted() {
			if attrs == "" {
				attrs = fmt.Sprintf(` [label="%g"]`, g.Weight(i))
			} else {
				attrs = fmt.Sprintf(` [color=red, penwidth=2, label="%g"]`, g.Weight(i))
			}
		}
		if _, err := fmt.Fprintf(w, "  %d -- %d%s;\n", e.U, e.V, attrs); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
