package graph

import "testing"

func TestEdgesCopySemantics(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	edges := g.Edges()
	if len(edges) != 2 {
		t.Fatalf("Edges() = %v", edges)
	}
	edges[0] = Edge{U: 9, V: 9} // mutating the copy must not leak
	if g.Edge(0).U == 9 {
		t.Fatal("Edges() returned internal storage")
	}

	d := NewDigraph(3)
	d.AddEdge(0, 1)
	de := d.Edges()
	de[0] = Edge{U: 9, V: 9}
	if d.Edge(0).U == 9 {
		t.Fatal("Digraph.Edges() returned internal storage")
	}
}

func TestDigraphOutAccessors(t *testing.T) {
	d := NewDigraph(4)
	d.AddEdge(2, 0)
	d.AddEdge(2, 3)
	d.AddEdge(1, 2)
	out := d.Out(2)
	if len(out) != 2 {
		t.Fatalf("Out(2) has %d arcs, want 2", len(out))
	}
}
