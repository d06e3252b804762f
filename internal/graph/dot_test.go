package graph

import (
	"strings"
	"testing"
)

func TestToDOT(t *testing.T) {
	g := New(3)
	a := g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	h := NewEdgeSet(g.M())
	h.Add(a)
	var sb strings.Builder
	if err := ToDOT(&sb, g, h); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "graph G {") || !strings.HasSuffix(strings.TrimSpace(out), "}") {
		t.Fatalf("malformed DOT:\n%s", out)
	}
	if !strings.Contains(out, "0 -- 1 [color=red, penwidth=2];") {
		t.Fatalf("highlighted edge missing:\n%s", out)
	}
	if !strings.Contains(out, "1 -- 2;") {
		t.Fatalf("plain edge missing:\n%s", out)
	}
}

func TestToDOTWeighted(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1)
	g.SetWeight(0, 2.5)
	var sb strings.Builder
	if err := ToDOT(&sb, g, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `label="2.5"`) {
		t.Fatalf("weight label missing:\n%s", sb.String())
	}
}
