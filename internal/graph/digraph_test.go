package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDigraphBasics(t *testing.T) {
	g := NewDigraph(4)
	i := g.AddEdge(0, 1)
	if i != 0 {
		t.Fatalf("first edge index = %d, want 0", i)
	}
	if !g.HasEdge(0, 1) {
		t.Fatal("HasEdge(0,1) = false")
	}
	if g.HasEdge(1, 0) {
		t.Fatal("directed edge must not be symmetric")
	}
	j := g.AddEdge(1, 0) // anti-parallel edge is distinct
	if j != 1 {
		t.Fatalf("anti-parallel edge index = %d, want 1", j)
	}
	if k := g.AddEdge(0, 1); k != 0 {
		t.Fatalf("duplicate directed edge returned %d, want 0", k)
	}
	if g.M() != 2 {
		t.Fatalf("M() = %d, want 2", g.M())
	}
	if g.OutDegree(0) != 1 || g.InDegree(0) != 1 {
		t.Fatal("degrees wrong")
	}
	mustPanic(t, "self loop", func() { g.AddEdge(2, 2) })
}

func TestDigraphInOut(t *testing.T) {
	g := NewDigraph(3)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	in := g.In(2)
	if len(in) != 2 {
		t.Fatalf("In(2) has %d arcs, want 2", len(in))
	}
	sources := map[int]bool{}
	for _, a := range in {
		sources[a.To] = true
	}
	if !sources[0] || !sources[1] {
		t.Fatalf("In(2) sources = %v, want {0,1}", sources)
	}
	if g.MaxDegree() != 2 {
		t.Fatalf("MaxDegree = %d, want 2 (vertex 2 has in-degree 2)", g.MaxDegree())
	}
}

func TestDigraphDistWithin(t *testing.T) {
	// 0 -> 1 -> 2 -> 3 and shortcut 0 -> 3.
	g := NewDigraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	short := g.AddEdge(0, 3)

	full := Full(g.M())
	if d := g.DistWithin(0, 3, full, -1); d != 1 {
		t.Fatalf("dist(0,3) = %d, want 1 via shortcut", d)
	}
	h := Full(g.M())
	h.Remove(short)
	if d := g.DistWithin(0, 3, h, -1); d != 3 {
		t.Fatalf("dist(0,3) without shortcut = %d, want 3", d)
	}
	if d := g.DistWithin(0, 3, h, 2); d != -1 {
		t.Fatalf("bounded dist = %d, want -1", d)
	}
	if d := g.DistWithin(3, 0, full, -1); d != -1 {
		t.Fatalf("reverse dist = %d, want -1 (directed)", d)
	}
}

func TestDigraphWeights(t *testing.T) {
	g := NewDigraph(3)
	a := g.AddEdge(0, 1)
	if g.Weight(a) != 1 {
		t.Fatal("default weight must be 1")
	}
	g.SetWeight(a, 0)
	if g.Weight(a) != 0 {
		t.Fatal("zero weights must be allowed (paper's weighted constructions use them)")
	}
	b := g.AddEdge(1, 2)
	if g.Weight(b) != 1 {
		t.Fatal("new edge default weight must be 1")
	}
	s := NewEdgeSet(g.M())
	s.Add(a)
	s.Add(b)
	if g.TotalWeight(s) != 1 {
		t.Fatalf("TotalWeight = %f, want 1", g.TotalWeight(s))
	}
}

func TestUnderlying(t *testing.T) {
	g := NewDigraph(3)
	e01 := g.AddEdge(0, 1)
	e10 := g.AddEdge(1, 0)
	e12 := g.AddEdge(1, 2)
	u, mapping := g.Underlying()
	if u.M() != 2 {
		t.Fatalf("underlying M() = %d, want 2 (anti-parallel collapse)", u.M())
	}
	if mapping[e01] != mapping[e10] {
		t.Fatal("anti-parallel edges must map to the same undirected edge")
	}
	if mapping[e12] == mapping[e01] {
		t.Fatal("distinct edges collapsed")
	}
	if !u.HasEdge(0, 1) || !u.HasEdge(1, 2) {
		t.Fatal("underlying graph missing edges")
	}
}

func TestDigraphClone(t *testing.T) {
	g := NewDigraph(3)
	g.AddEdge(0, 1)
	g.SetWeight(0, 5)
	c := g.Clone()
	c.AddEdge(1, 2)
	c.SetWeight(0, 7)
	if g.M() != 1 || g.Weight(0) != 5 {
		t.Fatal("clone mutation leaked to original")
	}
}

// Property: in a random DAG-ish digraph, DistWithin(u,v) is -1 or at most
// n-1, and dist(u,u) is always 0.
func TestDigraphDistBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := NewDigraph(n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Float64() < 0.2 {
					g.AddEdge(u, v)
				}
			}
		}
		full := Full(g.M())
		for trial := 0; trial < 5; trial++ {
			u, v := rng.Intn(n), rng.Intn(n)
			d := g.DistWithin(u, v, full, -1)
			if u == v && d != 0 {
				return false
			}
			if d != -1 && (d < 0 || d > n-1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Digraph.DistWithin equals a plain BFS along the out-arcs of the
// H-subgraph cut off at maxDepth, for random edge subsets H and depth caps
// -1..3, with every query through one Searcher whose epoch wraps.
func TestDigraphDistWithinMatchesBFSProperty(t *testing.T) {
	s := Searcher{epoch: math.MaxUint32 - 1000}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := NewDigraph(n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Float64() < 0.2 {
					g.AddEdge(u, v)
				}
			}
		}
		for _, H := range []*EdgeSet{Full(g.M()), randomSubset(rng, g.M())} {
			for maxDepth := -1; maxDepth <= 3; maxDepth++ {
				for u := 0; u < n; u++ {
					for v := 0; v < n; v++ {
						want := refDistWithin(g.Out, n, u, v, H, maxDepth)
						if s.DirectedDistWithin(g, u, v, H, maxDepth) != want || g.DistWithin(u, v, H, maxDepth) != want {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	if s.epoch >= math.MaxUint32-1000 {
		t.Fatalf("searcher epoch %d never wrapped", s.epoch)
	}
}
