package graph

import (
	"math/rand"
	"sync"
	"testing"
)

// addEdgeBuild is the reference FromEdges must reproduce: New(n), then
// AddEdge for every pair in order.
func addEdgeBuild(n int, edges []Edge) *Graph {
	g := New(n)
	for _, e := range edges {
		g.AddEdge(e.U, e.V)
	}
	return g
}

// sameAdjacency fails t unless got and want have the same edges in index
// order and every vertex the same adjacency list, element by element.
func sameAdjacency(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("n, m = %d, %d, want %d, %d", got.N(), got.M(), want.N(), want.M())
	}
	for i := 0; i < got.M(); i++ {
		if got.Edge(i) != want.Edge(i) {
			t.Fatalf("edge %d = %v, want %v", i, got.Edge(i), want.Edge(i))
		}
	}
	for v := 0; v < got.N(); v++ {
		a, b := got.Adj(v), want.Adj(v)
		if len(a) != len(b) {
			t.Fatalf("vertex %d: degree %d, want %d", v, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d arc %d = %+v, want %+v", v, i, a[i], b[i])
			}
		}
	}
}

// TestFromEdgesMatchesAddEdge builds random simple graphs, with each pair
// in a random orientation, both ways.
func TestFromEdgesMatchesAddEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(30)
		var edges []Edge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.3 {
					if rng.Intn(2) == 0 {
						edges = append(edges, Edge{U: v, V: u})
					} else {
						edges = append(edges, Edge{U: u, V: v})
					}
				}
			}
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		want := addEdgeBuild(n, edges)
		sameAdjacency(t, FromEdges(n, edges), want)
	}
}

func TestFromEdgesPanics(t *testing.T) {
	for name, edges := range map[string][]Edge{
		"self-loop":         {{0, 1}, {2, 2}},
		"out of range":      {{0, 1}, {1, 3}},
		"negative":          {{-1, 0}},
		"repeated pair":     {{0, 1}, {1, 2}, {0, 1}},
		"repeated reversed": {{0, 1}, {1, 2}, {2, 1}},
	} {
		mustPanic(t, name, func() { FromEdges(3, edges) })
	}
}

// TestFromEdgesThenAddEdge checks that an AddEdge after FromEdges grows
// only the lists of the new edge's endpoints: every list is carved from
// one array, and appending to one must not write over its neighbor's.
func TestFromEdgesThenAddEdge(t *testing.T) {
	edges := []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}}
	g := FromEdges(6, append([]Edge(nil), edges...))
	want := addEdgeBuild(6, edges)
	for _, e := range []Edge{{1, 3}, {0, 5}, {2, 4}} {
		g.AddEdge(e.U, e.V)
		want.AddEdge(e.U, e.V)
		sameAdjacency(t, g, want)
	}
}

// TestFingerprintCache checks that a cached fingerprint follows every
// change to the graph and that a clone starts from its own.
func TestFingerprintCache(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}, {1, 2}})
	base := g.Fingerprint()
	c := g.Clone()
	g.AddEdge(2, 3)
	added := g.Fingerprint()
	if added == base {
		t.Fatal("AddEdge after a cached Fingerprint kept the fingerprint")
	}
	if added != addEdgeBuild(4, []Edge{{0, 1}, {1, 2}, {2, 3}}).Fingerprint() {
		t.Fatal("fingerprint after AddEdge differs from a fresh build's")
	}
	g.SetWeight(0, 2)
	if g.Fingerprint() == added {
		t.Fatal("SetWeight after a cached Fingerprint kept the fingerprint")
	}
	if c.Fingerprint() != base {
		t.Fatal("a clone taken before the changes has another fingerprint")
	}
	c.SetWeight(1, 3)
	if c.Fingerprint() == base || g.Fingerprint() == c.Fingerprint() {
		t.Fatal("a clone's weight change did not move its own fingerprint alone")
	}
}

// TestFingerprintConcurrent has several goroutines fingerprint one graph
// at once, as the shard workers of one in-process run do; run it under
// -race.
func TestFingerprintConcurrent(t *testing.T) {
	g := addEdgeBuild(50, []Edge{{0, 1}, {1, 2}, {2, 3}, {10, 40}})
	want := g.Clone().Fingerprint()
	var wg sync.WaitGroup
	got := make([]uint64, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = g.Fingerprint()
		}(i)
	}
	wg.Wait()
	for i, fp := range got {
		if fp != want {
			t.Errorf("goroutine %d: fingerprint %x, want %x", i, fp, want)
		}
	}
}
