package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmptyGraph(t *testing.T) {
	g := New(5)
	if g.N() != 5 {
		t.Fatalf("N() = %d, want 5", g.N())
	}
	if g.M() != 0 {
		t.Fatalf("M() = %d, want 0", g.M())
	}
	if g.MaxDegree() != 0 {
		t.Fatalf("MaxDegree() = %d, want 0", g.MaxDegree())
	}
	if g.AvgDegree() != 0 {
		t.Fatalf("AvgDegree() = %f, want 0", g.AvgDegree())
	}
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(4)
	i := g.AddEdge(2, 1)
	if i != 0 {
		t.Fatalf("first edge index = %d, want 0", i)
	}
	if got := g.Edge(0); got != (Edge{U: 1, V: 2}) {
		t.Fatalf("Edge(0) = %v, want canonical {1 2}", got)
	}
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Fatal("HasEdge should be symmetric")
	}
	if g.HasEdge(0, 3) {
		t.Fatal("HasEdge(0,3) = true for absent edge")
	}
	if j := g.AddEdge(1, 2); j != 0 {
		t.Fatalf("duplicate AddEdge returned %d, want existing index 0", j)
	}
	if g.M() != 1 {
		t.Fatalf("M() = %d after duplicate insert, want 1", g.M())
	}
	if g.Degree(1) != 1 || g.Degree(2) != 1 || g.Degree(0) != 0 {
		t.Fatal("degrees wrong after single edge")
	}
}

func TestAddEdgePanics(t *testing.T) {
	g := New(3)
	mustPanic(t, "self-loop", func() { g.AddEdge(1, 1) })
	mustPanic(t, "out of range", func() { g.AddEdge(0, 3) })
	mustPanic(t, "negative", func() { g.AddEdge(-1, 0) })
}

func TestEdgeOther(t *testing.T) {
	e := Edge{U: 3, V: 7}
	if e.Other(3) != 7 || e.Other(7) != 3 {
		t.Fatal("Other returned wrong endpoint")
	}
	mustPanic(t, "non-endpoint", func() { e.Other(5) })
}

func TestBFSPath(t *testing.T) {
	// Path 0-1-2-3-4 plus isolated vertex 5.
	g := New(6)
	for i := 0; i < 4; i++ {
		g.AddEdge(i, i+1)
	}
	dist := g.BFS(0)
	want := []int{0, 1, 2, 3, 4, -1}
	for i, d := range want {
		if dist[i] != d {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], d)
		}
	}
	if g.Connected() {
		t.Fatal("graph with isolated vertex reported connected")
	}
}

func TestConnected(t *testing.T) {
	if !New(0).Connected() || !New(1).Connected() {
		t.Fatal("empty and singleton graphs must be connected")
	}
	g := New(3)
	g.AddEdge(0, 1)
	if g.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	g.AddEdge(1, 2)
	if !g.Connected() {
		t.Fatal("path graph reported disconnected")
	}
}

func TestBall(t *testing.T) {
	// Star with center 0 and leaves 1..4, plus an edge 1-2.
	g := New(5)
	for i := 1; i < 5; i++ {
		g.AddEdge(0, i)
	}
	g.AddEdge(1, 2)
	if got := g.Ball(1, 0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Ball(1,0) = %v, want [1]", got)
	}
	if got := g.Ball(1, 1); len(got) != 3 { // 1, 0, 2
		t.Fatalf("Ball(1,1) = %v, want 3 vertices", got)
	}
	if got := g.Ball(1, 2); len(got) != 5 {
		t.Fatalf("Ball(1,2) = %v, want all 5 vertices", got)
	}
	if got := g.Ball(0, -1); got != nil {
		t.Fatalf("Ball with negative depth = %v, want nil", got)
	}
}

func TestDistWithin(t *testing.T) {
	// Triangle 0-1-2 plus pendant 3 on vertex 2.
	g := New(4)
	e01 := g.AddEdge(0, 1)
	e12 := g.AddEdge(1, 2)
	e02 := g.AddEdge(0, 2)
	e23 := g.AddEdge(2, 3)

	all := Full(g.M())
	if d := g.DistWithin(0, 3, all, -1); d != 2 {
		t.Fatalf("dist(0,3) in full graph = %d, want 2", d)
	}
	// Remove the shortcut 0-2: dist(0,2) becomes 2 through vertex 1.
	h := Full(g.M())
	h.Remove(e02)
	if d := g.DistWithin(0, 2, h, -1); d != 2 {
		t.Fatalf("dist(0,2) without shortcut = %d, want 2", d)
	}
	if d := g.DistWithin(0, 2, h, 1); d != -1 {
		t.Fatalf("bounded dist(0,2) with maxDepth=1 = %d, want -1", d)
	}
	// Keep only edge 0-1: vertex 3 unreachable.
	only := NewEdgeSet(g.M())
	only.Add(e01)
	if d := g.DistWithin(0, 3, only, -1); d != -1 {
		t.Fatalf("dist(0,3) with only {0,1} = %d, want -1", d)
	}
	if d := g.DistWithin(2, 2, NewEdgeSet(g.M()), -1); d != 0 {
		t.Fatalf("dist(v,v) = %d, want 0", d)
	}
	_ = e12
	_ = e23
}

func TestWeights(t *testing.T) {
	g := New(3)
	a := g.AddEdge(0, 1)
	b := g.AddEdge(1, 2)
	if g.Weighted() {
		t.Fatal("fresh graph reported weighted")
	}
	if g.Weight(a) != 1 || g.Weight(b) != 1 {
		t.Fatal("unweighted graph must report weight 1")
	}
	g.SetWeight(a, 2.5)
	if !g.Weighted() {
		t.Fatal("graph not weighted after SetWeight")
	}
	if g.Weight(a) != 2.5 {
		t.Fatalf("Weight(a) = %f, want 2.5", g.Weight(a))
	}
	if g.Weight(b) != 1 {
		t.Fatalf("Weight(b) = %f, want default 1", g.Weight(b))
	}
	// New edges after weighting default to weight 1.
	c := g.AddEdge(0, 2)
	if g.Weight(c) != 1 {
		t.Fatalf("Weight(c) = %f, want 1", g.Weight(c))
	}
	s := NewEdgeSet(g.M())
	s.Add(a)
	s.Add(c)
	if got := g.TotalWeight(s); got != 3.5 {
		t.Fatalf("TotalWeight = %f, want 3.5", got)
	}
	mustPanic(t, "negative weight", func() { g.SetWeight(a, -1) })
}

func TestCloneIndependence(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.SetWeight(0, 4)
	c := g.Clone()
	c.AddEdge(1, 2)
	c.SetWeight(0, 9)
	if g.M() != 1 {
		t.Fatalf("clone mutation leaked: original M() = %d", g.M())
	}
	if g.Weight(0) != 4 {
		t.Fatalf("clone weight mutation leaked: %f", g.Weight(0))
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := New(5)
	g.AddEdge(2, 4)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	got := g.Neighbors(2)
	want := []int{0, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("Neighbors = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Neighbors = %v, want %v", got, want)
		}
	}
}

// Property: for random graphs, BFS distances satisfy the triangle inequality
// across each edge (|dist[u]-dist[v]| <= 1 for every edge {u,v}).
func TestBFSEdgeLipschitzProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.3 {
					g.AddEdge(u, v)
				}
			}
		}
		dist := g.BFS(0)
		for i := 0; i < g.M(); i++ {
			e := g.Edge(i)
			du, dv := dist[e.U], dist[e.V]
			if (du == -1) != (dv == -1) {
				return false // edge between reachable and unreachable vertex
			}
			if du != -1 && abs(du-dv) > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: DistWithin equals a plain BFS over the H-subgraph cut off at
// maxDepth, for random edge subsets H and depth caps -1..3. Every query of
// every instance goes through one Searcher whose epoch wraps along the
// way, so a stale visit mark would show as a wrong distance.
func TestDistWithinMatchesBFSProperty(t *testing.T) {
	s := Searcher{epoch: math.MaxUint32 - 1000}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.25 {
					g.AddEdge(u, v)
				}
			}
		}
		for _, H := range []*EdgeSet{Full(g.M()), randomSubset(rng, g.M())} {
			for maxDepth := -1; maxDepth <= 3; maxDepth++ {
				for u := 0; u < n; u++ {
					for v := 0; v < n; v++ {
						want := refDistWithin(g.Adj, n, u, v, H, maxDepth)
						if s.DistWithin(g, u, v, H, maxDepth) != want || g.DistWithin(u, v, H, maxDepth) != want {
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

// When the epoch counter wraps, the marks left by earlier searches must be
// cleared: the epoch that follows the wrap was used before.
func TestSearcherEpochWrapClearsMarks(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	full := Full(g.M())
	var s Searcher
	if d := s.DistWithin(g, 0, 2, full, -1); d != 2 {
		t.Fatalf("dist(0,2) = %d, want 2", d)
	}
	s.epoch = math.MaxUint32 // the next search wraps to the first one's epoch
	if d := s.DistWithin(g, 0, 2, full, -1); d != 2 {
		t.Fatalf("dist(0,2) after the epoch wrapped = %d, want 2", d)
	}
}

// randomSubset returns a random subset of m edge indices, each kept with
// one probability drawn per subset.
func randomSubset(rng *rand.Rand, m int) *EdgeSet {
	keep := rng.Float64()
	H := NewEdgeSet(m)
	for i := 0; i < m; i++ {
		if rng.Float64() < keep {
			H.Add(i)
		}
	}
	return H
}

// refDistWithin is the reference DistWithin: a breadth-first search over
// the arcs whose edges are in H, recording every vertex's distance, then
// cut off at maxDepth.
func refDistWithin(arcs func(int) []Arc, n, u, v int, H *EdgeSet, maxDepth int) int {
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[u] = 0
	queue := []int{u}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, a := range arcs(x) {
			if H.Has(a.Edge) && dist[a.To] < 0 {
				dist[a.To] = dist[x] + 1
				queue = append(queue, a.To)
			}
		}
	}
	if maxDepth >= 0 && dist[v] > maxDepth {
		return -1
	}
	return dist[v]
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	fn()
}

// Property: Ball(v, d) is exactly the BFS level set up to depth d.
func TestBallMatchesBFSProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.25 {
					g.AddEdge(u, v)
				}
			}
		}
		v := rng.Intn(n)
		d := rng.Intn(4)
		dist := g.BFS(v)
		ball := g.Ball(v, d)
		inBall := make(map[int]bool, len(ball))
		for _, u := range ball {
			inBall[u] = true
		}
		for u := 0; u < n; u++ {
			want := dist[u] >= 0 && dist[u] <= d
			if inBall[u] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
