package span

import (
	"math/rand"
	"testing"
	"testing/quick"

	"distspanner/internal/gen"
	"distspanner/internal/graph"
)

func TestCoveredBasics(t *testing.T) {
	// Triangle 0-1-2.
	g := gen.Clique(3)
	e01, _ := g.EdgeIndex(0, 1)
	e12, _ := g.EdgeIndex(1, 2)
	e02, _ := g.EdgeIndex(0, 2)

	h := graph.NewEdgeSet(g.M())
	h.Add(e01)
	h.Add(e12)
	var s graph.Searcher
	if !Covered(&s, g, h, e01, 2) {
		t.Fatal("edge in H must be covered")
	}
	if !Covered(&s, g, h, e02, 2) {
		t.Fatal("edge 0-2 covered by path 0-1-2")
	}
	if Covered(&s, g, h, e02, 1) {
		t.Fatal("edge 0-2 must not be covered at stretch 1")
	}
}

func TestIsKSpannerOnClique(t *testing.T) {
	g := gen.Clique(6)
	// A star centered at 0 is a 2-spanner of the clique.
	h := graph.NewEdgeSet(g.M())
	for v := 1; v < 6; v++ {
		i, _ := g.EdgeIndex(0, v)
		h.Add(i)
	}
	if !IsKSpanner(g, h, 2) {
		t.Fatal("star must be a 2-spanner of the clique")
	}
	if IsKSpanner(g, h, 1) {
		t.Fatal("star is not a 1-spanner of the clique")
	}
	if got := MaxStretch(g, h, -1); got != 2 {
		t.Fatalf("MaxStretch = %d, want 2", got)
	}
}

func TestViolations(t *testing.T) {
	g := gen.Cycle(5)
	empty := graph.NewEdgeSet(g.M())
	v := Violations(g, empty, 2, 0)
	if len(v) != g.M() {
		t.Fatalf("empty H: %d violations, want all %d", len(v), g.M())
	}
	v1 := Violations(g, empty, 2, 2)
	if len(v1) != 2 {
		t.Fatalf("max=2 returned %d violations", len(v1))
	}
	full := graph.Full(g.M())
	if len(Violations(g, full, 1, 0)) != 0 {
		t.Fatal("full graph must 1-span itself")
	}
}

func TestCycleSpannerRemovalLimit(t *testing.T) {
	// In C_n, removing one edge gives an (n-1)-spanner but not an
	// (n-2)-spanner.
	g := gen.Cycle(6)
	h := graph.Full(g.M())
	h.Remove(0)
	if !IsKSpanner(g, h, 5) {
		t.Fatal("C6 minus an edge must be a 5-spanner")
	}
	if IsKSpanner(g, h, 4) {
		t.Fatal("C6 minus an edge must not be a 4-spanner")
	}
}

func TestDirectedSpanner(t *testing.T) {
	// Directed triangle 0->1->2->0 plus shortcut 0->2.
	d := graph.NewDigraph(3)
	e01 := d.AddEdge(0, 1)
	e12 := d.AddEdge(1, 2)
	e20 := d.AddEdge(2, 0)
	e02 := d.AddEdge(0, 2)

	h := graph.NewEdgeSet(d.M())
	h.Add(e01)
	h.Add(e12)
	h.Add(e20)
	if !IsDirectedKSpanner(d, h, 2) {
		t.Fatal("cycle must 2-span the shortcut 0->2 via 0->1->2")
	}
	// Dropping 0->1 breaks coverage: 0->1 has no replacement directed path.
	h2 := graph.NewEdgeSet(d.M())
	h2.Add(e12)
	h2.Add(e20)
	h2.Add(e02)
	if IsDirectedKSpanner(d, h2, 2) {
		t.Fatal("0->1 has no directed 2-path in h2; spanner check must fail")
	}
	viol := DirectedViolations(d, h2, 2, 0)
	if len(viol) != 1 || viol[0] != e01 {
		t.Fatalf("violations = %v, want [%d]", viol, e01)
	}
}

func TestDirectedViolationsDirectionMatters(t *testing.T) {
	// Edges 0->1 and 1->0. Keeping only 0->1 does not cover 1->0.
	d := graph.NewDigraph(2)
	a := d.AddEdge(0, 1)
	b := d.AddEdge(1, 0)
	h := graph.NewEdgeSet(d.M())
	h.Add(a)
	viol := DirectedViolations(d, h, 5, 0)
	if len(viol) != 1 || viol[0] != b {
		t.Fatalf("violations = %v, want [%d]", viol, b)
	}
}

func TestIsSpannerOf(t *testing.T) {
	g := gen.Clique(4)
	target := graph.NewEdgeSet(g.M())
	i01, _ := g.EdgeIndex(0, 1)
	target.Add(i01)
	// Cover {0,1} via 0-2-1.
	h := graph.NewEdgeSet(g.M())
	i02, _ := g.EdgeIndex(0, 2)
	i12, _ := g.EdgeIndex(1, 2)
	h.Add(i02)
	h.Add(i12)
	if !IsSpannerOf(g, target, h, 2) {
		t.Fatal("H must 2-span the single target edge")
	}
	empty := graph.NewEdgeSet(g.M())
	if IsSpannerOf(g, target, empty, 2) {
		t.Fatal("empty H cannot span a non-empty target")
	}
	if !IsSpannerOf(g, empty, empty, 2) {
		t.Fatal("anything spans an empty target")
	}
}

func TestClientServerValid(t *testing.T) {
	// Path 0-1-2 plus chord 0-2. Client = chord; servers = path edges.
	g := graph.New(3)
	e01 := g.AddEdge(0, 1)
	e12 := g.AddEdge(1, 2)
	e02 := g.AddEdge(0, 2)
	clients := graph.NewEdgeSet(g.M())
	clients.Add(e02)
	servers := graph.NewEdgeSet(g.M())
	servers.Add(e01)
	servers.Add(e12)

	h := servers.Clone()
	if !ClientServerValid(g, clients, servers, h, 2) {
		t.Fatal("path must cover the chord client edge")
	}
	// Using the client edge itself is invalid: it is not a server edge.
	bad := graph.NewEdgeSet(g.M())
	bad.Add(e02)
	if ClientServerValid(g, clients, servers, bad, 2) {
		t.Fatal("non-server edge in H must invalidate the solution")
	}
	// Empty H does not cover the coverable client.
	if ClientServerValid(g, clients, servers, graph.NewEdgeSet(g.M()), 2) {
		t.Fatal("empty H cannot be valid here")
	}
}

func TestCoverableClients(t *testing.T) {
	// Star 0-1, 0-2 plus isolated-ish edge 3-4; client {3,4} has no server
	// path if servers exclude it.
	g := graph.New(5)
	e01 := g.AddEdge(0, 1)
	e02 := g.AddEdge(0, 2)
	e12 := g.AddEdge(1, 2)
	e34 := g.AddEdge(3, 4)
	clients := graph.NewEdgeSet(g.M())
	clients.Add(e12)
	clients.Add(e34)
	servers := graph.NewEdgeSet(g.M())
	servers.Add(e01)
	servers.Add(e02)
	cov := CoverableClients(g, clients, servers, 2)
	if !cov.Has(e12) {
		t.Fatal("client {1,2} coverable via 1-0-2")
	}
	if cov.Has(e34) {
		t.Fatal("client {3,4} has no server cover")
	}
}

func TestCost(t *testing.T) {
	g := graph.New(3)
	a := g.AddEdge(0, 1)
	b := g.AddEdge(1, 2)
	h := graph.NewEdgeSet(g.M())
	h.Add(a)
	h.Add(b)
	if Cost(g, h) != 2 {
		t.Fatalf("unweighted cost = %f, want 2", Cost(g, h))
	}
	g.SetWeight(a, 0)
	g.SetWeight(b, 2.5)
	if Cost(g, h) != 2.5 {
		t.Fatalf("weighted cost = %f, want 2.5", Cost(g, h))
	}
}

func TestTwoSpanOK(t *testing.T) {
	g := gen.Clique(3)
	e01, _ := g.EdgeIndex(0, 1)
	e02, _ := g.EdgeIndex(0, 2)
	e12, _ := g.EdgeIndex(1, 2)
	h := graph.NewEdgeSet(g.M())
	h.Add(e01)
	h.Add(e02)
	if !TwoSpanOK(g, h, e12) {
		t.Fatal("{1,2} is 2-spanned by the 0-star")
	}
	if TwoSpanOK(g, h, e01) {
		t.Fatal("a star never 2-spans its own edge")
	}
	// Membership of the edge itself must not count as 2-spanning.
	h2 := graph.NewEdgeSet(g.M())
	h2.Add(e12)
	if TwoSpanOK(g, h2, e12) {
		t.Fatal("edge in H is covered but not 2-spanned")
	}
}

func TestOPTLowerBounds(t *testing.T) {
	g := gen.ConnectedGNP(20, 0.3, 4)
	if got := SpannerOPTLowerBound(g); got != 19 {
		t.Fatalf("lower bound = %d, want n-1 = 19", got)
	}
	clients := graph.Full(g.M())
	vc := ClientVertexCount(g, clients)
	if vc != 20 {
		t.Fatalf("V(C) = %d, want 20 on connected graph with all clients", vc)
	}
	if lb := ClientServerOPTLowerBound(g, clients); lb != 5 {
		t.Fatalf("client-server lower bound = %f, want |V(C)|/4 = 5", lb)
	}
}

// Property: the full edge set is always a k-spanner for every k >= 1, and
// any subset that is a k-spanner is also a (k+1)-spanner.
func TestSpannerMonotonicityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ConnectedGNP(3+rng.Intn(15), 0.3, seed)
		full := graph.Full(g.M())
		if !IsKSpanner(g, full, 1) {
			return false
		}
		// Random subset + patched-up violations at k=3 must also be valid at k=4.
		h := graph.NewEdgeSet(g.M())
		for i := 0; i < g.M(); i++ {
			if rng.Intn(2) == 0 {
				h.Add(i)
			}
		}
		for _, v := range Violations(g, h, 3, 0) {
			h.Add(v)
		}
		return IsKSpanner(g, h, 3) && IsKSpanner(g, h, 4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestStretchStats(t *testing.T) {
	// Star spanner of K5: kept edges have stretch 1, the rest 2.
	g := gen.Clique(5)
	h := graph.NewEdgeSet(g.M())
	for v := 1; v < 5; v++ {
		i, _ := g.EdgeIndex(0, v)
		h.Add(i)
	}
	st := Stretch(g, h, -1)
	if st.Max != 2 {
		t.Fatalf("max stretch = %d, want 2", st.Max)
	}
	if st.Histogram[1] != 4 || st.Histogram[2] != 6 {
		t.Fatalf("histogram = %v, want 4 at 1 and 6 at 2", st.Histogram)
	}
	wantMean := (4.0*1 + 6.0*2) / 10.0
	if st.Mean != wantMean {
		t.Fatalf("mean = %f, want %f", st.Mean, wantMean)
	}
	// Disconnected spanner: Max = -1.
	if got := Stretch(g, graph.NewEdgeSet(g.M()), -1); got.Max != -1 {
		t.Fatalf("empty spanner must report disconnected, got %+v", got)
	}
}

func TestDirectedStretchStats(t *testing.T) {
	d := graph.NewDigraph(3)
	d.AddEdge(0, 1)
	d.AddEdge(1, 2)
	shortcut := d.AddEdge(0, 2)
	h := graph.Full(d.M())
	h.Remove(shortcut)
	st := DirectedStretch(d, h, -1)
	if st.Max != 2 || st.Histogram[2] != 1 || st.Histogram[1] != 2 {
		t.Fatalf("directed stretch = %+v", st)
	}
}

// Stretch and Violations hold one Searcher across their per-edge loops, so
// on G(512, 0.1), about 13k edges, they allocate a few dozen objects at
// most (the scratch growing, the histogram), not a search's worth per edge.
func TestVerificationAllocsIndependentOfEdges(t *testing.T) {
	g := gen.GNP(512, 0.1, 1)
	// A greedy 2-spanner: it is valid, and most edges' searches run to depth 2.
	var s graph.Searcher
	h := graph.NewEdgeSet(g.M())
	for i := 0; i < g.M(); i++ {
		if !Covered(&s, g, h, i, 2) {
			h.Add(i)
		}
	}
	stretch := testing.AllocsPerRun(3, func() {
		if st := Stretch(g, h, 2); st.Max != 2 {
			t.Fatalf("greedy 2-spanner has stretch %d, want 2", st.Max)
		}
	})
	violations := testing.AllocsPerRun(3, func() {
		if v := Violations(g, h, 2, 0); len(v) != 0 {
			t.Fatalf("greedy 2-spanner has %d violations", len(v))
		}
	})
	t.Logf("m=%d |H|=%d: Stretch %.0f allocs, Violations %.0f allocs", g.M(), h.Len(), stretch, violations)
	if stretch > 64 || violations > 64 {
		t.Fatalf("Stretch allocates %.0f and Violations %.0f objects over %d edges, want O(1)", stretch, violations, g.M())
	}
}
