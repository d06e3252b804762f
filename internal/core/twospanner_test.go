package core

import (
	"math"
	"testing"
	"unsafe"

	"distspanner/internal/gen"
	"distspanner/internal/graph"
	"distspanner/internal/span"
)

func mustTwoSpanner(t *testing.T, g *graph.Graph, seed int64) *Result {
	t.Helper()
	res, err := TwoSpanner(g, Options{Seed: seed})
	if err != nil {
		t.Fatalf("TwoSpanner failed: %v", err)
	}
	return res
}

func TestTwoSpannerValidOnFamilies(t *testing.T) {
	families := map[string]*graph.Graph{
		"clique":     gen.Clique(12),
		"cycle":      gen.Cycle(15),
		"path":       gen.Path(10),
		"star":       gen.Star(14),
		"bipartite":  gen.CompleteBipartite(5, 7),
		"hypercube":  gen.Hypercube(4),
		"grid":       gen.Grid(4, 5),
		"gnp-sparse": gen.ConnectedGNP(40, 0.05, 1),
		"gnp-dense":  gen.ConnectedGNP(30, 0.4, 2),
		"planted":    gen.PlantedStars(4, 6, 0.5, 3),
	}
	for name, g := range families {
		res := mustTwoSpanner(t, g, 7)
		if !span.IsKSpanner(g, res.Spanner, 2) {
			t.Errorf("%s: output is not a 2-spanner", name)
		}
		if res.Fallbacks != 0 {
			t.Errorf("%s: Claim 4.4 fallback taken %d times, want 0", name, res.Fallbacks)
		}
	}
}

func TestTwoSpannerCliqueSavesEdges(t *testing.T) {
	// On K_n the optimum is a star with n-1 edges; the algorithm must get
	// within O(log(m/n)) of it, and certainly far below m.
	g := gen.Clique(16)
	res := mustTwoSpanner(t, g, 3)
	opt := float64(g.N() - 1)
	ratio := res.Cost / opt
	bound := ratioBound(g)
	if ratio > bound {
		t.Fatalf("clique ratio %.2f exceeds analysis bound %.2f", ratio, bound)
	}
	if res.Cost >= float64(g.M()) {
		t.Fatalf("no sparsification at all: cost %f of %d edges", res.Cost, g.M())
	}
}

// ratioBound is the analysis bound 8*sum over O(log(m/n))+2 cost classes
// with per-class constant <= 9 (Lemma 4.2): conservatively 80*(log2(m/n)+2).
func ratioBound(g *graph.Graph) float64 {
	r := float64(g.M()) / float64(g.N())
	if r < 2 {
		r = 2
	}
	return 80 * (math.Log2(r) + 2)
}

func TestTwoSpannerGuaranteedRatioManySeeds(t *testing.T) {
	// The paper's headline: the ratio holds ALWAYS, not in expectation.
	// Run many seeds on a fixed instance and check the bound on every run.
	g := gen.ConnectedGNP(24, 0.35, 5)
	opt := exactOPT(t, g)
	bound := ratioBound(g)
	for seed := int64(0); seed < 12; seed++ {
		res := mustTwoSpanner(t, g, seed)
		if !span.IsKSpanner(g, res.Spanner, 2) {
			t.Fatalf("seed %d: invalid spanner", seed)
		}
		ratio := res.Cost / opt
		if ratio > bound {
			t.Fatalf("seed %d: ratio %.2f exceeds bound %.2f", seed, ratio, bound)
		}
		if res.Fallbacks != 0 {
			t.Fatalf("seed %d: fallback taken", seed)
		}
	}
}

func exactOPT(t *testing.T, g *graph.Graph) float64 {
	t.Helper()
	// Import cycle avoidance: a local tiny branch-and-bound would duplicate
	// internal/exact; instead compute OPT by the n-1 lower bound plus
	// verification that some near-optimal star cover exists. For ratio
	// tests we use the trivial lower bound, which only makes the test
	// stricter for the algorithm (ratio measured against a smaller OPT
	// would be larger; here OPT >= n-1 so ratio <= cost/(n-1)).
	return float64(g.N() - 1)
}

func TestTwoSpannerIterationsScale(t *testing.T) {
	// Round complexity shape: iterations should stay near
	// O(log n * log Δ); give a generous constant and verify across sizes.
	for _, n := range []int{16, 32, 64} {
		g := gen.ConnectedGNP(n, 0.25, 11)
		res := mustTwoSpanner(t, g, 1)
		logn := math.Log2(float64(n))
		logd := math.Log2(float64(g.MaxDegree()) + 1)
		bound := 20 * (logn*logd + 1)
		if float64(res.Iterations) > bound {
			t.Fatalf("n=%d: %d iterations exceeds %f", n, res.Iterations, bound)
		}
	}
}

func TestTwoSpannerDeterministicPerSeed(t *testing.T) {
	g := gen.ConnectedGNP(20, 0.3, 9)
	a := mustTwoSpanner(t, g, 4)
	b := mustTwoSpanner(t, g, 4)
	if !a.Spanner.Equal(b.Spanner) {
		t.Fatal("same seed produced different spanners")
	}
	if a.Stats.Rounds != b.Stats.Rounds {
		t.Fatal("same seed produced different round counts")
	}
}

func TestTwoSpannerTinyGraphs(t *testing.T) {
	// Degenerate cases: single edge, triangle, two vertices.
	g1 := gen.Path(2)
	res := mustTwoSpanner(t, g1, 1)
	if res.Spanner.Len() != 1 {
		t.Fatalf("P2 spanner has %d edges, want 1", res.Spanner.Len())
	}
	g2 := gen.Clique(3)
	res2 := mustTwoSpanner(t, g2, 1)
	if !span.IsKSpanner(g2, res2.Spanner, 2) {
		t.Fatal("triangle spanner invalid")
	}
	// Isolated vertices plus an edge: not connected, but the algorithm
	// must still terminate and cover the one edge.
	g3 := graph.New(4)
	g3.AddEdge(0, 1)
	res3 := mustTwoSpanner(t, g3, 1)
	if !span.IsKSpanner(g3, res3.Spanner, 2) {
		t.Fatal("disconnected case must still cover its edges")
	}
}

func TestWeightedTwoSpanner(t *testing.T) {
	// Weighted K8 with heavy matching edges and light star edges around
	// vertex 0: the algorithm should cover heavy edges via light 2-paths.
	g := gen.Clique(8)
	for i := 0; i < g.M(); i++ {
		e := g.Edge(i)
		if e.U == 0 {
			g.SetWeight(i, 1)
		} else {
			g.SetWeight(i, 50)
		}
	}
	res := mustTwoSpanner(t, g, 2)
	if !span.IsKSpanner(g, res.Spanner, 2) {
		t.Fatal("weighted spanner invalid")
	}
	// The star around 0 costs 7; taking any heavy edge costs 50. The
	// result must avoid heavy edges entirely.
	if res.Cost >= 50 {
		t.Fatalf("weighted cost %f; expected the light star (7) to win", res.Cost)
	}
	if res.Fallbacks != 0 {
		t.Fatal("Claim 4.4 fallback in weighted run")
	}
}

func TestWeightedZeroEdges(t *testing.T) {
	// Zero-weight edges join the spanner up front and cover for free.
	g := gen.Clique(6)
	for i := 0; i < g.M(); i++ {
		e := g.Edge(i)
		if e.U == 0 {
			g.SetWeight(i, 0)
		} else {
			g.SetWeight(i, 3)
		}
	}
	res := mustTwoSpanner(t, g, 5)
	if !span.IsKSpanner(g, res.Spanner, 2) {
		t.Fatal("spanner invalid")
	}
	if res.Cost != 0 {
		t.Fatalf("cost = %f, want 0 (free star covers everything)", res.Cost)
	}
}

func TestWeightedRatioAgainstLowerBound(t *testing.T) {
	// O(log Δ) guarantee, measured against the weight of a spanning
	// structure lower bound: any 2-spanner of a connected graph needs at
	// least n-1 edges, each of at least the minimum weight.
	g := gen.RandomWeights(gen.ConnectedGNP(20, 0.3, 8), 1, 4, 13)
	res := mustTwoSpanner(t, g, 3)
	if !span.IsKSpanner(g, res.Spanner, 2) {
		t.Fatal("invalid spanner")
	}
	minW := math.Inf(1)
	for i := 0; i < g.M(); i++ {
		if w := g.Weight(i); w < minW {
			minW = w
		}
	}
	lb := float64(g.N()-1) * minW
	bound := 80 * (math.Log2(float64(g.MaxDegree())) + 2) * 4 // extra W slack
	if res.Cost/lb > bound {
		t.Fatalf("weighted ratio %.2f exceeds generous bound %.2f", res.Cost/lb, bound)
	}
}

func TestClientServerTwoSpanner(t *testing.T) {
	g := gen.ConnectedGNP(25, 0.3, 4)
	clients, servers := gen.ClientServerSplit(g, 0.5, 0.7, 2)
	res, err := ClientServerTwoSpanner(g, clients, servers, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !span.ClientServerValid(g, clients, servers, res.Spanner, 2) {
		t.Fatal("client-server solution invalid")
	}
	if res.Fallbacks != 0 {
		t.Fatal("Claim 4.4 fallback in client-server run")
	}
}

func TestClientServerOnlyServersUsed(t *testing.T) {
	// Explicit instance: clients are chords, servers are a wheel.
	g := graph.New(6)
	rim := make([]int, 0, 5)
	for i := 1; i < 6; i++ {
		rim = append(rim, g.AddEdge(0, i)) // spokes (servers)
	}
	chord1 := g.AddEdge(1, 2)
	chord2 := g.AddEdge(3, 4)
	clients := graph.NewEdgeSet(g.M())
	clients.Add(chord1)
	clients.Add(chord2)
	servers := graph.NewEdgeSet(g.M())
	for _, e := range rim {
		servers.Add(e)
	}
	res, err := ClientServerTwoSpanner(g, clients, servers, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !span.ClientServerValid(g, clients, servers, res.Spanner, 2) {
		t.Fatal("invalid client-server spanner")
	}
	res.Spanner.ForEach(func(i int) {
		if !servers.Has(i) {
			t.Fatalf("non-server edge %d in spanner", i)
		}
	})
}

func TestClientServerUncoverableClientsIgnored(t *testing.T) {
	// A client edge with no server cover must not break the run.
	g := graph.New(4)
	e01 := g.AddEdge(0, 1) // client only, no server path
	e12 := g.AddEdge(1, 2)
	e23 := g.AddEdge(2, 3)
	clients := graph.NewEdgeSet(g.M())
	clients.Add(e01)
	clients.Add(e23)
	servers := graph.NewEdgeSet(g.M())
	servers.Add(e12)
	servers.Add(e23)
	res, err := ClientServerTwoSpanner(g, clients, servers, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !span.ClientServerValid(g, clients, servers, res.Spanner, 2) {
		t.Fatal("solution must cover all coverable clients")
	}
	if res.Spanner.Has(e01) {
		t.Fatal("uncoverable pure-client edge must not be added")
	}
}

func TestClientServerValidation(t *testing.T) {
	g := gen.Path(3)
	if _, err := ClientServerTwoSpanner(g, nil, nil, Options{}); err == nil {
		t.Fatal("nil edge sets must error")
	}
	small := graph.NewEdgeSet(1)
	if _, err := ClientServerTwoSpanner(g, small, small, Options{}); err == nil {
		t.Fatal("universe mismatch must error")
	}
	wg := gen.Path(3)
	wg.SetWeight(0, 2)
	full := graph.Full(wg.M())
	if _, err := ClientServerTwoSpanner(wg, full, full, Options{}); err == nil {
		t.Fatal("weighted client-server must error")
	}
}

func TestTwoSpannerSpannerSubsetOfGraph(t *testing.T) {
	g := gen.ConnectedGNP(18, 0.4, 6)
	res := mustTwoSpanner(t, g, 8)
	if res.Spanner.Universe() != g.M() {
		t.Fatal("spanner universe mismatch")
	}
	if res.Spanner.Len() > g.M() {
		t.Fatal("spanner larger than graph")
	}
	if int(res.Cost) != res.Spanner.Len() {
		t.Fatalf("unweighted cost %f != size %d", res.Cost, res.Spanner.Len())
	}
}

func TestTwoSpannerLocalNotCongest(t *testing.T) {
	// The paper notes a direct CONGEST implementation has Ω(Δ) overhead:
	// on a dense graph the per-edge-per-round bits must exceed O(log n).
	g := gen.Clique(14)
	res := mustTwoSpanner(t, g, 2)
	logn := 4 * 8 // generous O(log n) word
	if res.Stats.MaxEdgeRoundBits <= logn {
		t.Fatalf("expected LOCAL-sized messages on K14, max edge-round bits = %d", res.Stats.MaxEdgeRoundBits)
	}
}

func TestTwoSpannerAugment(t *testing.T) {
	// Augmenting with an empty initial set equals solving from scratch in
	// objective terms; augmenting with a full star makes the rest free.
	g := gen.Clique(10)
	empty := graph.NewEdgeSet(g.M())
	res, err := TwoSpannerAugment(g, empty, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !span.IsKSpanner(g, res.Spanner, 2) {
		t.Fatal("augmented spanner invalid")
	}
	if res.Cost <= 0 {
		t.Fatal("empty initial set must cost something")
	}

	// Initial = the full star of vertex 0: a 2-spanner already, so the
	// optimal augmentation adds nothing.
	star := graph.NewEdgeSet(g.M())
	for v := 1; v < 10; v++ {
		i, _ := g.EdgeIndex(0, v)
		star.Add(i)
	}
	res2, err := TwoSpannerAugment(g, star, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !span.IsKSpanner(g, res2.Spanner, 2) {
		t.Fatal("augmented spanner invalid")
	}
	if res2.Cost != 0 {
		t.Fatalf("star initial set needs no additions, cost = %f", res2.Cost)
	}
}

func TestTwoSpannerAugmentValidation(t *testing.T) {
	g := gen.Path(3)
	if _, err := TwoSpannerAugment(g, nil, Options{}); err == nil {
		t.Fatal("nil initial set must error")
	}
	if _, err := TwoSpannerAugment(g, graph.NewEdgeSet(1), Options{}); err == nil {
		t.Fatal("universe mismatch must error")
	}
	wg := gen.Path(3)
	wg.SetWeight(0, 2)
	if _, err := TwoSpannerAugment(wg, graph.NewEdgeSet(wg.M()), Options{}); err == nil {
		t.Fatal("weighted graph must error")
	}
}

func TestTwoSpannerAugmentPartialTree(t *testing.T) {
	// Initial = a spanning path of the clique; the augmentation should
	// still produce a valid 2-spanner and pay less than from scratch.
	g := gen.Clique(12)
	path := graph.NewEdgeSet(g.M())
	for v := 0; v+1 < 12; v++ {
		i, _ := g.EdgeIndex(v, v+1)
		path.Add(i)
	}
	res, err := TwoSpannerAugment(g, path, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !span.IsKSpanner(g, res.Spanner, 2) {
		t.Fatal("invalid")
	}
	path.ForEach(func(i int) {
		if !res.Spanner.Has(i) {
			t.Fatal("initial edges must appear in the spanner (they are free)")
		}
	})
}

func TestPerIterationTelemetry(t *testing.T) {
	g := gen.PlantedStars(4, 7, 0.5, 2)
	res := mustTwoSpanner(t, g, 3)
	if len(res.PerIteration) != res.Iterations+1 {
		t.Fatalf("telemetry has %d entries for %d iterations", len(res.PerIteration), res.Iterations)
	}
	totalTerm := 0
	for i, st := range res.PerIteration {
		if st.Accepted > st.Candidates {
			t.Fatalf("iteration %d: %d accepted > %d candidates", i, st.Accepted, st.Candidates)
		}
		totalTerm += st.Terminated
	}
	if totalTerm != g.N() {
		t.Fatalf("terminations sum to %d, want every vertex (%d)", totalTerm, g.N())
	}
	// The final iteration must terminate at least one vertex.
	if res.PerIteration[len(res.PerIteration)-1].Terminated == 0 {
		t.Fatal("last iteration terminated nobody")
	}
}

func TestTwoSpannerOnNewFamilies(t *testing.T) {
	families := map[string]*graph.Graph{
		"geometric":   gen.Geometric(60, 0.3, 4),
		"ba":          gen.PreferentialAttachment(60, 3, 5),
		"lollipop":    gen.LollipopChain(3, 7, 5),
		"caterpillar": gen.Caterpillar(6, 4),
	}
	for name, g := range families {
		res := mustTwoSpanner(t, g, 11)
		if !span.IsKSpanner(g, res.Spanner, 2) {
			t.Errorf("%s: invalid spanner", name)
		}
		if res.Fallbacks != 0 {
			t.Errorf("%s: Claim 4.4 fallback", name)
		}
	}
	// Trees keep everything (no 2-paths around any edge).
	cat := gen.Caterpillar(6, 4)
	res := mustTwoSpanner(t, cat, 1)
	if res.Spanner.Len() != cat.M() {
		t.Fatalf("tree spanner must keep all %d edges, kept %d", cat.M(), res.Spanner.Len())
	}
}

func TestTwoSpannerLargeScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale smoke test")
	}
	g := gen.ConnectedGNP(300, 0.03, 1)
	res := mustTwoSpanner(t, g, 1)
	if !span.IsKSpanner(g, res.Spanner, 2) {
		t.Fatal("large run invalid")
	}
	if res.Fallbacks != 0 {
		t.Fatal("Claim 4.4 fallback at scale")
	}
}

// nbrState is kept per neighbor, 2m entries a run: its two lists live in
// the node's arenas, its six flags and the directed run's arc bits take
// two bytes, and the vote mark shares a word with the narrowed edge
// index.
func TestNbrStateSize(t *testing.T) {
	if got := unsafe.Sizeof(nbrState{}); got > 72 {
		t.Fatalf("nbrState is %d bytes, want at most 72", got)
	}
}

// undirectedNode is allocated once per vertex, so its size is rounded up
// to a malloc size class: 320 bytes is one (the next below is 288, the
// next above 352), and a field that pushes the struct past it costs 32
// bytes per vertex.
func TestUndirectedNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(undirectedNode{}); got > 320 {
		t.Fatalf("undirectedNode is %d bytes, want at most 320", got)
	}
}
