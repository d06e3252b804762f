package baseline

import (
	"math"
	"testing"

	"distspanner/internal/exact"
	"distspanner/internal/gen"
	"distspanner/internal/graph"
	"distspanner/internal/span"
)

func TestKortsarzPelegValid(t *testing.T) {
	families := map[string]*graph.Graph{
		"clique":    gen.Clique(14),
		"bipartite": gen.CompleteBipartite(5, 6),
		"gnp":       gen.ConnectedGNP(30, 0.3, 1),
		"cycle":     gen.Cycle(12),
		"planted":   gen.PlantedStars(3, 7, 0.4, 2),
	}
	for name, g := range families {
		h := KortsarzPeleg(g)
		if !span.IsKSpanner(g, h, 2) {
			t.Errorf("%s: KP output is not a 2-spanner", name)
		}
	}
}

func TestKortsarzPelegCliqueNearOptimal(t *testing.T) {
	// On K_n the densest star is a full star (density ~ (n-1)/2 ... > 1):
	// greedy should find a near-star solution, far below m.
	g := gen.Clique(16)
	h := KortsarzPeleg(g)
	if h.Len() > 3*(g.N()-1) {
		t.Fatalf("KP on K16 used %d edges; want close to n-1 = 15", h.Len())
	}
}

func TestKortsarzPelegRatioSmall(t *testing.T) {
	g := gen.ConnectedGNP(12, 0.4, 3)
	h := KortsarzPeleg(g)
	_, opt, err := exact.MinSpanner(g, exact.SpannerOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(h.Len()) / opt
	bound := 8 * (math.Log2(float64(g.M())/float64(g.N())+2) + 2)
	if ratio > bound {
		t.Fatalf("KP ratio %.2f exceeds O(log m/n) bound %.2f", ratio, bound)
	}
}

func TestKortsarzPelegWeighted(t *testing.T) {
	// Expensive direct edges vs a cheap star.
	g := gen.Clique(8)
	for i := 0; i < g.M(); i++ {
		if e := g.Edge(i); e.U == 0 {
			g.SetWeight(i, 1)
		} else {
			g.SetWeight(i, 100)
		}
	}
	h := KortsarzPeleg(g)
	if !span.IsKSpanner(g, h, 2) {
		t.Fatal("weighted KP invalid")
	}
	if span.Cost(g, h) >= 100 {
		t.Fatalf("weighted KP cost %f; cheap star should win", span.Cost(g, h))
	}
	// Zero-weight pre-pass.
	g2 := gen.Clique(5)
	for i := 0; i < g2.M(); i++ {
		if e := g2.Edge(i); e.U == 0 {
			g2.SetWeight(i, 0)
		} else {
			g2.SetWeight(i, 7)
		}
	}
	h2 := KortsarzPeleg(g2)
	if span.Cost(g2, h2) != 0 {
		t.Fatalf("zero-weight star should cover all; cost %f", span.Cost(g2, h2))
	}
}

func TestGreedyMDS(t *testing.T) {
	g := gen.Star(20)
	ds := GreedyMDS(g)
	if len(ds) != 1 || ds[0] != 0 {
		t.Fatalf("greedy MDS on star = %v, want [0]", ds)
	}
	// Must dominate on random graphs and stay within ln Δ + 1 of exact.
	g2 := gen.ConnectedGNP(20, 0.25, 5)
	ds2 := GreedyMDS(g2)
	dominated := make([]bool, g2.N())
	for _, v := range ds2 {
		dominated[v] = true
		for _, arc := range g2.Adj(v) {
			dominated[arc.To] = true
		}
	}
	for v, d := range dominated {
		if !d {
			t.Fatalf("vertex %d not dominated", v)
		}
	}
	opt := len(exact.MinDominatingSet(g2))
	bound := math.Log(float64(g2.MaxDegree())+1) + 1
	if float64(len(ds2)) > bound*float64(opt)+1 {
		t.Fatalf("greedy MDS %d vs opt %d exceeds ln Δ+1", len(ds2), opt)
	}
}

func TestBaswanaSenStretchAndSize(t *testing.T) {
	for _, k := range []int{2, 3} {
		for seed := int64(0); seed < 5; seed++ {
			g := gen.ConnectedGNP(60, 0.15, seed)
			res := BaswanaSen(g, k, seed)
			if res.Stretch != 2*k-1 {
				t.Fatalf("stretch = %d, want %d", res.Stretch, 2*k-1)
			}
			if res.Rounds != k {
				t.Fatalf("rounds = %d, want k = %d", res.Rounds, k)
			}
			if !span.IsKSpanner(g, res.Spanner, res.Stretch) {
				t.Fatalf("k=%d seed=%d: not a (2k-1)-spanner", k, seed)
			}
		}
	}
}

func TestBaswanaSenDeterministic(t *testing.T) {
	// One (graph, k, seed) must give one spanner: the sampling draws may
	// not depend on map iteration order.
	for _, k := range []int{2, 3} {
		g := gen.ConnectedGNP(64, 0.2, 1)
		want := BaswanaSen(g, k, 1).Spanner
		for rep := 0; rep < 8; rep++ {
			if got := BaswanaSen(g, k, 1).Spanner; !got.Equal(want) {
				t.Fatalf("k=%d rep %d: same seed gave %d edges, first run %d", k, rep, got.Len(), want.Len())
			}
		}
	}
}

func TestBaswanaSenSparsifies(t *testing.T) {
	// On a dense graph the expected size is O(k n^{1+1/k}) << m. Average
	// over seeds to keep the test stable.
	g := gen.ConnectedGNP(80, 0.5, 1)
	total := 0
	runs := 5
	for seed := int64(0); seed < int64(runs); seed++ {
		res := BaswanaSen(g, 2, seed)
		total += res.Spanner.Len()
	}
	avg := float64(total) / float64(runs)
	n := float64(g.N())
	bound := 6 * 2 * n * math.Sqrt(n) // c·k·n^{1+1/2}
	if avg > bound {
		t.Fatalf("BS average size %.0f exceeds O(k n^{3/2}) = %.0f", avg, bound)
	}
	if avg >= float64(g.M()) {
		t.Fatalf("BS did not sparsify: %.0f of %d", avg, g.M())
	}
}

func TestBaswanaSenK1IsWholeGraph(t *testing.T) {
	// k=1: stretch 1, every edge must be kept (one edge per adjacent
	// singleton cluster = all edges).
	g := gen.ConnectedGNP(20, 0.3, 2)
	res := BaswanaSen(g, 1, 1)
	if res.Spanner.Len() != g.M() {
		t.Fatalf("k=1: %d of %d edges", res.Spanner.Len(), g.M())
	}
}

func TestRandomStarSpannerValid(t *testing.T) {
	g := gen.ConnectedGNP(20, 0.3, 4)
	for seed := int64(0); seed < 3; seed++ {
		h := RandomStarSpanner(g, seed)
		if !span.IsKSpanner(g, h, 2) {
			t.Fatalf("seed %d: random-star output invalid", seed)
		}
	}
}

func TestDensestStarOfIgnoresCovered(t *testing.T) {
	// Covered edges must not count toward density.
	g := gen.Clique(5)
	covered := graph.NewEdgeSet(g.M())
	slot := make([]int, g.N())
	_, spanned0, d0 := densestStarOf(g, covered, 0, slot)
	if d0 <= 0 || spanned0 <= 0 {
		t.Fatal("densest star on clique must 2-span edges")
	}
	// Cover everything: density drops to 0.
	for i := 0; i < g.M(); i++ {
		covered.Add(i)
	}
	_, spanned1, d1 := densestStarOf(g, covered, 0, slot)
	if d1 != 0 || spanned1 != 0 {
		t.Fatalf("covered graph: density %f, spanned %f; want 0", d1, spanned1)
	}
}

func TestExpectationMDSDominates(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := gen.ConnectedGNP(30, 0.15, seed)
		ds := ExpectationMDS(g, seed)
		dominated := make([]bool, g.N())
		for _, v := range ds {
			dominated[v] = true
			for _, arc := range g.Adj(v) {
				dominated[arc.To] = true
			}
		}
		for v, d := range dominated {
			if !d {
				t.Fatalf("seed %d: vertex %d undominated", seed, v)
			}
		}
	}
}

func TestExpectationMDSReasonableOnStar(t *testing.T) {
	g := gen.Star(25)
	// Average over seeds stays small; single runs may overshoot (that is
	// the point of the comparator).
	total := 0
	for seed := int64(0); seed < 10; seed++ {
		total += len(ExpectationMDS(g, seed))
	}
	if avg := float64(total) / 10; avg > 6 {
		t.Fatalf("expectation MDS average %f too large on a star", avg)
	}
}

func TestFaultTolerant2SpannerValid(t *testing.T) {
	for _, f := range []int{0, 1, 2} {
		for seed := int64(0); seed < 4; seed++ {
			g := gen.ConnectedGNP(12, 0.5, seed)
			h := FaultTolerant2Spanner(g, f)
			if !IsFaultTolerant2Spanner(g, h, f) {
				t.Fatalf("f=%d seed=%d: output not fault tolerant", f, seed)
			}
		}
	}
}

func TestFaultTolerant2SpannerF0IsSpanner(t *testing.T) {
	// f = 0 degenerates to a plain 2-spanner.
	g := gen.Clique(10)
	h := FaultTolerant2Spanner(g, 0)
	if !span.IsKSpanner(g, h, 2) {
		t.Fatal("f=0 output is not a 2-spanner")
	}
	if h.Len() >= g.M() {
		t.Fatal("f=0 should sparsify a clique")
	}
}

func TestFaultTolerantSizeGrowsWithF(t *testing.T) {
	g := gen.Clique(12)
	prev := -1
	for _, f := range []int{0, 1, 3} {
		h := FaultTolerant2Spanner(g, f)
		if h.Len() < prev {
			t.Fatalf("size decreased as f grew: %d after %d", h.Len(), prev)
		}
		prev = h.Len()
	}
	// Large f forces keeping everything.
	hAll := FaultTolerant2Spanner(g, g.N())
	if hAll.Len() != g.M() {
		t.Fatalf("f=n must keep all edges, kept %d of %d", hAll.Len(), g.M())
	}
}

func TestIsFaultTolerantDetectsFailure(t *testing.T) {
	// A plain star on K4 is a 2-spanner but not 1-fault-tolerant: killing
	// the hub strands the leaf edges.
	g := gen.Clique(4)
	star := graph.NewEdgeSet(g.M())
	for v := 1; v < 4; v++ {
		i, _ := g.EdgeIndex(0, v)
		star.Add(i)
	}
	if !IsFaultTolerant2Spanner(g, star, 0) {
		t.Fatal("star is a valid 2-spanner at f=0")
	}
	if IsFaultTolerant2Spanner(g, star, 1) {
		t.Fatal("killing the hub must break the star spanner")
	}
}
