package mds

import (
	"math"
	"testing"
	"testing/quick"

	"distspanner/internal/exact"
	"distspanner/internal/gen"
	"distspanner/internal/graph"
)

func mustRun(t *testing.T, g *graph.Graph, seed int64) *Result {
	t.Helper()
	res, err := Run(g, Options{Seed: seed})
	if err != nil {
		t.Fatalf("MDS run failed: %v", err)
	}
	return res
}

func dominates(g *graph.Graph, set []int) bool {
	dominated := make([]bool, g.N())
	for _, v := range set {
		dominated[v] = true
		for _, arc := range g.Adj(v) {
			dominated[arc.To] = true
		}
	}
	for _, d := range dominated {
		if !d {
			return false
		}
	}
	return true
}

func TestMDSDominatesOnFamilies(t *testing.T) {
	families := map[string]*graph.Graph{
		"clique":    gen.Clique(15),
		"star":      gen.Star(20),
		"path":      gen.Path(25),
		"cycle":     gen.Cycle(24),
		"grid":      gen.Grid(5, 6),
		"hypercube": gen.Hypercube(5),
		"gnp":       gen.ConnectedGNP(50, 0.08, 2),
		"planted":   gen.PlantedStars(5, 8, 0.2, 4),
	}
	for name, g := range families {
		res := mustRun(t, g, 3)
		if !dominates(g, res.DominatingSet) {
			t.Errorf("%s: output does not dominate", name)
		}
	}
}

func TestMDSCongestCompliant(t *testing.T) {
	// Run enforces the bandwidth; additionally check the recorded maximum
	// stays within the O(log n) budget on a dense graph, where the LOCAL
	// 2-spanner algorithm would blow past it.
	g := gen.Clique(20)
	res := mustRun(t, g, 1)
	budget := 8 * idBits(g.N())
	if !res.Stats.CongestCompatible(budget) {
		t.Fatalf("max edge-round bits %d exceeds CONGEST budget %d", res.Stats.MaxEdgeRoundBits, budget)
	}
}

func idBits(n int) int {
	b := 1
	for v := 2; v < n; v <<= 1 {
		b++
	}
	return b
}

func TestMDSStarOptimal(t *testing.T) {
	// On a star the center dominates everything; the guaranteed O(log Δ)
	// ratio must still pick a tiny set (1 or at most a few).
	g := gen.Star(30)
	res := mustRun(t, g, 5)
	if len(res.DominatingSet) > 2 {
		t.Fatalf("star MDS size %d, want <= 2", len(res.DominatingSet))
	}
}

func TestMDSGuaranteedRatioManySeeds(t *testing.T) {
	// The headline guarantee: ratio O(log Δ) on EVERY run, vs exact OPT.
	g := gen.ConnectedGNP(22, 0.25, 7)
	opt := len(exact.MinDominatingSet(g))
	if opt == 0 {
		t.Fatal("degenerate instance")
	}
	bound := 8 * (math.Log2(float64(g.MaxDegree())+1) + 2) // generous constant
	for seed := int64(0); seed < 15; seed++ {
		res := mustRun(t, g, seed)
		if !dominates(g, res.DominatingSet) {
			t.Fatalf("seed %d: not dominating", seed)
		}
		ratio := float64(len(res.DominatingSet)) / float64(opt)
		if ratio > bound {
			t.Fatalf("seed %d: ratio %.2f exceeds O(log Δ) bound %.2f", seed, ratio, bound)
		}
	}
}

func TestMDSIterationsScale(t *testing.T) {
	for _, n := range []int{20, 40, 80} {
		g := gen.ConnectedGNP(n, 0.15, 9)
		res := mustRun(t, g, 2)
		logn := math.Log2(float64(n))
		logd := math.Log2(float64(g.MaxDegree()) + 1)
		bound := 25 * (logn*logd + 1)
		if float64(res.Iterations) > bound {
			t.Fatalf("n=%d: %d iterations exceeds O(log n log Δ) bound %.0f", n, res.Iterations, bound)
		}
	}
}

func TestMDSDeterministic(t *testing.T) {
	g := gen.ConnectedGNP(30, 0.2, 4)
	a := mustRun(t, g, 11)
	b := mustRun(t, g, 11)
	if len(a.DominatingSet) != len(b.DominatingSet) {
		t.Fatal("same seed produced different dominating sets")
	}
	for i := range a.DominatingSet {
		if a.DominatingSet[i] != b.DominatingSet[i] {
			t.Fatal("same seed produced different dominating sets")
		}
	}
}

func TestMDSSingletonAndEdge(t *testing.T) {
	g1 := graph.New(1)
	res := mustRun(t, g1, 1)
	if len(res.DominatingSet) != 1 {
		t.Fatalf("singleton graph: MDS = %v, want the vertex itself", res.DominatingSet)
	}
	g2 := gen.Path(2)
	res2 := mustRun(t, g2, 1)
	if len(res2.DominatingSet) != 1 {
		t.Fatalf("single edge: MDS size %d, want 1", len(res2.DominatingSet))
	}
}

func TestMDSPathRatio(t *testing.T) {
	// MDS of P_n is ceil(n/3); check the algorithm stays within a small
	// factor on paths (low degree: log Δ is constant).
	g := gen.Path(30)
	opt := 10
	res := mustRun(t, g, 6)
	if !dominates(g, res.DominatingSet) {
		t.Fatal("not dominating")
	}
	if len(res.DominatingSet) > 4*opt {
		t.Fatalf("path MDS size %d vs opt %d", len(res.DominatingSet), opt)
	}
}

// Property: across random graphs and seeds, the output always dominates
// and every run stays CONGEST-legal.
func TestMDSAlwaysValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 5 + int((seed%40+40)%40)
		g := gen.ConnectedGNP(n, 0.2, seed)
		res, err := Run(g, Options{Seed: seed})
		if err != nil {
			return false
		}
		budget := 8 * idBits(g.N())
		return dominates(g, res.DominatingSet) && res.Stats.MaxEdgeRoundBits <= budget
	}
	if err := quickCheck(t, f, 20); err != nil {
		t.Fatal(err)
	}
}

func quickCheck(t *testing.T, f func(int64) bool, count int) error {
	t.Helper()
	return quick.Check(f, &quick.Config{MaxCount: count})
}

func TestMDSDisconnectedComponents(t *testing.T) {
	// Two disjoint triangles: each needs its own dominator.
	g := graph.New(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	g.AddEdge(3, 5)
	res, err := Run(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !dominates(g, res.DominatingSet) {
		t.Fatal("disconnected components not dominated")
	}
	if len(res.DominatingSet) < 2 {
		t.Fatal("each component needs at least one dominator")
	}
}
