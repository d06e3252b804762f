package localmodel

import (
	"testing"
	"testing/quick"

	"distspanner/internal/decomp"
	"distspanner/internal/exact"
	"distspanner/internal/gen"
	"distspanner/internal/graph"
	"distspanner/internal/span"
)

func TestEpsilonSpannerValidAndNearOptimal(t *testing.T) {
	// Small instances where exact OPT is computable: the result must be a
	// valid k-spanner of cost <= (1+eps) * OPT.
	cases := []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{"clique8-k2", gen.Clique(8), 2},
		{"cycle7-k2", gen.Cycle(7), 2},
		{"bipartite-k2", gen.CompleteBipartite(3, 4), 2},
		{"gnp-k2", gen.ConnectedGNP(10, 0.35, 3), 2},
		{"gnp-k3", gen.ConnectedGNP(9, 0.35, 5), 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eps := 0.5
			res, err := EpsilonSpanner(c.g, Options{K: c.k, Eps: eps, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !span.IsKSpanner(c.g, res.Spanner, c.k) {
				t.Fatal("result is not a k-spanner")
			}
			_, opt, err := exact.MinSpanner(c.g, exact.SpannerOptions{K: c.k})
			if err != nil {
				t.Fatal(err)
			}
			if res.Cost > (1+eps)*opt+1e-9 {
				t.Fatalf("cost %f exceeds (1+ε)·OPT = %f", res.Cost, (1+eps)*opt)
			}
		})
	}
}

func TestEpsilonSpannerTightEps(t *testing.T) {
	// Very small eps forces near-optimality.
	g := gen.Clique(7)
	res, err := EpsilonSpanner(g, Options{K: 2, Eps: 0.01, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, opt, err := exact.MinSpanner(g, exact.SpannerOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > 1.01*opt+1e-9 {
		t.Fatalf("cost %f vs opt %f with eps=0.01", res.Cost, opt)
	}
}

func TestSequentialMatchesGuaranteeAnyOrder(t *testing.T) {
	// The guarantee is order-independent; the sequential natural order
	// must satisfy it too.
	g := gen.ConnectedGNP(9, 0.4, 7)
	eps := 0.3
	order := make([]int, g.N())
	for i := range order {
		order[i] = i
	}
	res, err := sequential(g, Options{K: 2, Eps: eps}, order)
	if err != nil {
		t.Fatal(err)
	}
	if !span.IsKSpanner(g, res.Spanner, 2) {
		t.Fatal("invalid spanner")
	}
	_, opt, err := exact.MinSpanner(g, exact.SpannerOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > (1+eps)*opt+1e-9 {
		t.Fatalf("cost %f exceeds (1+ε)OPT %f", res.Cost, (1+eps)*opt)
	}
}

// The decomposition EpsilonSpanner orders by is the protocol's run on
// G^Radius, and its round charge is that run's measured rounds plus the
// per-color collection formula.
func TestEpsilonSpannerAccounting(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *graph.Graph
		k    int
		seed int64
	}{
		{"gnp12-k2", gen.ConnectedGNP(12, 0.3, 4), 2, 3},
		{"clique8-k2", gen.Clique(8), 2, 1},
		{"gnp9-k3", gen.ConnectedGNP(9, 0.35, 5), 3, 2},
	} {
		res, err := EpsilonSpanner(c.g, Options{K: c.k, Eps: 0.5, Seed: c.seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.Radius < 1 {
			t.Fatalf("%s: power radius must be >= 1", c.name)
		}
		dec, stats, err := decomp.DistributedLinialSaks(decomp.PowerGraph(c.g, res.Radius), c.seed)
		if err != nil {
			t.Fatal(err)
		}
		if res.Colors < 1 || res.Colors != dec.NumColors {
			t.Fatalf("%s: Colors = %d, the decomposition has %d", c.name, res.Colors, dec.NumColors)
		}
		want := res.Radius*stats.Rounds + res.Colors*res.Radius*(res.WeakDiameter+2)
		if res.EstimatedRounds != want {
			t.Fatalf("%s: EstimatedRounds = %d, want %d·%d + %d·%d·(%d+2) = %d", c.name, res.EstimatedRounds,
				res.Radius, stats.Rounds, res.Colors, res.Radius, res.WeakDiameter, want)
		}
		if len(res.Steps) != c.g.N() {
			t.Fatalf("%s: steps = %d, want one per vertex", c.name, len(res.Steps))
		}
		// Every vertex's chosen radius is bounded by the pigeonhole bound.
		bound := maxRadiusBound(c.g, c.k, 0.5)
		for _, s := range res.Steps {
			if s.Radius > bound {
				t.Fatalf("%s: vertex %d chose radius %d > bound %d", c.name, s.Vertex, s.Radius, bound)
			}
		}
	}
}

func TestEpsilonSpannerWeighted(t *testing.T) {
	// The framework extends to weights: optimal sub-spanners come from the
	// weighted exact solver.
	g := gen.Clique(6)
	for i := 0; i < g.M(); i++ {
		e := g.Edge(i)
		if e.U == 0 {
			g.SetWeight(i, 1)
		} else {
			g.SetWeight(i, 10)
		}
	}
	eps := 0.25
	res, err := EpsilonSpanner(g, Options{K: 2, Eps: eps, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !span.IsKSpanner(g, res.Spanner, 2) {
		t.Fatal("invalid weighted spanner")
	}
	_, opt, err := exact.MinSpanner(g, exact.SpannerOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > (1+eps)*opt+1e-9 {
		t.Fatalf("weighted cost %f exceeds (1+ε)OPT %f", res.Cost, (1+eps)*opt)
	}
}

func TestEpsilonSpannerOptionValidation(t *testing.T) {
	g := gen.Path(3)
	if _, err := EpsilonSpanner(g, Options{K: 0, Eps: 0.5}); err == nil {
		t.Fatal("k=0 must error")
	}
	if _, err := EpsilonSpanner(g, Options{K: 2, Eps: 0}); err == nil {
		t.Fatal("eps=0 must error")
	}
	if _, err := EpsilonSpanner(g, Options{K: 2, Eps: -1}); err == nil {
		t.Fatal("negative eps must error")
	}
}

func TestEpsilonSpannerEmptyAndTiny(t *testing.T) {
	empty := graph.New(0)
	res, err := EpsilonSpanner(empty, Options{K: 2, Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Spanner.Len() != 0 {
		t.Fatal("empty graph must give empty spanner")
	}
	p2 := gen.Path(2)
	res2, err := EpsilonSpanner(p2, Options{K: 2, Eps: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Spanner.Len() != 1 {
		t.Fatalf("P2: %d edges, want 1", res2.Spanner.Len())
	}
}

func TestEpsilonSpannerMaxRadiusOverride(t *testing.T) {
	// A caller-supplied radius cap must be respected and still yield a
	// valid spanner when generous enough.
	g := gen.Clique(7)
	res, err := EpsilonSpanner(g, Options{K: 2, Eps: 0.5, Seed: 1, MaxRadius: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Radius != 5 {
		t.Fatalf("radius = %d, want the override 5", res.Radius)
	}
	if !span.IsKSpanner(g, res.Spanner, 2) {
		t.Fatal("invalid spanner under radius override")
	}
}

func TestEpsilonSpannerStepsRecordAdds(t *testing.T) {
	g := gen.Clique(6)
	res, err := EpsilonSpanner(g, Options{K: 2, Eps: 0.5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range res.Steps {
		total += s.Added
	}
	if total != res.Spanner.Len() {
		t.Fatalf("steps added %d edges, spanner has %d", total, res.Spanner.Len())
	}
}

// Property: the (1+eps) bound holds against exact OPT on random small
// graphs.
func TestEpsilonBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 6 + int((seed%4+4)%4)
		g := gen.ConnectedGNP(n, 0.35, seed)
		if g.M() > 16 {
			return true
		}
		const eps = 0.5
		res, err := EpsilonSpanner(g, Options{K: 2, Eps: eps, Seed: seed})
		if err != nil {
			return false
		}
		if !span.IsKSpanner(g, res.Spanner, 2) {
			return false
		}
		_, opt, err := exact.MinSpanner(g, exact.SpannerOptions{K: 2})
		if err != nil {
			return false
		}
		return res.Cost <= (1+eps)*opt+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
