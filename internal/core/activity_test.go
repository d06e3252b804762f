package core

import (
	"testing"

	"distspanner/internal/dist"
	"distspanner/internal/gen"
	"distspanner/internal/graph"
	"distspanner/internal/mds"
	"distspanner/internal/span"
)

// tailInstance builds a weighted G(c, 0.3) core with (n-c) pendant leaves
// spread over the core: the core's densities descend through many levels
// while the fringe is idle after the opening iterations — the
// sparse-activity regime the parking port targets.
func tailInstance(c, n int, seed int64) *graph.Graph {
	core := gen.RandomWeights(gen.ConnectedGNP(c, 0.3, seed), 1, 32, seed+1)
	g := graph.New(n)
	for i := 0; i < core.M(); i++ {
		e := core.Edge(i)
		g.SetWeight(g.AddEdge(e.U, e.V), core.Weight(i))
	}
	for l := c; l < n; l++ {
		g.SetWeight(g.AddEdge(l, l%c), 1)
	}
	return g
}

// TestTwoSpannerTailActivityShrinks asserts the point of the port: on a
// core+fringe instance the late rounds run a small active set — the
// activity curve collapses after the opening iterations instead of
// touching all n vertices every round.
func TestTwoSpannerTailActivityShrinks(t *testing.T) {
	g := tailInstance(48, 200, 5)
	var curve []dist.RoundActivity
	// NoRounding makes candidacy an exact local maximum: the core resolves
	// one small region at a time, stretching the tail the test inspects.
	res, err := TwoSpanner(g, Options{Seed: 2, NoRounding: true, RoundHook: func(a dist.RoundActivity) {
		curve = append(curve, a)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !span.IsKSpanner(g, res.Spanner, 2) {
		t.Fatal("invalid spanner")
	}
	if len(curve) != res.Stats.Rounds {
		t.Fatalf("curve has %d rounds, stats say %d", len(curve), res.Stats.Rounds)
	}
	if curve[0].Active != g.N() {
		t.Fatalf("round 1 active = %d, want all %d vertices", curve[0].Active, g.N())
	}
	// The whole run must be cheaper than all-spinning execution, and the
	// parked population must actually exist.
	if res.Stats.ActiveSteps >= int64(res.Stats.Rounds)*int64(g.N()) {
		t.Fatalf("no activity saved: %d active steps over %d rounds at n=%d",
			res.Stats.ActiveSteps, res.Stats.Rounds, g.N())
	}
	if res.Stats.ParkedSteps == 0 {
		t.Fatal("no vertex ever parked on a core+fringe tail instance")
	}
	// Late rounds must be sparse: the final quarter of the curve averages
	// well below the opening quarter.
	q := len(curve) / 4
	if q == 0 {
		t.Fatalf("run too short to have a tail: %d rounds", len(curve))
	}
	var early, late float64
	for i := 0; i < q; i++ {
		early += float64(curve[i].Active)
		late += float64(curve[len(curve)-1-i].Active)
	}
	if late >= early || late/float64(q) >= float64(g.N())/2 {
		t.Fatalf("late-round activity did not shrink: early quarter %.0f vs late quarter %.0f at n=%d",
			early/float64(q), late/float64(q), g.N())
	}
}

// TestMDSTailActivityShrinks is the MDS analogue: after the opening
// iterations most vertices are dominated and parked or halted, so the
// late rounds report a shrinking active set.
func TestMDSTailActivityShrinks(t *testing.T) {
	g := gen.ConnectedGNP(300, 0.02, 9)
	var curve []dist.RoundActivity
	res, err := mds.Run(g, mds.Options{Seed: 4, RoundHook: func(a dist.RoundActivity) {
		curve = append(curve, a)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ActiveSteps >= int64(res.Stats.Rounds)*int64(g.N()) {
		t.Fatalf("no activity saved: %d active steps over %d rounds at n=%d",
			res.Stats.ActiveSteps, res.Stats.Rounds, g.N())
	}
	last := curve[len(curve)-1]
	if last.Active >= g.N()/2 {
		t.Fatalf("final round still ran %d of %d vertices", last.Active, g.N())
	}
}

// TestActivityCurveIdenticalAcrossModes pins the determinism of the
// activity profile for a real algorithm: the per-round curve is
// bit-identical whether the run steps serially, with the default step
// width, or sharded across three workers.
func TestActivityCurveIdenticalAcrossModes(t *testing.T) {
	g := tailInstance(32, 96, 7)
	configs := []struct {
		name   string
		shards int
	}{{"in-process", 0}, {"3 shards", 3}}
	curves := make([][]dist.RoundActivity, len(configs))
	for i, cfg := range configs {
		res, err := TwoSpanner(g, Options{Seed: 3, Shards: cfg.shards, RoundHook: func(a dist.RoundActivity) {
			curves[i] = append(curves[i], a)
		}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.ParkedSteps == 0 {
			t.Fatal("expected parking on the tail instance")
		}
	}
	for i := 1; i < len(configs); i++ {
		if len(curves[0]) != len(curves[i]) {
			t.Fatalf("curve lengths differ: %s %d vs %s %d", configs[0].name, len(curves[0]), configs[i].name, len(curves[i]))
		}
		for r := range curves[0] {
			if curves[0][r] != curves[i][r] {
				t.Fatalf("round %d activity differs between %s and %s: %+v vs %+v",
					r+1, configs[0].name, configs[i].name, curves[0][r], curves[i][r])
			}
		}
	}
}
