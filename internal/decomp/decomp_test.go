package decomp

import (
	"math"
	"testing"
	"testing/quick"

	"distspanner/internal/gen"
	"distspanner/internal/graph"
)

func TestPowerGraph(t *testing.T) {
	g := gen.Path(5)
	p2 := PowerGraph(g, 2)
	// P5 squared: edges {i,i+1} and {i,i+2}.
	if p2.M() != 4+3 {
		t.Fatalf("P5^2 has %d edges, want 7", p2.M())
	}
	if !p2.HasEdge(0, 2) || p2.HasEdge(0, 3) {
		t.Fatal("P5^2 adjacency wrong")
	}
	p10 := PowerGraph(g, 10)
	if p10.M() != 10 { // complete graph on 5 vertices
		t.Fatalf("P5^10 has %d edges, want 10", p10.M())
	}
	mustPanic(t, func() { PowerGraph(g, 0) })
}

// mustLinialSaks runs the Linial-Saks decomposition protocol and fails
// the test on a simulation error.
func mustLinialSaks(t *testing.T, g *graph.Graph, seed int64) *Decomposition {
	t.Helper()
	d, _, err := DistributedLinialSaks(g, seed)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestLinialSaksCoversAllVertices(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := gen.ConnectedGNP(60, 0.08, seed)
		d := mustLinialSaks(t, g, seed)
		for v := 0; v < g.N(); v++ {
			if d.Cluster[v] == -1 || d.Color[v] == -1 {
				t.Fatalf("seed %d: vertex %d unclustered", seed, v)
			}
			if d.Color[v] >= d.NumColors {
				t.Fatalf("seed %d: vertex %d has color %d of %d", seed, v, d.Color[v], d.NumColors)
			}
		}
	}
}

func TestLinialSaksProperColoring(t *testing.T) {
	// Adjacent vertices in different clusters must have different colors:
	// that is the property letting same-color clusters run in parallel.
	for seed := int64(0); seed < 8; seed++ {
		g := gen.ConnectedGNP(50, 0.1, seed+100)
		d := mustLinialSaks(t, g, seed)
		for i := 0; i < g.M(); i++ {
			e := g.Edge(i)
			if d.Cluster[e.U] != d.Cluster[e.V] && d.Color[e.U] == d.Color[e.V] {
				t.Fatalf("seed %d: adjacent clusters %d and %d share color %d",
					seed, d.Cluster[e.U], d.Cluster[e.V], d.Color[e.U])
			}
		}
	}
}

func TestLinialSaksLogarithmicGuarantees(t *testing.T) {
	// Colors and weak diameter are O(log n) w.h.p. on every seed; the
	// bounds allow generous constants.
	g := gen.ConnectedGNP(120, 0.05, 3)
	logn := math.Log2(float64(g.N()))
	for seed := int64(0); seed < 10; seed++ {
		d := mustLinialSaks(t, g, seed)
		if float64(d.NumColors) > 10*logn {
			t.Fatalf("seed %d: %d colors exceeds O(log n) = %.1f", seed, d.NumColors, 10*logn)
		}
		if wd := d.WeakDiameter(g); wd == -1 || float64(wd) > 12*logn {
			t.Fatalf("seed %d: weak diameter %d exceeds O(log n) = %.1f", seed, wd, 12*logn)
		}
	}
}

func TestLinialSaksClusterIdsAreMembersCaptors(t *testing.T) {
	// The clusters partition the vertices, each named by a vertex id.
	g := gen.Grid(6, 6)
	d := mustLinialSaks(t, g, 2)
	clusters := d.Clusters()
	if len(clusters) == 0 {
		t.Fatal("no clusters")
	}
	total := 0
	for id, members := range clusters {
		if id < 0 || id >= g.N() {
			t.Fatalf("cluster id %d is not a vertex", id)
		}
		total += len(members)
	}
	if total != g.N() {
		t.Fatalf("clusters cover %d of %d vertices", total, g.N())
	}
}

func TestLinialSaksSingletonAndEmpty(t *testing.T) {
	d0 := mustLinialSaks(t, gen.Path(0), 1)
	if d0.NumColors != 0 {
		t.Fatalf("empty graph NumColors = %d", d0.NumColors)
	}
	d1 := mustLinialSaks(t, gen.Path(1), 1)
	if d1.Cluster[0] != 0 || d1.Color[0] == -1 {
		// the vertex must be clustered, necessarily by itself
		t.Fatalf("singleton cluster = %d, color = %d", d1.Cluster[0], d1.Color[0])
	}
}

func TestLinialSaksDeterministic(t *testing.T) {
	g := gen.ConnectedGNP(40, 0.1, 9)
	a := mustLinialSaks(t, g, 5)
	b := mustLinialSaks(t, g, 5)
	for v := 0; v < g.N(); v++ {
		if a.Cluster[v] != b.Cluster[v] || a.Color[v] != b.Color[v] {
			t.Fatal("decomposition not deterministic for fixed seed")
		}
	}
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

// Property: PowerGraph(g, r) has an edge {u,v} exactly when the BFS
// distance in g is between 1 and r.
func TestPowerGraphMatchesDistancesProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 3 + int((seed%12+12)%12)
		g := gen.ConnectedGNP(n, 0.25, seed)
		r := 1 + int((seed%3+3)%3)
		p := PowerGraph(g, r)
		for u := 0; u < n; u++ {
			dist := g.BFS(u)
			for v := 0; v < n; v++ {
				if u == v {
					continue
				}
				want := dist[v] >= 1 && dist[v] <= r
				if p.HasEdge(u, v) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
