package service

import (
	"testing"

	"distspanner/internal/graph"
)

func buildGraph(n int, edges [][2]int) *graph.Graph {
	g := graph.New(n)
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	return g
}

func TestGraphHashOrderInvariant(t *testing.T) {
	a := buildGraph(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
	// Same edge set: reversed insertion order AND flipped endpoints.
	b := buildGraph(5, [][2]int{{0, 4}, {4, 3}, {3, 2}, {2, 1}, {1, 0}})
	if GraphHash(a) != GraphHash(b) {
		t.Fatalf("same labeled edge set hashed differently: %s vs %s", GraphHash(a), GraphHash(b))
	}
}

func TestGraphHashRelabelDiffers(t *testing.T) {
	// The same 3-vertex path with its center at 1 vs at 0: isomorphic,
	// but vertex ids are protocol-visible, so the instances differ.
	path := buildGraph(3, [][2]int{{0, 1}, {1, 2}})
	relabeled := buildGraph(3, [][2]int{{0, 1}, {0, 2}})
	if GraphHash(path) == GraphHash(relabeled) {
		t.Fatalf("relabeled graph hashed equal: %s", GraphHash(path))
	}
}

func TestGraphHashVertexCountSensitive(t *testing.T) {
	a := buildGraph(3, [][2]int{{0, 1}, {1, 2}})
	b := buildGraph(4, [][2]int{{0, 1}, {1, 2}}) // extra isolated vertex
	if GraphHash(a) == GraphHash(b) {
		t.Fatalf("different vertex counts hashed equal: %s", GraphHash(a))
	}
}

func TestGraphHashWeightSensitive(t *testing.T) {
	plain := buildGraph(3, [][2]int{{0, 1}, {1, 2}})

	// Explicit weight 1 on every edge is the same instance as unweighted.
	ones := buildGraph(3, [][2]int{{0, 1}, {1, 2}})
	for i := 0; i < ones.M(); i++ {
		ones.SetWeight(i, 1)
	}
	if GraphHash(plain) != GraphHash(ones) {
		t.Fatalf("all-weights-1 hashed differently from unweighted: %s vs %s",
			GraphHash(plain), GraphHash(ones))
	}

	heavy := buildGraph(3, [][2]int{{0, 1}, {1, 2}})
	heavy.SetWeight(0, 2.5)
	if GraphHash(plain) == GraphHash(heavy) {
		t.Fatalf("weight change did not change the hash: %s", GraphHash(plain))
	}
}

// TestGraphHashGolden pins the hash scheme. These values are the cache
// key's content-addressed half: changing the fold (constants, field
// order, widths) strands every cached result and silently unpins the
// e2e suite, so any diff here must be a deliberate, flag-day decision.
func TestGraphHashGolden(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n       int
		edges   [][2]int
		weights map[int]float64
		want    string
	}{
		{name: "empty-1", n: 1, want: "392209f14dea4c24"},
		{name: "single-edge", n: 2, edges: [][2]int{{0, 1}}, want: "c4f117834461aa16"},
		{name: "path-3", n: 3, edges: [][2]int{{0, 1}, {1, 2}}, want: "4054d8ce9dcd00a2"},
		{name: "triangle", n: 3, edges: [][2]int{{0, 1}, {1, 2}, {0, 2}}, want: "efd1ac677abc55dc"},
		{name: "weighted-path-3", n: 3, edges: [][2]int{{0, 1}, {1, 2}},
			weights: map[int]float64{0: 2, 1: 0.5}, want: "72787b8a9d8a7307"},
	} {
		g := buildGraph(tc.n, tc.edges)
		for i, w := range tc.weights {
			g.SetWeight(i, w)
		}
		if got := GraphHash(g); got != tc.want {
			t.Errorf("%s: GraphHash = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestJobKeyGolden pins the full job-key derivation on top of the graph
// hash, including the exec-only parameter exclusion and the inline
// edge-list replacement.
func TestJobKeyGolden(t *testing.T) {
	s := New(Options{})
	job, rerr := s.prepare(&JobRequest{
		Scenario: "twospanner",
		Params:   map[string]string{"family": "gnp", "n": "32", "p": "0.2"},
		Seed:     7,
	})
	if rerr != nil {
		t.Fatalf("prepare: %v", rerr)
	}
	if job.Key != "c658a1615af30d3c" {
		t.Errorf("generator job key = %s, want c658a1615af30d3c", job.Key)
	}

	inline, rerr := s.prepare(&JobRequest{
		Scenario: "twospanner",
		Seed:     1,
		Graph:    &InlineGraph{N: 4, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}},
	})
	if rerr != nil {
		t.Fatalf("prepare inline: %v", rerr)
	}
	if inline.GraphHash != "d51f3147cad24361" {
		t.Errorf("inline graph hash = %s, want d51f3147cad24361", inline.GraphHash)
	}
	if inline.Key != "c9db7d00bf2cc79e" {
		t.Errorf("inline job key = %s, want c9db7d00bf2cc79e", inline.Key)
	}
}

func TestJobKeyIgnoresExecOnlyParams(t *testing.T) {
	s := New(Options{})
	base, rerr := s.prepare(&JobRequest{
		Scenario: "twospanner",
		Params:   map[string]string{"family": "gnp", "n": "32", "p": "0.2", "transport": "local"},
		Seed:     7,
	})
	if rerr != nil {
		t.Fatalf("prepare: %v", rerr)
	}
	sharded, rerr := s.prepare(&JobRequest{
		Scenario: "twospanner",
		Params:   map[string]string{"family": "gnp", "n": "32", "p": "0.2", "transport": "chan2"},
		Seed:     7,
	})
	if rerr != nil {
		t.Fatalf("prepare with transport: %v", rerr)
	}
	if base.Key != sharded.Key {
		t.Fatalf("transport param changed the cache key: %s vs %s", base.Key, sharded.Key)
	}
}

func TestJobKeySeedAndParamSensitive(t *testing.T) {
	s := New(Options{})
	mk := func(params map[string]string, seed int64) string {
		job, rerr := s.prepare(&JobRequest{Scenario: "twospanner", Params: params, Seed: seed})
		if rerr != nil {
			t.Fatalf("prepare: %v", rerr)
		}
		return job.Key
	}
	base := mk(map[string]string{"family": "gnp", "n": "32", "p": "0.2"}, 7)
	if base == mk(map[string]string{"family": "gnp", "n": "32", "p": "0.2"}, 8) {
		t.Fatal("seed change did not change the cache key")
	}
	if base == mk(map[string]string{"family": "gnp", "n": "33", "p": "0.2"}, 7) {
		t.Fatal("param change did not change the cache key")
	}
}
