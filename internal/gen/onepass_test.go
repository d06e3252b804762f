package gen

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"distspanner/internal/graph"
)

// refPreferentialAttachment and refConnectedGNP are the AddEdge builders
// PreferentialAttachment and ConnectedGNP replaced, kept verbatim as the
// reference the one-pass builders must reproduce graph for graph.
func refPreferentialAttachment(n, m int, seed int64) *graph.Graph {
	if m < 1 {
		panic("gen: attachment degree must be >= 1")
	}
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	if n == 0 {
		return g
	}
	// Repeated-endpoint list: each vertex appears once per incident edge
	// endpoint plus once for smoothing.
	var pool []int
	pool = append(pool, 0)
	for v := 1; v < n; v++ {
		targets := make(map[int]bool)
		want := m
		if v < m {
			want = v
		}
		for len(targets) < want {
			targets[pool[rng.Intn(len(pool))]] = true
		}
		// Attach in sorted target order: ranging the map directly made
		// edge-insertion order — and, through the endpoint pool, every
		// later attachment choice — depend on map iteration order, so
		// the same (n, m, seed) generated structurally different graphs
		// run to run (caught by spanlint's detmap).
		chosen := make([]int, 0, len(targets))
		for u := range targets {
			chosen = append(chosen, u)
		}
		sort.Ints(chosen)
		for _, u := range chosen {
			g.AddEdge(v, u)
			pool = append(pool, u)
		}
		for i := 0; i < want; i++ {
			pool = append(pool, v)
		}
		if want == 0 {
			pool = append(pool, v)
		}
	}
	return g
}

func refConnectedGNP(n int, p float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		// Attach each vertex to a random earlier vertex in the permutation:
		// a uniform random recursive tree on the permuted labels.
		j := rng.Intn(i)
		g.AddEdge(perm[i], perm[j])
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !g.HasEdge(u, v) && rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// sameBuild reports how got differs from want, as built: the fingerprint
// (vertex and edge counts, every edge in index order) and every adjacency
// list element by element. It returns "" when they are the same.
func sameBuild(got, want *graph.Graph) string {
	if got.N() != want.N() || got.M() != want.M() {
		return fmt.Sprintf("n, m = %d, %d, want %d, %d", got.N(), got.M(), want.N(), want.M())
	}
	if got.Fingerprint() != want.Fingerprint() {
		return fmt.Sprintf("fingerprint %x, want %x", got.Fingerprint(), want.Fingerprint())
	}
	for v := 0; v < got.N(); v++ {
		a, b := got.Adj(v), want.Adj(v)
		if len(a) != len(b) {
			return fmt.Sprintf("vertex %d: degree %d, want %d", v, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				return fmt.Sprintf("vertex %d arc %d: %+v, want %+v", v, i, a[i], b[i])
			}
		}
	}
	return ""
}

// TestOnePassGeneratorsMatchAddEdge holds the generators built through
// graph.FromEdges to the AddEdge builders they replaced: the same graph,
// edge indices and adjacency order included, on the edge cases and on the
// benchmark's workload cells.
func TestOnePassGeneratorsMatchAddEdge(t *testing.T) {
	// Each case builds with the generator ([0]) and its reference ([1]).
	type builds [2]func(seed int64) *graph.Graph
	pa := func(n, m int) builds {
		return builds{
			func(s int64) *graph.Graph { return PreferentialAttachment(n, m, s) },
			func(s int64) *graph.Graph { return refPreferentialAttachment(n, m, s) },
		}
	}
	cgnp := func(n int, p float64) builds {
		return builds{
			func(s int64) *graph.Graph { return ConnectedGNP(n, p, s) },
			func(s int64) *graph.Graph { return refConnectedGNP(n, p, s) },
		}
	}
	for _, tc := range []struct {
		name  string
		b     builds
		seeds []int64
	}{
		{"pref-attach n=0 m=1", pa(0, 1), []int64{1}},
		{"pref-attach n=1 m=1", pa(1, 1), []int64{1}},
		{"pref-attach n=2 m=1", pa(2, 1), []int64{1, 2}},
		{"pref-attach n=5 m=5", pa(5, 5), []int64{1, 2}},
		{"pref-attach n=8 m=20", pa(8, 20), []int64{1, 2}},
		{"pref-attach n=200 m=4", pa(200, 4), []int64{1, 2, 3}},
		{"pref-attach n=32768 m=3", pa(32768, 3), []int64{1, 2, 3}},
		{"cgnp n=0 p=0.5", cgnp(0, 0.5), []int64{1}},
		{"cgnp n=1 p=0.5", cgnp(1, 0.5), []int64{1}},
		{"cgnp n=2 p=0.5", cgnp(2, 0.5), []int64{1, 2}},
		{"cgnp n=40 p=0", cgnp(40, 0), []int64{1, 2}},
		{"cgnp n=40 p=1", cgnp(40, 1), []int64{1, 2}},
		{"cgnp n=60 p=0.3", cgnp(60, 0.3), []int64{1, 2, 3}},
		{"cgnp n=512 p=0.1", cgnp(512, 0.1), []int64{1, 2, 3, 4, 5, 6}},
	} {
		for _, seed := range tc.seeds {
			if diff := sameBuild(tc.b[0](seed), tc.b[1](seed)); diff != "" {
				t.Errorf("%s seed %d: %s", tc.name, seed, diff)
			}
		}
	}
}

var sinkGraph *graph.Graph

// BenchmarkPreferentialAttachment builds the sparse-scale workload's
// graph: the bytes and allocations per build are the generation layer's.
func BenchmarkPreferentialAttachment(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkGraph = PreferentialAttachment(32768, 3, int64(i))
	}
}

// BenchmarkConnectedGNP builds the dense-busy workload's graph.
func BenchmarkConnectedGNP(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkGraph = ConnectedGNP(512, 0.1, int64(i))
	}
}
