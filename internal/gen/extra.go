package gen

import (
	"math"
	"math/rand"
	"slices"

	"distspanner/internal/graph"
)

// Geometric returns a random geometric graph: n points uniform in the unit
// square, edges between pairs at Euclidean distance at most radius. The
// standard model for wireless/sensor topologies (the MDS workload).
func Geometric(n int, radius float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	g := graph.New(n)
	r2 := radius * radius
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			dx, dy := xs[u]-xs[v], ys[u]-ys[v]
			if dx*dx+dy*dy <= r2 {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// PreferentialAttachment returns a Barabási-Albert graph: vertices arrive
// one by one, each attaching to m distinct existing vertices chosen with
// probability proportional to their degree (plus one). Produces the
// heavy-tailed degree distributions where dense stars — the core
// algorithm's prey — are abundant.
func PreferentialAttachment(n, m int, seed int64) *graph.Graph {
	if m < 1 {
		panic("gen: attachment degree must be >= 1")
	}
	if n <= 0 {
		return graph.New(n) // panics on a negative n
	}
	rng := rand.New(rand.NewSource(seed))
	// Vertex v attaches to min(v, m) targets.
	total := 0
	for v := 1; v < n; v++ {
		total += min(v, m)
	}
	edges := make([]graph.Edge, 0, total)
	// Repeated-endpoint list: each vertex appears once per incident edge
	// endpoint plus once for smoothing.
	pool := make([]int, 1, 1+2*total)
	// seen[u] == v marks u as drawn for v already; the zeroed array marks
	// nothing, since only vertices from 1 on draw.
	seen := make([]int, n)
	chosen := make([]int, 0, min(m, n))
	for v := 1; v < n; v++ {
		want := min(v, m)
		chosen = chosen[:0]
		for len(chosen) < want {
			if u := pool[rng.Intn(len(pool))]; seen[u] != v {
				seen[u] = v
				chosen = append(chosen, u)
			}
		}
		// Attach in ascending target order, which fixes the edge indices
		// and, through the endpoint pool, every later draw.
		slices.Sort(chosen)
		for _, u := range chosen {
			edges = append(edges, graph.Edge{U: v, V: u})
			pool = append(pool, u)
		}
		for i := 0; i < want; i++ {
			pool = append(pool, v)
		}
	}
	return graph.FromEdges(n, edges)
}

// Caterpillar returns a path of length spineLen with legs leaves attached
// to every spine vertex: a tree whose 2-spanner is itself (trees have no
// 2-paths around any edge), useful as a no-op workload.
func Caterpillar(spineLen, legs int) *graph.Graph {
	n := spineLen * (legs + 1)
	g := graph.New(n)
	spine := func(i int) int { return i * (legs + 1) }
	for i := 0; i < spineLen; i++ {
		if i+1 < spineLen {
			g.AddEdge(spine(i), spine(i+1))
		}
		for l := 1; l <= legs; l++ {
			g.AddEdge(spine(i), spine(i)+l)
		}
	}
	return g
}

// LollipopChain returns c cliques of size s connected in a chain by paths
// of length bridge: a family mixing very dense regions (where stars pay
// off) with long sparse stretches (where nothing is 2-spannable).
func LollipopChain(c, s, bridge int) *graph.Graph {
	if c < 1 || s < 2 || bridge < 1 {
		panic("gen: need c >= 1, s >= 2, bridge >= 1")
	}
	n := c*s + (c-1)*(bridge-1)
	g := graph.New(n)
	cliqueStart := func(i int) int { return i * (s + bridge - 1) }
	for i := 0; i < c; i++ {
		base := cliqueStart(i)
		for a := 0; a < s; a++ {
			for b := a + 1; b < s; b++ {
				g.AddEdge(base+a, base+b)
			}
		}
		if i+1 < c {
			prev := base + s - 1
			for t := 0; t < bridge-1; t++ {
				g.AddEdge(prev, base+s+t)
				prev = base + s + t
			}
			g.AddEdge(prev, cliqueStart(i+1))
		}
	}
	return g
}

// ExpectedGeometricDegree returns the expected degree n·π·r² (boundary
// effects ignored), a sizing helper for Geometric workloads.
func ExpectedGeometricDegree(n int, radius float64) float64 {
	return float64(n) * math.Pi * radius * radius
}
