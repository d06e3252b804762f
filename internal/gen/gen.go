// Package gen provides deterministic, seeded graph generators for the
// workloads used throughout the experiments: Erdős–Rényi random graphs,
// bipartite families (including the complete bipartite graphs that make
// 2-spanners quadratic), hypercubes, grids, and weighted/directed variants.
//
// All generators are deterministic functions of their parameters and seed.
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"distspanner/internal/graph"
)

// GNP returns an Erdős–Rényi random graph G(n, p).
func GNP(n int, p float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// ConnectedGNP returns G(n, p) conditioned on connectivity: a random
// spanning-tree backbone is inserted first, then each remaining pair is
// added independently with probability p. Useful because spanner problems
// are defined on connected graphs.
func ConnectedGNP(n int, p float64, seed int64) *graph.Graph {
	if n <= 0 {
		return graph.New(n) // panics on a negative n
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	// Presize for the backbone plus the expected number of other edges
	// and four standard deviations, so the list is rarely regrown. q is
	// p clamped to [0, 1], and 0 for a NaN p, which adds no edge.
	q := 0.0
	if p > 0 {
		q = min(p, 1)
	}
	rest := float64(n-1) * float64(n-2) / 2 // pairs off the backbone
	edges := make([]graph.Edge, 0, n-1+int(q*rest+4*math.Sqrt(q*(1-q)*rest)))
	// tree holds the backbone's pairs {u < v} as keys u*n+v, which sort in
	// the order the pair loop below visits them.
	tree := make([]int, 0, n-1)
	for i := 1; i < n; i++ {
		// Attach each vertex to a random earlier vertex in the permutation:
		// a uniform random recursive tree on the permuted labels.
		j := rng.Intn(i)
		e := graph.Edge{U: perm[i], V: perm[j]}.Canon()
		edges = append(edges, e)
		tree = append(tree, e.U*n+e.V)
	}
	slices.Sort(tree)
	next := 0 // cursor into tree: the first backbone pair not yet passed
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if next < len(tree) && tree[next] == u*n+v {
				next++
				continue
			}
			if rng.Float64() < p {
				edges = append(edges, graph.Edge{U: u, V: v})
			}
		}
	}
	return graph.FromEdges(n, edges)
}

// CompleteBipartite returns K_{a,b}: side A is vertices [0,a), side B is
// [a, a+b). Complete bipartite graphs are the canonical worst case for
// 2-spanner sparsity (any 2-spanner is the whole graph minus nothing
// locally shortcuttable), which motivates the approximation problem.
func CompleteBipartite(a, b int) *graph.Graph {
	g := graph.New(a + b)
	for u := 0; u < a; u++ {
		for v := 0; v < b; v++ {
			g.AddEdge(u, a+v)
		}
	}
	return g
}

// RandomBipartite returns a random bipartite graph with sides a and b and
// edge probability p, connected sides not guaranteed.
func RandomBipartite(a, b int, p float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(a + b)
	for u := 0; u < a; u++ {
		for v := 0; v < b; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, a+v)
			}
		}
	}
	return g
}

// Hypercube returns the d-dimensional hypercube on 2^d vertices. The
// hypercube is the classic synchronizer topology ([57] in the paper).
func Hypercube(d int) *graph.Graph {
	if d < 0 || d > 20 {
		panic(fmt.Sprintf("gen: hypercube dimension %d out of range", d))
	}
	n := 1 << uint(d)
	g := graph.New(n)
	for v := 0; v < n; v++ {
		for bit := 0; bit < d; bit++ {
			u := v ^ (1 << uint(bit))
			if v < u {
				g.AddEdge(v, u)
			}
		}
	}
	return g
}

// Grid returns the rows x cols grid graph.
func Grid(rows, cols int) *graph.Graph {
	g := graph.New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				g.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return g
}

// Path returns the path graph on n vertices.
func Path(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// Cycle returns the cycle graph on n >= 3 vertices.
func Cycle(n int) *graph.Graph {
	if n < 3 {
		panic("gen: cycle needs at least 3 vertices")
	}
	g := Path(n)
	g.AddEdge(n-1, 0)
	return g
}

// Star returns the star graph with center 0 and n-1 leaves.
func Star(n int) *graph.Graph {
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(0, i)
	}
	return g
}

// Clique returns the complete graph K_n.
func Clique(n int) *graph.Graph {
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(u, v)
		}
	}
	return g
}

// PlantedStars returns a graph consisting of c dense "communities": each
// community is a hub vertex adjacent to s satellites, with the satellites
// of one community sparsely interconnected (probability q) and consecutive
// hubs chained together for connectivity. This family has very dense stars,
// the structure the core algorithm exploits.
func PlantedStars(c, s int, q float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := c * (s + 1)
	g := graph.New(n)
	hub := func(i int) int { return i * (s + 1) }
	for i := 0; i < c; i++ {
		h := hub(i)
		for j := 1; j <= s; j++ {
			g.AddEdge(h, h+j)
		}
		for j := 1; j <= s; j++ {
			for k := j + 1; k <= s; k++ {
				if rng.Float64() < q {
					g.AddEdge(h+j, h+k)
				}
			}
		}
		if i+1 < c {
			g.AddEdge(h, hub(i+1))
		}
	}
	return g
}

// RandomDigraph returns a random simple directed graph where each ordered
// pair (u, v) is an edge independently with probability p.
func RandomDigraph(n int, p float64, seed int64) *graph.Digraph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.NewDigraph(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// OrientRandomly returns a digraph obtained from g by orienting each
// undirected edge in a uniformly random direction, plus making a fraction
// twoWay of the edges bidirected.
func OrientRandomly(g *graph.Graph, twoWay float64, seed int64) *graph.Digraph {
	rng := rand.New(rand.NewSource(seed))
	d := graph.NewDigraph(g.N())
	for i := 0; i < g.M(); i++ {
		e := g.Edge(i)
		u, v := e.U, e.V
		if rng.Intn(2) == 0 {
			u, v = v, u
		}
		d.AddEdge(u, v)
		if rng.Float64() < twoWay {
			d.AddEdge(v, u)
		}
	}
	return d
}

// RandomWeights assigns each edge of g an independent weight drawn
// uniformly from [lo, hi]. It mutates g and returns it for chaining. It
// panics unless 0 <= lo <= hi and hi is finite.
func RandomWeights(g *graph.Graph, lo, hi float64, seed int64) *graph.Graph {
	if !(lo >= 0 && lo <= hi) || math.IsInf(hi, 1) {
		panic("gen: invalid weight range")
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < g.M(); i++ {
		g.SetWeight(i, lo+rng.Float64()*(hi-lo))
	}
	return g
}

// ClientServerSplit partitions the edges of g into client and server sets.
// Each edge is a client with probability pc, a server with probability ps,
// independently, but every edge belongs to at least one side (an edge that
// would be neither is assigned to both, keeping the instance meaningful).
// It returns the two edge sets.
func ClientServerSplit(g *graph.Graph, pc, ps float64, seed int64) (clients, servers *graph.EdgeSet) {
	rng := rand.New(rand.NewSource(seed))
	clients = graph.NewEdgeSet(g.M())
	servers = graph.NewEdgeSet(g.M())
	for i := 0; i < g.M(); i++ {
		c := rng.Float64() < pc
		s := rng.Float64() < ps
		if !c && !s {
			c, s = true, true
		}
		if c {
			clients.Add(i)
		}
		if s {
			servers.Add(i)
		}
	}
	return clients, servers
}
