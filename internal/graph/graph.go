// Package graph provides the graph substrate used throughout the library:
// simple undirected and directed graphs with indexed edges, optional
// non-negative edge weights, breadth-first search, and edge-set bitsets.
//
// Vertices are integers in [0, N()). Every edge has a stable integer index
// in [0, M()), assigned in insertion order; spanners, covers, and other
// edge subsets are represented as EdgeSet bitsets over these indices.
package graph

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync/atomic"
)

// Edge is an edge between two vertices. For undirected graphs the endpoints
// are stored canonically with U < V; for directed graphs the edge is U -> V.
type Edge struct {
	U, V int
}

// Canon returns e with endpoints ordered so that U <= V. It is the canonical
// form used for undirected edges.
func (e Edge) Canon() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U}
	}
	return e
}

// Other returns the endpoint of e that is not v. It panics if v is not an
// endpoint of e.
func (e Edge) Other(v int) int {
	switch v {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: vertex %d is not an endpoint of edge %v", v, e))
}

// Arc is one direction of an edge as seen from a vertex's adjacency list:
// the neighbor it leads to and the index of the underlying edge.
type Arc struct {
	To   int
	Edge int
}

// Graph is a simple undirected graph with indexed edges and optional
// non-negative edge weights. The zero value is not usable; construct with
// New.
type Graph struct {
	n     int
	edges []Edge
	adj   [][]Arc
	w     []float64 // nil when unweighted

	// fp caches Fingerprint, 0 when not cached (a graph whose fingerprint
	// is 0 is hashed on every call). It is atomic because the shard
	// workers of one in-process run fingerprint the same graph
	// concurrently; AddEdge and SetWeight clear it.
	fp atomic.Uint64
}

// New returns an empty undirected graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{n: n, adj: make([][]Arc, n)}
}

// FromEdges returns the graph that New(n) followed by AddEdge(e.U, e.V)
// for every e in edges, in order, would build: the same edge indices and
// the same per-vertex adjacency order. It takes ownership of edges,
// storing each in canonical form in place, and carves every adjacency
// list from one array, with its capacity capped at the vertex's degree so
// that a later AddEdge reallocates that list alone. It panics on an
// out-of-range endpoint, a self-loop or a repeated pair, where AddEdge
// would panic or return the existing index.
func FromEdges(n int, edges []Edge) *Graph {
	g := New(n)
	start := make([]int, n+1) // degrees, then each list's start
	for i, e := range edges {
		g.checkVertex(e.U)
		g.checkVertex(e.V)
		if e.U == e.V {
			panic(fmt.Sprintf("graph: self-loop at vertex %d", e.U))
		}
		edges[i] = e.Canon()
		start[e.U+1]++
		start[e.V+1]++
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	arcs := make([]Arc, start[n])
	for v := 0; v < n; v++ {
		if start[v] < start[v+1] { // an isolated vertex keeps a nil list, as under AddEdge
			g.adj[v] = arcs[start[v]:start[v]:start[v+1]]
		}
	}
	for i, e := range edges {
		g.adj[e.U] = append(g.adj[e.U], Arc{To: e.V, Edge: i})
		g.adj[e.V] = append(g.adj[e.V], Arc{To: e.U, Edge: i})
	}
	// A repeated pair puts the same neighbor in one list twice: stamp
	// each list's neighbors with its vertex (reusing start, which is no
	// longer needed; v+1 so that the zeroed array matches no vertex).
	stamp := start[:n]
	clear(stamp)
	for v, list := range g.adj {
		for _, a := range list {
			if stamp[a.To] == v+1 {
				panic(fmt.Sprintf("graph: edge {%d, %d} repeated", min(v, a.To), max(v, a.To)))
			}
			stamp[a.To] = v + 1
		}
	}
	g.edges = edges
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// AddEdge inserts the undirected edge {u, v} and returns its index. If the
// edge already exists the existing index is returned. Self-loops and
// out-of-range endpoints panic: the paper's problems are defined on simple
// graphs.
func (g *Graph) AddEdge(u, v int) int {
	g.checkVertex(u)
	g.checkVertex(v)
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at vertex %d", u))
	}
	if idx, ok := g.EdgeIndex(u, v); ok {
		return idx
	}
	g.fp.Store(0)
	idx := len(g.edges)
	g.edges = append(g.edges, Edge{U: u, V: v}.Canon())
	g.adj[u] = append(g.adj[u], Arc{To: v, Edge: idx})
	g.adj[v] = append(g.adj[v], Arc{To: u, Edge: idx})
	if g.w != nil {
		g.w = append(g.w, 1)
	}
	return idx
}

// Edge returns the edge with index i.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// Edges returns a copy of the edge list, indexed by edge index.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// Adj returns the adjacency list of v. The returned slice is a read-only
// view into the graph's internal storage; callers must not modify it.
func (g *Graph) Adj(v int) []Arc {
	g.checkVertex(v)
	return g.adj[v]
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int {
	g.checkVertex(v)
	return len(g.adj[v])
}

// MaxDegree returns the maximum vertex degree, 0 for an edgeless graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := len(g.adj[v]); d > max {
			max = d
		}
	}
	return max
}

// HasEdge reports whether the undirected edge {u, v} is present.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := g.EdgeIndex(u, v)
	return ok
}

// EdgeIndex returns the index of the undirected edge {u, v} if present.
func (g *Graph) EdgeIndex(u, v int) (int, bool) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n || u == v {
		return 0, false
	}
	// Scan the shorter adjacency list.
	a, b := u, v
	if len(g.adj[a]) > len(g.adj[b]) {
		a, b = b, a
	}
	for _, arc := range g.adj[a] {
		if arc.To == b {
			return arc.Edge, true
		}
	}
	return 0, false
}

// Weighted reports whether edge weights have been assigned.
func (g *Graph) Weighted() bool { return g.w != nil }

// Weight returns the weight of edge i. Unweighted graphs report weight 1
// for every edge, so algorithms can treat |H| and w(H) uniformly.
func (g *Graph) Weight(i int) float64 {
	if g.w == nil {
		if i < 0 || i >= len(g.edges) {
			panic(fmt.Sprintf("graph: edge index %d out of range", i))
		}
		return 1
	}
	return g.w[i]
}

// SetWeight assigns a non-negative weight to edge i, turning the graph
// weighted on first use.
func (g *Graph) SetWeight(i int, w float64) {
	if w < 0 {
		panic("graph: negative edge weight")
	}
	g.fp.Store(0)
	if g.w == nil {
		g.w = make([]float64, len(g.edges))
		for j := range g.w {
			g.w[j] = 1
		}
	}
	g.w[i] = w
}

// TotalWeight returns the sum of weights of the edges in s.
func (g *Graph) TotalWeight(s *EdgeSet) float64 {
	total := 0.0
	s.ForEach(func(i int) {
		total += g.Weight(i)
	})
	return total
}

// Fingerprint returns a 64-bit FNV-1a hash of g as built: the vertex and
// edge counts, whether g is weighted, and every edge in index order with
// its weight's bits. Unlike a canonical content hash, it changes when the
// edges are reordered, because a protocol run depends on edge indices.
// The value is computed once and cached until g changes; concurrent calls
// are safe.
func (g *Graph) Fingerprint() uint64 {
	if fp := g.fp.Load(); fp != 0 {
		return fp
	}
	h := fnv.New64a()
	b := binary.LittleEndian.AppendUint64(nil, uint64(g.n))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(g.edges)))
	if g.w != nil {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	h.Write(b)
	for i, e := range g.edges {
		b = binary.LittleEndian.AppendUint64(b[:0], uint64(e.U))
		b = binary.LittleEndian.AppendUint64(b, uint64(e.V))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(g.Weight(i)))
		h.Write(b)
	}
	fp := h.Sum64()
	g.fp.Store(fp)
	return fp
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{n: g.n, edges: make([]Edge, len(g.edges)), adj: make([][]Arc, g.n)}
	copy(c.edges, g.edges)
	for v := range g.adj {
		c.adj[v] = make([]Arc, len(g.adj[v]))
		copy(c.adj[v], g.adj[v])
	}
	if g.w != nil {
		c.w = make([]float64, len(g.w))
		copy(c.w, g.w)
	}
	return c
}

// Neighbors returns the sorted neighbor ids of v (without edge indices).
func (g *Graph) Neighbors(v int) []int {
	arcs := g.Adj(v)
	out := make([]int, len(arcs))
	for i, a := range arcs {
		out[i] = a.To
	}
	sort.Ints(out)
	return out
}

// BFS returns the vector of hop distances from src; unreachable vertices
// have distance -1.
func (g *Graph) BFS(src int) []int {
	g.checkVertex(src)
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int, 0, g.n)
	queue = append(queue, src)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, arc := range g.adj[v] {
			if dist[arc.To] == -1 {
				dist[arc.To] = dist[v] + 1
				queue = append(queue, arc.To)
			}
		}
	}
	return dist
}

// Connected reports whether the graph is connected. The empty graph and the
// single-vertex graph are connected.
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	dist := g.BFS(0)
	for _, d := range dist {
		if d == -1 {
			return false
		}
	}
	return true
}

// Ball returns the sorted vertices at hop distance at most d from v,
// including v itself.
func (g *Graph) Ball(v, d int) []int {
	g.checkVertex(v)
	if d < 0 {
		return nil
	}
	dist := map[int]int{v: 0}
	queue := []int{v}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if dist[u] == d {
			continue
		}
		for _, arc := range g.adj[u] {
			if _, seen := dist[arc.To]; !seen {
				dist[arc.To] = dist[u] + 1
				queue = append(queue, arc.To)
			}
		}
	}
	out := make([]int, 0, len(dist))
	for u := range dist {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// DistWithin returns the hop distance from u to v using only edges in the
// subset H, or -1 if v is farther than maxDepth (or unreachable). A
// maxDepth < 0 means unbounded. A loop of searches should hold one
// Searcher and call its DistWithin instead.
func (g *Graph) DistWithin(u, v int, H *EdgeSet, maxDepth int) int {
	var s Searcher
	return s.DistWithin(g, u, v, H, maxDepth)
}

// AvgDegree returns 2m/n, the average degree, or 0 for an empty graph.
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return 2 * float64(len(g.edges)) / float64(g.n)
}

func (g *Graph) checkVertex(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, g.n))
	}
}
