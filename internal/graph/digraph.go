package graph

import (
	"fmt"
	"sort"
)

// Digraph is a simple directed graph with indexed edges and optional
// non-negative edge weights. Edge i is directed Edge(i).U -> Edge(i).V.
// Construct with NewDigraph.
type Digraph struct {
	n     int
	edges []Edge
	out   [][]Arc
	in    [][]Arc
	w     []float64
}

// NewDigraph returns an empty directed graph on n vertices.
func NewDigraph(n int) *Digraph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Digraph{n: n, out: make([][]Arc, n), in: make([][]Arc, n)}
}

// N returns the number of vertices.
func (g *Digraph) N() int { return g.n }

// M returns the number of directed edges.
func (g *Digraph) M() int { return len(g.edges) }

// AddEdge inserts the directed edge (u, v) and returns its index. If the
// edge already exists the existing index is returned. Self-loops panic.
func (g *Digraph) AddEdge(u, v int) int {
	g.checkVertex(u)
	g.checkVertex(v)
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at vertex %d", u))
	}
	if idx, ok := g.EdgeIndex(u, v); ok {
		return idx
	}
	idx := len(g.edges)
	g.edges = append(g.edges, Edge{U: u, V: v})
	g.out[u] = append(g.out[u], Arc{To: v, Edge: idx})
	g.in[v] = append(g.in[v], Arc{To: u, Edge: idx})
	if g.w != nil {
		g.w = append(g.w, 1)
	}
	return idx
}

// Edge returns the directed edge with index i.
func (g *Digraph) Edge(i int) Edge { return g.edges[i] }

// Edges returns a copy of the edge list, indexed by edge index.
func (g *Digraph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// Out returns the outgoing arcs of v. Read-only view; do not modify.
func (g *Digraph) Out(v int) []Arc {
	g.checkVertex(v)
	return g.out[v]
}

// In returns the incoming arcs of v (Arc.To is the source vertex).
// Read-only view; do not modify.
func (g *Digraph) In(v int) []Arc {
	g.checkVertex(v)
	return g.in[v]
}

// OutDegree returns the out-degree of v.
func (g *Digraph) OutDegree(v int) int {
	g.checkVertex(v)
	return len(g.out[v])
}

// InDegree returns the in-degree of v.
func (g *Digraph) InDegree(v int) int {
	g.checkVertex(v)
	return len(g.in[v])
}

// MaxDegree returns the maximum total degree (in + out) over all vertices.
func (g *Digraph) MaxDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := len(g.out[v]) + len(g.in[v]); d > max {
			max = d
		}
	}
	return max
}

// HasEdge reports whether the directed edge (u, v) is present.
func (g *Digraph) HasEdge(u, v int) bool {
	_, ok := g.EdgeIndex(u, v)
	return ok
}

// EdgeIndex returns the index of the directed edge (u, v) if present.
func (g *Digraph) EdgeIndex(u, v int) (int, bool) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n || u == v {
		return 0, false
	}
	if len(g.out[u]) <= len(g.in[v]) {
		for _, arc := range g.out[u] {
			if arc.To == v {
				return arc.Edge, true
			}
		}
		return 0, false
	}
	for _, arc := range g.in[v] {
		if arc.To == u {
			return arc.Edge, true
		}
	}
	return 0, false
}

// Weighted reports whether edge weights have been assigned.
func (g *Digraph) Weighted() bool { return g.w != nil }

// Weight returns the weight of edge i; unweighted digraphs report 1.
func (g *Digraph) Weight(i int) float64 {
	if g.w == nil {
		if i < 0 || i >= len(g.edges) {
			panic(fmt.Sprintf("graph: edge index %d out of range", i))
		}
		return 1
	}
	return g.w[i]
}

// SetWeight assigns a non-negative weight to edge i.
func (g *Digraph) SetWeight(i int, w float64) {
	if w < 0 {
		panic("graph: negative edge weight")
	}
	if g.w == nil {
		g.w = make([]float64, len(g.edges))
		for j := range g.w {
			g.w[j] = 1
		}
	}
	g.w[i] = w
}

// TotalWeight returns the sum of weights of the edges in s.
func (g *Digraph) TotalWeight(s *EdgeSet) float64 {
	total := 0.0
	s.ForEach(func(i int) {
		total += g.Weight(i)
	})
	return total
}

// Clone returns a deep copy of g.
func (g *Digraph) Clone() *Digraph {
	c := &Digraph{
		n:     g.n,
		edges: make([]Edge, len(g.edges)),
		out:   make([][]Arc, g.n),
		in:    make([][]Arc, g.n),
	}
	copy(c.edges, g.edges)
	for v := 0; v < g.n; v++ {
		c.out[v] = make([]Arc, len(g.out[v]))
		copy(c.out[v], g.out[v])
		c.in[v] = make([]Arc, len(g.in[v]))
		copy(c.in[v], g.in[v])
	}
	if g.w != nil {
		c.w = make([]float64, len(g.w))
		copy(c.w, g.w)
	}
	return c
}

// Underlying returns the undirected graph obtained by forgetting edge
// directions (anti-parallel pairs collapse to one undirected edge), along
// with a mapping from each directed edge index to its undirected index.
// This is the communication graph: the paper's model communicates
// bidirectionally even for directed spanner problems.
func (g *Digraph) Underlying() (*Graph, []int) {
	u := New(g.n)
	mapping := make([]int, len(g.edges))
	for i, e := range g.edges {
		mapping[i] = u.AddEdge(e.U, e.V)
	}
	return u, mapping
}

// DistWithin returns the directed hop distance from u to v using only
// edges in the subset H, or -1 if v is farther than maxDepth (or
// unreachable). A maxDepth < 0 means unbounded. A loop of searches should
// hold one Searcher and call its DirectedDistWithin instead.
func (g *Digraph) DistWithin(u, v int, H *EdgeSet, maxDepth int) int {
	var s Searcher
	return s.DirectedDistWithin(g, u, v, H, maxDepth)
}

// OutNeighbors returns the sorted out-neighbor ids of v.
func (g *Digraph) OutNeighbors(v int) []int {
	arcs := g.Out(v)
	out := make([]int, len(arcs))
	for i, a := range arcs {
		out[i] = a.To
	}
	sort.Ints(out)
	return out
}

func (g *Digraph) checkVertex(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, g.n))
	}
}
