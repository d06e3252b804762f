// Package decomp provides the network-decomposition substrate used by the
// paper's (1+ε)-approximation algorithm (Section 6): the randomized
// low-diameter decomposition of Linial and Saks [52], which partitions a
// graph into clusters of weak diameter O(log n) colored with O(log n)
// colors w.h.p., plus power-graph construction (the algorithm decomposes
// G^r for r = O(log n / ε)). DistributedLinialSaks runs the
// decomposition as a message-passing protocol on the round engine, so
// its round count is measured, not estimated.
package decomp

import "distspanner/internal/graph"

// Decomposition is a clustering of the vertices with a proper coloring of
// the cluster graph: clusters of the same color are non-adjacent (in the
// graph that was decomposed), so they can act in parallel.
type Decomposition struct {
	// Cluster[v] is the id of v's cluster (the id of the vertex that
	// captured it).
	Cluster []int
	// Color[v] is the phase in which v was clustered; clusters of equal
	// color are non-adjacent.
	Color []int
	// NumColors is 1 + the maximum color.
	NumColors int
}

// Clusters returns the vertex sets of the clusters, keyed by cluster id.
func (d *Decomposition) Clusters() map[int][]int {
	out := make(map[int][]int)
	for v, c := range d.Cluster {
		out[c] = append(out[c], v)
	}
	return out
}

// WeakDiameter returns the maximum, over clusters, of the largest distance
// in g between two vertices of the same cluster (distances measured in the
// whole graph: the Linial-Saks guarantee is weak diameter). Unreachable
// pairs inside a cluster yield -1.
func (d *Decomposition) WeakDiameter(g *graph.Graph) int {
	max := 0
	for _, members := range d.Clusters() {
		for _, v := range members {
			dist := g.BFS(v)
			for _, u := range members {
				if dist[u] == -1 {
					return -1
				}
				if dist[u] > max {
					max = dist[u]
				}
			}
		}
	}
	return max
}

// PowerGraph returns G^r: same vertices, an edge between every pair at hop
// distance between 1 and r in g.
func PowerGraph(g *graph.Graph, r int) *graph.Graph {
	if r < 1 {
		panic("decomp: power-graph radius must be >= 1")
	}
	p := graph.New(g.N())
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Ball(v, r) {
			if u > v {
				p.AddEdge(v, u)
			}
		}
	}
	return p
}
