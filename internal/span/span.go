// Package span defines the semantics of the spanner problems studied in the
// paper: k-spanner validity for undirected, directed, weighted, and
// client-server variants, coverage of single edges, spanner cost, and the
// simple lower bounds on OPT used by the approximation analyses.
//
// Following the paper's Preliminaries: an edge e = {u, v} is covered by an
// edge subset S if S contains a path of length at most k between u and v
// (for directed graphs, a directed path from u to v). A k-spanner of G is a
// subgraph covering all edges of G; a k-spanner of a subgraph G' ⊆ G covers
// all edges of G'.
package span

import (
	"distspanner/internal/graph"
)

// Covered reports whether edge i of g is covered by the edge subset H with
// stretch k: either i ∈ H or H contains a path of length at most k between
// its endpoints. The search runs on the scratch s; a loop over edges
// passes the same Searcher every time.
func Covered(s *graph.Searcher, g *graph.Graph, H *graph.EdgeSet, i, k int) bool {
	if H.Has(i) {
		return true
	}
	e := g.Edge(i)
	return s.DistWithin(g, e.U, e.V, H, k) >= 0
}

// CoveredDirected reports whether directed edge i of d is covered by H with
// stretch k: either i ∈ H or H contains a directed path of length at most k
// from its tail to its head. The search runs on the scratch s.
func CoveredDirected(s *graph.Searcher, d *graph.Digraph, H *graph.EdgeSet, i, k int) bool {
	if H.Has(i) {
		return true
	}
	e := d.Edge(i)
	return s.DirectedDistWithin(d, e.U, e.V, H, k) >= 0
}

// IsKSpanner reports whether H is a k-spanner of g: every edge of g is
// covered by H with stretch k.
func IsKSpanner(g *graph.Graph, H *graph.EdgeSet, k int) bool {
	return len(Violations(g, H, k, 1)) == 0
}

// Violations returns up to max edges of g not covered by H with stretch k.
// A max <= 0 returns all violations.
func Violations(g *graph.Graph, H *graph.EdgeSet, k, max int) []int {
	var s graph.Searcher
	var out []int
	for i := 0; i < g.M(); i++ {
		if !Covered(&s, g, H, i, k) {
			out = append(out, i)
			if max > 0 && len(out) >= max {
				return out
			}
		}
	}
	return out
}

// IsDirectedKSpanner reports whether H is a k-spanner of the digraph d.
func IsDirectedKSpanner(d *graph.Digraph, H *graph.EdgeSet, k int) bool {
	return len(DirectedViolations(d, H, k, 1)) == 0
}

// DirectedViolations returns up to max directed edges of d not covered by H
// with stretch k. A max <= 0 returns all violations.
func DirectedViolations(d *graph.Digraph, H *graph.EdgeSet, k, max int) []int {
	var s graph.Searcher
	var out []int
	for i := 0; i < d.M(); i++ {
		if !CoveredDirected(&s, d, H, i, k) {
			out = append(out, i)
			if max > 0 && len(out) >= max {
				return out
			}
		}
	}
	return out
}

// ClientServerValid reports whether H is a valid solution to the
// client-server k-spanner instance: H uses only server edges and covers
// every coverable client edge. Client edges that no server subset can cover
// are excluded, matching Section 4.3.3's convention of restricting clients
// to coverable edges.
func ClientServerValid(g *graph.Graph, clients, servers, H *graph.EdgeSet, k int) bool {
	sub := H.Clone()
	sub.SubtractWith(servers)
	if sub.Len() != 0 {
		return false // H contains a non-server edge
	}
	var s graph.Searcher
	ok := true
	clients.ForEach(func(i int) {
		if ok && Covered(&s, g, servers, i, k) && !Covered(&s, g, H, i, k) {
			ok = false
		}
	})
	return ok
}

// CoverableClients returns the subset of client edges that can be covered
// by some subset of server edges at stretch k (i.e. by all of them).
func CoverableClients(g *graph.Graph, clients, servers *graph.EdgeSet, k int) *graph.EdgeSet {
	var s graph.Searcher
	out := graph.NewEdgeSet(g.M())
	clients.ForEach(func(i int) {
		if Covered(&s, g, servers, i, k) {
			out.Add(i)
		}
	})
	return out
}

// Cost returns the cost of the spanner H: total weight for weighted graphs,
// edge count for unweighted ones (Weight reports 1 per edge then).
func Cost(g *graph.Graph, H *graph.EdgeSet) float64 {
	return g.TotalWeight(H)
}

// SpannerOPTLowerBound returns the trivial lower bound on the size of any
// k-spanner of a connected graph: n - 1 edges (the paper uses this
// repeatedly: any spanner of a connected graph connects it).
func SpannerOPTLowerBound(g *graph.Graph) int {
	if g.N() == 0 {
		return 0
	}
	return g.N() - 1
}

// ClientServerOPTLowerBound returns the |V(C)|/4 lower bound on the optimal
// client-server 2-spanner proven inside Lemma 4.16: H* must connect each
// connected component of the client graph, and each H* edge touches at most
// two components' vertex sets.
func ClientServerOPTLowerBound(g *graph.Graph, clients *graph.EdgeSet) float64 {
	vc := clientVertexCount(g, clients)
	return float64(vc) / 4
}

// ClientVertexCount returns |V(C)|: the number of vertices touching at
// least one client edge.
func ClientVertexCount(g *graph.Graph, clients *graph.EdgeSet) int {
	return clientVertexCount(g, clients)
}

func clientVertexCount(g *graph.Graph, clients *graph.EdgeSet) int {
	touched := make([]bool, g.N())
	clients.ForEach(func(i int) {
		e := g.Edge(i)
		touched[e.U] = true
		touched[e.V] = true
	})
	count := 0
	for _, b := range touched {
		if b {
			count++
		}
	}
	return count
}
