package graph

// Searcher is reusable scratch for the bounded breadth-first searches
// behind DistWithin. A loop that searches once per edge holds one Searcher
// for the whole loop, so the searches allocate nothing once its buffers
// have grown. The zero value is ready to use. A Searcher must not be used
// by two goroutines at once; keep it in the loop, never on a shared graph.
type Searcher struct {
	// mark[x] == epoch marks x as visited by the current search. Each
	// search takes a fresh epoch instead of clearing the marks; they are
	// cleared only when the epoch counter wraps.
	mark      []uint32
	epoch     uint32
	cur, next []int // the frontier being expanded and the one being filled
}

// DistWithin is Graph.DistWithin run on the scratch s.
func (s *Searcher) DistWithin(g *Graph, u, v int, H *EdgeSet, maxDepth int) int {
	g.checkVertex(u)
	g.checkVertex(v)
	return s.dist(g.adj, u, v, H, maxDepth)
}

// DirectedDistWithin is Digraph.DistWithin run on the scratch s.
func (s *Searcher) DirectedDistWithin(g *Digraph, u, v int, H *EdgeSet, maxDepth int) int {
	g.checkVertex(u)
	g.checkVertex(v)
	return s.dist(g.out, u, v, H, maxDepth)
}

// dist searches level by level from u along the arcs of adj whose edges
// are in H, expanding at most maxDepth levels (all when maxDepth < 0).
func (s *Searcher) dist(adj [][]Arc, u, v int, H *EdgeSet, maxDepth int) int {
	if u == v {
		return 0
	}
	if len(s.mark) < len(adj) {
		s.mark = make([]uint32, len(adj))
	}
	s.epoch++
	if s.epoch == 0 {
		clear(s.mark)
		s.epoch = 1
	}
	mark, epoch := s.mark, s.epoch
	mark[u] = epoch
	s.cur = append(s.cur[:0], u)
	for depth := 0; len(s.cur) > 0 && (maxDepth < 0 || depth < maxDepth); depth++ {
		s.next = s.next[:0]
		for _, x := range s.cur {
			for _, arc := range adj[x] {
				if !H.Has(arc.Edge) || mark[arc.To] == epoch {
					continue
				}
				if arc.To == v {
					return depth + 1
				}
				mark[arc.To] = epoch
				s.next = append(s.next, arc.To)
			}
		}
		s.cur, s.next = s.next, s.cur
	}
	return -1
}
