package span

import "distspanner/internal/graph"

// StretchStats summarizes the per-edge stretch of a spanner H: for each
// edge {u,v} of the graph, the distance between u and v inside H.
type StretchStats struct {
	// Histogram[d] counts edges whose endpoints are at distance d in H
	// (index 1 = the edge itself is present).
	Histogram map[int]int
	// Max is the worst stretch; -1 if some edge's endpoints are
	// disconnected in H.
	Max int
	// Mean is the average stretch over edges (undefined, 0, when
	// disconnected or edgeless).
	Mean float64
}

// Stretch computes the stretch distribution of H over the edges of g,
// searching distances up to cap (use cap <= 0 for unbounded; disconnected
// pairs then mark the result disconnected).
func Stretch(g *graph.Graph, H *graph.EdgeSet, cap int) StretchStats {
	var s graph.Searcher
	st := StretchStats{Histogram: make(map[int]int)}
	total := 0
	for i := 0; i < g.M(); i++ {
		e := g.Edge(i)
		d := s.DistWithin(g, e.U, e.V, H, cap)
		if d < 0 {
			st.Max = -1
			st.Mean = 0
			return st
		}
		st.Histogram[d]++
		if d > st.Max {
			st.Max = d
		}
		total += d
	}
	if g.M() > 0 {
		st.Mean = float64(total) / float64(g.M())
	}
	return st
}

// DirectedStretch is the digraph analogue of Stretch.
func DirectedStretch(d *graph.Digraph, H *graph.EdgeSet, cap int) StretchStats {
	var s graph.Searcher
	st := StretchStats{Histogram: make(map[int]int)}
	total := 0
	for i := 0; i < d.M(); i++ {
		e := d.Edge(i)
		dist := s.DirectedDistWithin(d, e.U, e.V, H, cap)
		if dist < 0 {
			st.Max = -1
			st.Mean = 0
			return st
		}
		st.Histogram[dist]++
		if dist > st.Max {
			st.Max = dist
		}
		total += dist
	}
	if d.M() > 0 {
		st.Mean = float64(total) / float64(d.M())
	}
	return st
}
