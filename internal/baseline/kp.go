// Package baseline implements the comparison algorithms the paper measures
// itself against in prose: the sequential greedy 2-spanner of Kortsarz and
// Peleg [46] (the O(log(m/n)) benchmark the distributed algorithm matches),
// the Baswana-Sen (2k-1)-spanner construction [7, 28] (whose O(n^{1+1/k})
// size yields the O(n^{1/k})-approximation for undirected k-spanners in
// CONGEST), the classic greedy dominating set, the trivial
// whole-graph n-approximation, and an expectation-only randomized star
// selector in the spirit of Jia et al. [43] for contrasting guaranteed
// versus in-expectation ratios.
package baseline

import (
	"slices"
	"sort"

	"distspanner/internal/flow"
	"distspanner/internal/graph"
	"distspanner/internal/span"
)

// KortsarzPeleg runs the sequential greedy 2-spanner algorithm [46]:
// repeatedly add the globally densest star with respect to the uncovered
// edges while its density exceeds 1, then take the remaining uncovered
// edges directly. Approximation ratio O(log(m/n)); weighted graphs get the
// weighted-density variant (density per unit star weight, zero-weight edges
// taken up front).
func KortsarzPeleg(g *graph.Graph) *graph.EdgeSet {
	m := g.M()
	H := graph.NewEdgeSet(m)
	covered := graph.NewEdgeSet(m)
	// Weighted pre-pass: zero-weight edges are free.
	if g.Weighted() {
		for i := 0; i < m; i++ {
			if g.Weight(i) == 0 {
				H.Add(i)
			}
		}
	}
	var s graph.Searcher
	refreshCoverage(&s, g, H, covered)

	density := make([]float64, g.N())
	slot := make([]int, g.N())
	stars := make([][]int, g.N())
	spans := make([]float64, g.N())
	dirty := make([]bool, g.N())
	for v := range dirty {
		dirty[v] = true
	}
	for {
		best, bestD := -1, 0.0
		for v := 0; v < g.N(); v++ {
			if dirty[v] {
				stars[v], spans[v], density[v] = densestStarOf(g, covered, v, slot)
				dirty[v] = false
			}
			if density[v] > bestD {
				best, bestD = v, density[v]
			}
		}
		if best < 0 || bestD <= 1 {
			break
		}
		for _, u := range stars[best] {
			idx, _ := g.EdgeIndex(best, u)
			H.Add(idx)
		}
		newlyCovered := refreshCoverage(&s, g, H, covered)
		markDirty(g, dirty, newlyCovered)
	}
	// Remaining uncovered edges are taken directly.
	for i := 0; i < m; i++ {
		if !covered.Has(i) {
			H.Add(i)
		}
	}
	return H
}

// densestStarOf computes the densest v-star against uncovered edges between
// v's neighbors: edges 2-spanned per unit star cost. Zero-weight star edges
// are free and always included. slot is vertex-indexed working memory,
// all zero on entry and on return.
func densestStarOf(g *graph.Graph, covered *graph.EdgeSet, v int, slot []int) (star []int, spanned, density float64) {
	var items []graph.Arc
	var free []int
	for _, arc := range g.Adj(v) {
		if g.Weight(arc.Edge) == 0 {
			free = append(free, arc.To)
		} else {
			items = append(items, arc)
		}
	}
	if len(items) == 0 {
		return free, 0, 0
	}
	slices.SortFunc(items, func(a, b graph.Arc) int { return a.To - b.To })
	in := &flow.DensestInstance{
		NumItems: len(items),
		Cost:     make([]float64, len(items)),
		Bonus:    make([]float64, len(items)),
	}
	// slot[u] is 1 + u's item index for a selectable neighbor, -1 for a
	// free one and 0 for any other vertex.
	for i, arc := range items {
		slot[arc.To] = i + 1
		in.Cost[i] = g.Weight(arc.Edge)
	}
	for _, u := range free {
		slot[u] = -1
	}
	// Uncovered edges between neighbors: pairs between selectable items,
	// bonuses for selectable-free pairs.
	for _, arc := range g.Adj(v) {
		u := arc.To
		for _, arc2 := range g.Adj(u) {
			w := arc2.To
			if w <= u || w == v || covered.Has(arc2.Edge) {
				continue
			}
			su, sw := slot[u], slot[w]
			switch {
			case su > 0 && sw > 0:
				in.Pairs = append(in.Pairs, [2]int{su - 1, sw - 1})
			case su > 0 && sw < 0:
				in.Bonus[su-1]++
			case sw > 0 && su < 0:
				in.Bonus[sw-1]++
			}
		}
	}
	for _, arc := range g.Adj(v) {
		slot[arc.To] = 0
	}
	sel, d, err := flow.Densest(in)
	if err != nil {
		panic("baseline: densest star failed: " + err.Error())
	}
	star = append(star, free...)
	for i, s := range sel {
		if s {
			star = append(star, items[i].To)
		}
	}
	// Spanned count: pairs inside the selection plus bonuses.
	prof, _ := in.Value(sel)
	return star, prof, d
}

// refreshCoverage recomputes covered status for all uncovered edges,
// searching on the scratch s, and returns the newly covered edge indices.
func refreshCoverage(s *graph.Searcher, g *graph.Graph, H, covered *graph.EdgeSet) []int {
	var newly []int
	for i := 0; i < g.M(); i++ {
		if covered.Has(i) {
			continue
		}
		if span.Covered(s, g, H, i, 2) {
			covered.Add(i)
			newly = append(newly, i)
		}
	}
	return newly
}

// markDirty invalidates cached densities of every vertex whose
// 2-neighborhood saw a coverage change.
func markDirty(g *graph.Graph, dirty []bool, newlyCovered []int) {
	for _, i := range newlyCovered {
		e := g.Edge(i)
		for _, v := range []int{e.U, e.V} {
			dirty[v] = true
			for _, arc := range g.Adj(v) {
				dirty[arc.To] = true
			}
		}
	}
}

// GreedyMDS is the classic sequential greedy dominating set: repeatedly
// take the vertex dominating the most not-yet-dominated vertices. Ratio
// ln Δ + 1.
func GreedyMDS(g *graph.Graph) []int {
	n := g.N()
	dominated := make([]bool, n)
	remaining := n
	var ds []int
	for remaining > 0 {
		best, bestGain := -1, 0
		for v := 0; v < n; v++ {
			gain := 0
			if !dominated[v] {
				gain++
			}
			for _, arc := range g.Adj(v) {
				if !dominated[arc.To] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = v, gain
			}
		}
		if best < 0 {
			break
		}
		ds = append(ds, best)
		if !dominated[best] {
			dominated[best] = true
			remaining--
		}
		for _, arc := range g.Adj(best) {
			if !dominated[arc.To] {
				dominated[arc.To] = true
				remaining--
			}
		}
	}
	sort.Ints(ds)
	return ds
}
