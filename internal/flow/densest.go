package flow

import (
	"fmt"
	"math"
	"sync"
)

// DensestInstance describes a densest-selection problem, the abstraction
// behind "densest star" computations:
//
//   - There are NumItems selectable items; selecting item u costs Cost[u] > 0
//     and immediately yields Bonus[u] >= 0 units of profit.
//   - Each Pair {a, b} yields 1 unit of profit if both items are selected.
//
// The goal is a non-empty selection T maximizing
//
//	density(T) = (pairs inside T + Σ_{u∈T} Bonus[u]) / Σ_{u∈T} Cost[u].
//
// For the unweighted densest v-star, items are v's neighbors (cost 1 each),
// pairs are the uncovered edges between neighbors, and bonuses are 0; this
// is exactly the maximum-density subgraph problem. For the weighted star,
// costs are edge weights and bonuses count uncovered edges to zero-weight
// neighbors (which are always taken for free).
type DensestInstance struct {
	NumItems int
	Cost     []float64
	Bonus    []float64
	Pairs    [][2]int
}

// Validate checks the instance for structural errors.
func (in *DensestInstance) Validate() error {
	if in.NumItems <= 0 {
		return fmt.Errorf("flow: densest instance needs at least one item, got %d", in.NumItems)
	}
	if len(in.Cost) != in.NumItems || len(in.Bonus) != in.NumItems {
		return fmt.Errorf("flow: cost/bonus length mismatch with %d items", in.NumItems)
	}
	for u, c := range in.Cost {
		if c <= 0 || math.IsNaN(c) {
			return fmt.Errorf("flow: item %d has non-positive cost %f", u, c)
		}
	}
	for u, b := range in.Bonus {
		if b < 0 || math.IsNaN(b) {
			return fmt.Errorf("flow: item %d has negative bonus %f", u, b)
		}
	}
	for _, p := range in.Pairs {
		if p[0] < 0 || p[0] >= in.NumItems || p[1] < 0 || p[1] >= in.NumItems || p[0] == p[1] {
			return fmt.Errorf("flow: invalid pair %v", p)
		}
	}
	return nil
}

// Value returns the profit of selection T (pairs fully inside T plus
// bonuses of T's items) and its total cost.
func (in *DensestInstance) Value(T []bool) (profit, cost float64) {
	for u, sel := range T {
		if sel {
			profit += in.Bonus[u]
			cost += in.Cost[u]
		}
	}
	for _, p := range in.Pairs {
		if T[p[0]] && T[p[1]] {
			profit++
		}
	}
	return profit, cost
}

// Densest solves the densest-selection problem exactly (up to floating
// precision) via Dinkelbach iteration. Each step finds the minimal
// selection maximizing profit(T) - g*cost(T) for the current density g as
// a min cut of Goldberg's densest-subgraph network (1984): source -> u
// with capacity d_u/2 + Bonus[u], where d_u counts u's pairs, u -> sink
// with capacity g*Cost[u], and each pair one arc of capacity 1/2 in both
// directions. The cut with source side {source} ∪ T costs the total profit
// minus the gain of T, so totalProfit - MaxFlow is the maximum gain, and
// the nodes the final breadth-first search reaches are its minimal
// maximizer. Densest is safe for concurrent use.
//
// Densest does only the work the instance needs:
//
//   - No profit on offer. With no pairs and every bonus 0, every selection
//     has density 0; Densest returns the first item at density 0 without
//     building a network.
//   - Peel. It repeatedly drops every item whose pairs to the remaining
//     items plus its bonus fall below L*Cost[u], L being the density of
//     the remaining items. No dropped item belongs to a selection of
//     maximum gain at any density of at least L, so the remaining items
//     hold the maximal densest selection.
//   - Start. When the peeled set is denser than the best singleton by
//     more than the tolerance 1e-9, Dinkelbach starts from it at its
//     density, on a network over the peeled items only. If that first solve finds no gain, the peeled
//     set is densest and holds every densest selection, so it is the
//     maximal one. Otherwise Dinkelbach starts from the best singleton,
//     on the whole instance.
//
// In exact arithmetic every path returns what the singleton start on the
// whole instance returns: the best singleton when nothing beats it, and
// otherwise the maximal densest selection. The network is built once per call, in
// buffers pooled across calls, and a step rewrites only the capacities
// that depend on g and solves it again.
//
// Every call runs in polynomial time: each Dinkelbach step strictly
// increases the density, and for the rational densities arising from
// unit-profit instances the number of steps is bounded by the number of
// distinct density values.
func Densest(in *DensestInstance) (selected []bool, density float64, err error) {
	if err := in.Validate(); err != nil {
		return nil, 0, err
	}
	s := solvers.Get().(*solver)
	best, density, _, _ := s.densest(in)
	selected = append([]bool(nil), best...)
	solvers.Put(s)
	return selected, density, nil
}

// solver holds the buffers of one Densest call: the flow network and the
// arcs it is built from, the instance items its nodes stand for, each
// item's node position, the peel's per-item profit, each network item's
// half pair count d_u/2, and the two selections Dinkelbach alternates
// between. Solvers are pooled, so each worker reuses one across calls and
// concurrent callers never share one.
type solver struct {
	net     Dinic
	arcs    []netArc
	items   []int // items[j] is the instance item at node itemNode(j)
	pos     []int // pos[u] is u's index in items, or -1
	gain    []float64
	half    []float64
	best, T []bool
}

var solvers = sync.Pool{New: func() any { return new(solver) }}

// Node layout of the flow networks: source, sink, then one node per item.
const (
	source = 0
	sink   = 1
)

func itemNode(j int) int { return 2 + j }

// peelMargin is the relative shortfall below L*Cost[u] at which the peel
// drops an item, so that a floating-point tie never drops one.
const peelMargin = 1e-12

// densest runs Densest on a valid instance. It also reports whether
// Dinkelbach started from the peeled set and how many min-cut solves it
// took, none when no profit is on offer. The returned selection is one of
// s's buffers.
func (s *solver) densest(in *DensestInstance) (best []bool, density float64, peeled bool, solves int) {
	s.best = resize(s.best, in.NumItems)
	single, density := bestSingleton(in)
	// Bonuses are never negative, so a zero density means every bonus is 0.
	noProfit := len(in.Pairs) == 0 && density == 0
	if !noProfit {
		if L := s.peel(in); L > density+eps {
			best, density, solves = s.dinkelbach(in, s.goldberg(in, s.best), L)
			return best, density, true, solves
		}
	}
	clear(s.best)
	s.best[single] = true
	if noProfit {
		return s.best, density, false, 0
	}
	best, density, solves = s.dinkelbach(in, s.goldberg(in, nil), density)
	return best, density, false, solves
}

// bestSingleton returns the first item of highest density alone, and
// that density.
func bestSingleton(in *DensestInstance) (single int, density float64) {
	density = in.Bonus[0] / in.Cost[0]
	for u := 1; u < in.NumItems; u++ {
		if d := in.Bonus[u] / in.Cost[u]; d > density {
			density, single = d, u
		}
	}
	return single, density
}

// peel leaves in s.best the items that can belong to a densest selection
// and returns their density. Each round drops every remaining item whose
// pairs to the remaining items plus its bonus fall below L*Cost[u], where
// L is the density of the remaining items, recomputed from them. Dropping
// items that add less than L times their cost raises the density, so L
// rises round by round. Take any selection holding dropped items, and
// its earliest-dropped one: that item adds less than L*Cost[u] to it, so
// at any density g >= L dropping the item raises the selection's gain.
// No dropped item is therefore in a selection of maximum gain at the
// final L or above. The maximal densest selection is one: its gain at the
// best density, which is at least L, is the maximum, 0.
func (s *solver) peel(in *DensestInstance) float64 {
	keep := s.best
	for u := range keep {
		keep[u] = true
	}
	gain := resize(s.gain, in.NumItems)
	s.gain = gain
	for {
		profit, cost := in.Value(keep)
		L := profit / cost
		copy(gain, in.Bonus)
		for _, p := range in.Pairs {
			if keep[p[0]] && keep[p[1]] {
				gain[p[0]]++
				gain[p[1]]++
			}
		}
		dropped := false
		for u, k := range keep {
			if k && gain[u] < L*in.Cost[u]*(1-peelMargin) {
				keep[u], dropped = false, true
			}
		}
		if !dropped {
			return L
		}
	}
}

// goldberg builds Goldberg's network over the items keep selects (every
// item when keep is nil) into s.net and returns the total profit on offer
// among them. The network's shape does not depend on the Dinkelbach
// density g; only the item -> sink capacities g*Cost[u] do, which
// maxGainSelection writes before each solve.
func (s *solver) goldberg(in *DensestInstance, keep []bool) float64 {
	pos, items := resize(s.pos, in.NumItems), s.items[:0]
	for u := range pos {
		pos[u] = -1
		if keep == nil || keep[u] {
			pos[u] = len(items)
			items = append(items, u)
		}
	}
	half := resize(s.half, len(items))
	clear(half)
	totalProfit, pairs := 0.0, 0
	for _, u := range items {
		totalProfit += in.Bonus[u]
	}
	for _, p := range in.Pairs {
		if a, b := pos[p[0]], pos[p[1]]; a >= 0 && b >= 0 {
			half[a] += 0.5
			half[b] += 0.5
			pairs++
		}
	}
	totalProfit += float64(pairs)
	arcs := s.arcs[:0]
	for j, u := range items {
		if c := half[j] + in.Bonus[u]; c > 0 {
			arcs = append(arcs, netArc{source, itemNode(j), c, 0})
		}
		arcs = append(arcs, netArc{itemNode(j), sink, 0, 0})
	}
	for _, p := range in.Pairs {
		if a, b := pos[p[0]], pos[p[1]]; a >= 0 && b >= 0 {
			arcs = append(arcs, netArc{itemNode(a), itemNode(b), 0.5, 0.5})
		}
	}
	s.net.build(2+len(items), arcs)
	s.pos, s.items, s.half, s.arcs = pos, items, half, arcs
	return totalProfit
}

// dinkelbach runs Densest's iteration from the selection in s.best, of
// density g, over the network built in s.net, and also returns the number
// of min-cut solves it took. The returned selection is one of s's
// buffers.
func (s *solver) dinkelbach(in *DensestInstance, totalProfit, g float64) (best []bool, bestDensity float64, solves int) {
	best, T := s.best, resize(s.T, in.NumItems)
	bestDensity = g
	for solves < 200 {
		solves++
		if !s.maxGainSelection(in, totalProfit, bestDensity, T) {
			break
		}
		profit, cost := in.Value(T)
		d := profit / cost
		if d <= bestDensity+eps {
			break
		}
		best, T = T, best
		bestDensity = d
	}
	s.best, s.T = best, T
	return best, bestDensity, solves
}

// maxGainSelection finds the minimal T maximizing profit(T) - g*cost(T)
// over the network's items via a min cut of s.net, writing it into T. It
// reports false if the maximum is not positive or the maximizing
// selection is empty.
func (s *solver) maxGainSelection(in *DensestInstance, totalProfit, g float64, T []bool) bool {
	net := &s.net
	net.resetFlow()
	for j, u := range s.items {
		// The sink's arcs are the reverses of the item -> sink arcs, in
		// item order.
		arc := &net.adj[itemNode(j)][net.adj[sink][j].rev]
		arc.cap = g * in.Cost[u]
		checkCapacity(arc.cap)
	}
	if totalProfit-net.MaxFlow(source, sink) <= eps {
		return false
	}
	clear(T)
	nonEmpty := false
	for j, u := range s.items {
		T[u] = net.sourceSide(itemNode(j))
		nonEmpty = nonEmpty || T[u]
	}
	return nonEmpty
}
