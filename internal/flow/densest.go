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
// maximizer. The network has 2 + NumItems nodes; it is built once per call
// in buffers pooled across calls, and a step rewrites only the
// capacities that depend on g and solves it again. Densest is safe for
// concurrent use.
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
	best, density, _ := s.dinkelbach(in, s.goldberg(in))
	selected = append([]bool(nil), best...)
	solvers.Put(s)
	return selected, density, nil
}

// solver holds the buffers of one Densest call: the flow network, each
// item's half pair count d_u/2, and the two selections Dinkelbach
// alternates between. Solvers are pooled, so each worker reuses one
// across calls and concurrent callers never share one.
type solver struct {
	net     Dinic
	half    []float64
	best, T []bool
}

var solvers = sync.Pool{New: func() any { return new(solver) }}

// Node layout of the flow networks: source, sink, then one node per item.
const (
	source = 0
	sink   = 1
)

func itemNode(u int) int { return 2 + u }

// goldberg builds Goldberg's network for the instance into s.net and
// returns the total profit on offer. The network's shape does not depend
// on the Dinkelbach density g; only the item -> sink capacities g*Cost[u]
// do, which maxGainSelection writes before each solve.
func (s *solver) goldberg(in *DensestInstance) float64 {
	totalProfit := 0.0
	for _, b := range in.Bonus {
		totalProfit += b
	}
	totalProfit += float64(len(in.Pairs))
	half := resize(s.half, in.NumItems)
	clear(half)
	for _, p := range in.Pairs {
		half[p[0]] += 0.5
		half[p[1]] += 0.5
	}
	s.half = half
	s.net.build(2+in.NumItems, func(add func(u, v int, c, rc float64)) {
		for u := 0; u < in.NumItems; u++ {
			if c := half[u] + in.Bonus[u]; c > 0 {
				add(source, itemNode(u), c, 0)
			}
			add(itemNode(u), sink, 0, 0)
		}
		for _, p := range in.Pairs {
			add(itemNode(p[0]), itemNode(p[1]), 0.5, 0.5)
		}
	})
	return totalProfit
}

// dinkelbach runs Densest's iteration on a valid instance whose network
// is built in s.net, and also returns the number of min-cut solves it
// took. The returned selection is one of s's buffers.
func (s *solver) dinkelbach(in *DensestInstance, totalProfit float64) (best []bool, bestDensity float64, solves int) {
	best, T := resize(s.best, in.NumItems), resize(s.T, in.NumItems)
	// Starting point: the best singleton (guaranteed non-empty selection).
	clear(best)
	bestIdx := 0
	bestDensity = in.Bonus[0] / in.Cost[0]
	for u := 1; u < in.NumItems; u++ {
		if d := in.Bonus[u] / in.Cost[u]; d > bestDensity {
			bestDensity, bestIdx = d, u
		}
	}
	best[bestIdx] = true

	for solves < 200 {
		solves++
		if !in.maxGainSelection(&s.net, totalProfit, bestDensity, T) {
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
// via a min cut of net, writing it into T. It reports false if the
// maximum is not positive or the maximizing selection is empty.
func (in *DensestInstance) maxGainSelection(net *Dinic, totalProfit, g float64, T []bool) bool {
	net.resetFlow()
	for u, c := range in.Cost {
		// The sink's arcs are the reverses of the item -> sink arcs, in
		// item order.
		arc := &net.adj[itemNode(u)][net.adj[sink][u].rev]
		arc.cap = g * c
		checkCapacity(arc.cap)
	}
	if totalProfit-net.MaxFlow(source, sink) <= eps {
		return false
	}
	nonEmpty := false
	for u := range T {
		T[u] = net.sourceSide(itemNode(u))
		nonEmpty = nonEmpty || T[u]
	}
	return nonEmpty
}
