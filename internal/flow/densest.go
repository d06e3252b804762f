package flow

import (
	"fmt"
	"math"
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
// precision) via Dinkelbach iteration with a project-selection min-cut at
// each step. It returns the selected items and the achieved density. The
// flow network is built once per call; a step rewrites only the
// capacities that depend on the current density and solves it again.
//
// Every call runs in polynomial time: each Dinkelbach step strictly
// increases the density, and for the rational densities arising from
// unit-profit instances the number of steps is bounded by the number of
// distinct density values.
func Densest(in *DensestInstance) (selected []bool, density float64, err error) {
	if err := in.Validate(); err != nil {
		return nil, 0, err
	}
	selected, density, _ = in.dinkelbach()
	return selected, density, nil
}

// dinkelbach runs Densest's iteration on a valid instance and also returns
// the number of min-cut solves it took.
func (in *DensestInstance) dinkelbach() (best []bool, bestDensity float64, solves int) {
	// Starting point: the best singleton (guaranteed non-empty selection).
	best = make([]bool, in.NumItems)
	bestIdx := 0
	bestDensity = in.Bonus[0] / in.Cost[0]
	for u := 1; u < in.NumItems; u++ {
		if d := in.Bonus[u] / in.Cost[u]; d > bestDensity {
			bestDensity, bestIdx = d, u
		}
	}
	best[bestIdx] = true

	net, totalProfit := in.selectionNetwork()
	T := make([]bool, in.NumItems)
	for solves < 200 {
		solves++
		if !in.maxGainSelection(net, totalProfit, bestDensity, T) {
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
	return best, bestDensity, solves
}

// Node layout of the project-selection network: source, sink, one node
// per item, then one node per pair.
const (
	source = 0
	sink   = 1
)

func itemNode(u int) int { return 2 + u }

// selectionNetwork builds the project-selection network and returns it
// with the total profit on offer. The network's shape does not depend on
// the Dinkelbach density g; only the item -> sink capacities g*Cost[u] do,
// which maxGainSelection writes before each solve.
func (in *DensestInstance) selectionNetwork() (*Dinic, float64) {
	totalProfit := 0.0
	for _, b := range in.Bonus {
		totalProfit += b
	}
	totalProfit += float64(len(in.Pairs))
	inf := totalProfit + 1
	pairNode := func(p int) int { return 2 + in.NumItems + p }
	net := buildDinic(2+in.NumItems+len(in.Pairs), func(add func(u, v int, capacity float64)) {
		for u := 0; u < in.NumItems; u++ {
			if in.Bonus[u] > 0 {
				add(source, itemNode(u), in.Bonus[u])
			}
			add(itemNode(u), sink, 0)
		}
		for p, pr := range in.Pairs {
			add(source, pairNode(p), 1)
			add(pairNode(p), itemNode(pr[0]), inf)
			add(pairNode(p), itemNode(pr[1]), inf)
		}
	})
	return net, totalProfit
}

// maxGainSelection finds T maximizing profit(T) - g*cost(T) via a min cut
// of net, writing it into T. It reports false if the maximum is not
// positive or the maximizing selection is empty.
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
