package core

import (
	"slices"
	"sort"

	"distspanner/internal/flow"
)

// localView is a vertex's picture of its 2-neighborhood for one iteration:
// the selectable star edges (to neighbors), their costs, and the uncovered
// edges H_v between neighbors that a star can 2-span. Positions index the
// selectable neighbors; free neighbors (zero-cost star edges, which every
// chosen star includes implicitly) contribute per-item bonuses instead.
// A view never changes once built, so it solves its unrestricted densest
// star at most once.
type localView struct {
	nbrs   []int     // selectable neighbor ids, sorted
	cost   []float64 // star-edge cost per position (> 0)
	bonus  []float64 // uncovered H_v edges from this neighbor to free neighbors
	hAdj   [][]int   // H_v adjacency among selectable positions
	free   []int     // free (zero-cost) neighbor ids, always part of any star
	hPairs int       // number of H_v edges between selectable neighbors

	star  []bool  // densestStar(nil)'s selection once solved; never handed out
	starD float64 // its density
}

// Neighbor classes of newLocalView's position slice besides a selectable
// position (>= 0).
const (
	viewFree     = -1 // zero-cost star edge: always in the star
	viewUnusable = -2 // no star may use the edge
)

// newLocalView builds the view of a center whose neighbor ids are nbrs,
// sorted. cost(i) is the star-edge cost of nbrs[i]: positive for a
// selectable neighbor, zero for a free one, negative when no star may use
// the edge. above(i) lists, ascending, the positions q > i of the
// neighbors nbrs[q] that nbrs[i]'s uncovered edges reach — its row of
// H_v (see uncovRow). Reading the rows in (lower endpoint, upper
// endpoint) order fixes each hAdj list and so every densest-star
// instance.
func newLocalView(nbrs []int, cost func(i int) float64, above func(i int) []int32) *localView {
	at := make([]int32, len(nbrs)) // selectable position, viewFree or viewUnusable
	k := 0
	for i := range nbrs {
		switch c := cost(i); {
		case c > 0:
			at[i] = int32(k)
			k++
		case c == 0:
			at[i] = viewFree
		default:
			at[i] = viewUnusable
		}
	}
	v := &localView{
		nbrs:  make([]int, k),
		cost:  make([]float64, k),
		bonus: make([]float64, k),
		hAdj:  make([][]int, k),
	}
	for i, id := range nbrs {
		switch p := at[i]; {
		case p >= 0:
			v.nbrs[p], v.cost[p] = id, cost(i)
		case p == viewFree:
			v.free = append(v.free, id)
		}
	}
	for i := range nbrs {
		a := at[i]
		if a == viewUnusable {
			continue
		}
		for _, q := range above(i) {
			switch b := at[q]; {
			case a >= 0 && b >= 0:
				v.hAdj[a] = append(v.hAdj[a], int(b))
				v.hAdj[b] = append(v.hAdj[b], int(a))
				v.hPairs++
			case a >= 0 && b == viewFree:
				v.bonus[a]++
			case b >= 0 && a == viewFree:
				v.bonus[b]++
			}
			// Otherwise both endpoints are free (the edge is covered by
			// the free star edges added at start-up and never appears in
			// H_v), or the star cannot use the edge to nbrs[q].
		}
	}
	return v
}

// uncovRow is what a center keeps of the uncovered list its neighbor
// nbrs[i] announced: the list's length, and the part H_v can use — the
// positions q > i whose neighbor nbrs[q] the list names, ascending. Each
// H_v edge is kept once, by its lower endpoint; the ids below nbrs[i],
// the center and the non-neighbors in the list are only counted.
type uncovRow struct {
	above    []int32
	uncovLen int
}

// announce replaces the row with the full uncovered list ids (sorted) of
// nbrs[i]: one merge scan against the neighbors above it.
func (h *uncovRow) announce(nbrs []int, i int, ids []int) {
	h.uncovLen = len(ids)
	h.above = h.above[:0]
	q := i + 1
	for _, w := range ids {
		for q < len(nbrs) && nbrs[q] < w {
			q++
		}
		if q == len(nbrs) {
			break
		}
		if nbrs[q] == w {
			h.above = append(h.above, int32(q))
			q++
		}
	}
}

// remove deletes the sorted ids, a subset of the announced list, from the
// row. Ids the row does not hold are skipped.
func (h *uncovRow) remove(nbrs []int, ids []int) {
	h.uncovLen -= len(ids)
	out := h.above[:0]
	k := 0
	for _, q := range h.above {
		id := nbrs[q]
		for k < len(ids) && ids[k] < id {
			k++
		}
		if k < len(ids) && ids[k] == id {
			k++
			continue
		}
		out = append(out, q)
	}
	h.above = out
}

// position returns the position of the selectable neighbor id, -1 when id
// is not one.
func (v *localView) position(id int) int {
	if p, ok := slices.BinarySearch(v.nbrs, id); ok {
		return p
	}
	return -1
}

// starValue returns the number of H_v edges 2-spanned by the star with the
// given selectable positions (including bonuses via free neighbors) and the
// star's cost.
func (v *localView) starValue(sel []bool) (spanned, cost float64) {
	for p, in := range sel {
		if !in {
			continue
		}
		cost += v.cost[p]
		spanned += v.bonus[p]
		// Each H_v pair {p, q} is counted once, at its lower endpoint.
		for _, q := range v.hAdj[p] {
			if q > p && sel[q] {
				spanned++
			}
		}
	}
	return spanned, cost
}

// density returns spanned/cost for the selection, 0 for an empty or
// zero-cost selection.
func (v *localView) density(sel []bool) float64 {
	s, c := v.starValue(sel)
	if c <= 0 {
		return 0
	}
	return s / c
}

// densestStar computes the densest star among the allowed selectable
// positions (nil means all) using the flow-based densest-selection oracle.
// It returns the selection as a position-indexed mask, which the caller
// owns, and its density. When no positions are allowed it returns (nil,
// 0). The unrestricted star is solved once per view and copied out on
// every call.
func (v *localView) densestStar(allowed []bool) ([]bool, float64) {
	if allowed != nil {
		return v.solveStar(allowed)
	}
	if v.star == nil {
		v.star, v.starD = v.solveStar(nil)
		if v.star == nil {
			return nil, 0
		}
	}
	return copyMask(v.star), v.starD
}

// solveStar runs the oracle on the sub-instance over the allowed positions
// (nil means all).
func (v *localView) solveStar(allowed []bool) ([]bool, float64) {
	// item maps a position to its index in the sub-instance, -1 when the
	// position is not allowed.
	item := make([]int, len(v.nbrs))
	k := 0
	for p := range item {
		item[p] = -1
		if allowed == nil || allowed[p] {
			item[p] = k
			k++
		}
	}
	if k == 0 {
		return nil, 0
	}
	in := &flow.DensestInstance{
		NumItems: k,
		Cost:     make([]float64, k),
		Bonus:    make([]float64, k),
		Pairs:    make([][2]int, 0, v.hPairs),
	}
	for p, i := range item {
		if i < 0 {
			continue
		}
		in.Cost[i] = v.cost[p]
		in.Bonus[i] = v.bonus[p]
		for _, q := range v.hAdj[p] {
			if q > p && item[q] >= 0 {
				in.Pairs = append(in.Pairs, [2]int{i, item[q]})
			}
		}
	}
	selSub, density, err := flow.Densest(in)
	if err != nil {
		// Instance construction is internal; errors indicate a bug.
		panic("core: densest star oracle failed: " + err.Error())
	}
	sel := make([]bool, len(v.nbrs))
	for p, i := range item {
		if i >= 0 {
			sel[p] = selSub[i]
		}
	}
	return sel, density
}

// chooseStar implements the star-selection rule of Section 4.1. rho is the
// vertex's rounded density this iteration; prev is the star chosen in the
// previous iteration if the vertex was then a candidate at the same rounded
// density (nil otherwise). It returns the chosen selection and whether the
// degenerate fallback was taken (which Claim 4.4 proves never happens).
func (v *localView) chooseStar(rho float64, prev []bool) (sel []bool, fallback bool) {
	threshold := rho / 4
	if prev != nil {
		// Continuation at the same rounded density: shrink within prev.
		if v.density(prev) >= threshold {
			return copyMask(prev), false
		}
		base, d := v.densestStar(prev)
		if base != nil && d >= threshold {
			v.extend(base, threshold, prev)
			return base, false
		}
		// Claim 4.4 says this branch is unreachable; fall back to a fresh
		// choice and report it so tests can assert the invariant.
		sel, _ := v.freshStar(threshold)
		return sel, true
	}
	sel, _ = v.freshStar(threshold)
	return sel, false
}

func (v *localView) freshStar(threshold float64) ([]bool, float64) {
	sel, d := v.densestStar(nil)
	if sel == nil {
		return make([]bool, len(v.nbrs)), 0
	}
	v.extend(sel, threshold, nil)
	return sel, d
}

// extend grows sel per Section 4.1: repeatedly add a single star edge if
// the density stays at least threshold; otherwise add a disjoint star of
// density at least threshold; stop when neither exists. A non-nil within
// restricts additions to that mask (the shrink path only adds from the
// previous star).
func (v *localView) extend(sel []bool, threshold float64, within []bool) {
	spanned, cost := v.starValue(sel)
	for {
		progressed := false
		// Single-edge additions, in position order for determinism.
		for p := range v.nbrs {
			if sel[p] || (within != nil && !within[p]) {
				continue
			}
			gain := v.bonus[p]
			for _, q := range v.hAdj[p] {
				if sel[q] {
					gain++
				}
			}
			if (spanned+gain)/(cost+v.cost[p]) >= threshold {
				sel[p] = true
				spanned += gain
				cost += v.cost[p]
				progressed = true
			}
		}
		if progressed {
			continue
		}
		// Disjoint star addition: densest star among the remaining allowed
		// positions.
		allowed := make([]bool, len(v.nbrs))
		any := false
		for p := range v.nbrs {
			if !sel[p] && (within == nil || within[p]) {
				allowed[p] = true
				any = true
			}
		}
		if !any {
			return
		}
		disj, d := v.densestStar(allowed)
		if disj == nil || d < threshold {
			return
		}
		for p, in := range disj {
			if in {
				sel[p] = true
			}
		}
		spanned, cost = v.starValue(sel)
	}
}

// starNeighborIDs converts a selection mask to the sorted list of neighbor
// ids forming the star, including the always-present free neighbors.
func (v *localView) starNeighborIDs(sel []bool) []int {
	out := make([]int, 0, len(v.free)+len(sel))
	out = append(out, v.free...)
	for p, in := range sel {
		if in {
			out = append(out, v.nbrs[p])
		}
	}
	sort.Ints(out)
	return out
}

// maskFromIDs converts a list of neighbor ids back into a selection mask,
// ignoring free neighbors and ids that are no longer selectable.
func (v *localView) maskFromIDs(ids []int) []bool {
	sel := make([]bool, len(v.nbrs))
	for _, id := range ids {
		if p := v.position(id); p >= 0 {
			sel[p] = true
		}
	}
	return sel
}

func copyMask(m []bool) []bool {
	out := make([]bool, len(m))
	copy(out, m)
	return out
}
