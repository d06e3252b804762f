package core

import (
	"slices"
	"sort"
	"sync"

	"distspanner/internal/flow"
)

// localView is a vertex's picture of its 2-neighborhood for one iteration:
// the selectable star edges (to neighbors), their costs, and the uncovered
// edges H_v between neighbors that a star can 2-span. Positions index the
// selectable neighbors; free neighbors (zero-cost star edges, which every
// chosen star includes implicitly) contribute per-item bonuses instead.
// A view never changes once built, so it solves its unrestricted densest
// star at most once.
//
// H_v's adjacency among selectable positions is one int32 array: row p
// is adj[off[p]:off[p+1]] (see row), ascending.
//
// A directed view (Section 4.3.1) has the directed star's costs (1 or 2
// arcs per neighbor) and one H_v entry per arc, so a two-way pair appears
// twice in its rows and starValue, density and extend compute the
// directed value. Only two steps differ: the oracle solves the undirected
// reduction of Claims 4.10/4.11 (unit costs, distinct pairs), a
// 2-approximation, and the Section 4.1 thresholds are ρ/8 instead of ρ/4.
type localView struct {
	nbrs     []int     // selectable neighbor ids, sorted
	cost     []float64 // star-edge cost per position (> 0)
	bonus    []float64 // uncovered H_v edges from this neighbor to free neighbors
	adj      []int32   // H_v rows among selectable positions, concatenated
	off      []int32   // row p of adj starts at off[p]; len(off) = len(nbrs)+1
	free     []int     // free (zero-cost) neighbor ids, always part of any star
	hPairs   int       // number of H_v entries between selectable neighbors
	directed bool      // the directed form below

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
// H_v (see uncovRow), which newLocalView only reads; a directed view's
// rows repeat q for a two-way pair.
// Reading the rows in (lower endpoint, upper endpoint) order fixes each
// adjacency row and so every densest-star instance. Two passes over the
// rows in that order build it: the first counts each row and the bonuses,
// the second fills the rows.
//
// The count pass, into pooled scratch, also decides whether the view
// offers any profit. With no H_v pair between selectable positions and no
// bonus, every star spans nothing, so the view could never make its
// center a candidate: newLocalView then allocates nothing and returns a
// nil view. Either way c0 is the cost of the first selectable neighbor (0
// when there is none): the oracle's answer on a profitless view is that
// neighbor alone, at density 0.
func newLocalView(nbrs []int, cost func(i int) float64, above func(i int) []int32, directed bool) (v *localView, c0 float64) {
	sc := viewScratches.Get().(*viewScratch)
	defer viewScratches.Put(sc)
	at := slices.Grow(sc.at[:0], len(nbrs))[:len(nbrs)] // selectable position, viewFree or viewUnusable
	sc.at = at
	k := 0
	for i := range nbrs {
		switch c := cost(i); {
		case c > 0:
			if k == 0 {
				c0 = c
			}
			at[i] = int32(k)
			k++
		case c == 0:
			at[i] = viewFree
		default:
			at[i] = viewUnusable
		}
	}
	// Count: off[p+1] is row p's length.
	off, bonus := slices.Grow(sc.off[:0], k+1)[:k+1], slices.Grow(sc.bonus[:0], k)[:k]
	sc.off, sc.bonus = off, bonus
	clear(off)
	clear(bonus)
	hPairs, bonuses := 0, 0
	for i := range nbrs {
		a := at[i]
		if a == viewUnusable {
			continue
		}
		for _, q := range above(i) {
			switch b := at[q]; {
			case a >= 0 && b >= 0:
				off[a+1]++
				off[b+1]++
				hPairs++
			case a >= 0 && b == viewFree:
				bonus[a]++
				bonuses++
			case b >= 0 && a == viewFree:
				bonus[b]++
				bonuses++
			}
			// Otherwise both endpoints are free (the edge is covered by
			// the free star edges added at start-up and never appears in
			// H_v), or the star cannot use the edge to nbrs[q].
		}
	}
	if hPairs == 0 && bonuses == 0 {
		return nil, c0
	}
	v = &localView{
		nbrs:     make([]int, k),
		cost:     make([]float64, k),
		bonus:    make([]float64, k),
		off:      make([]int32, k+1),
		hPairs:   hPairs,
		directed: directed,
	}
	copy(v.bonus, bonus)
	copy(v.off, off)
	for i, id := range nbrs {
		switch p := at[i]; {
		case p >= 0:
			v.nbrs[p], v.cost[p] = id, cost(i)
		case p == viewFree:
			v.free = append(v.free, id)
		}
	}
	// off[p+1] becomes row p's end; filling then advances off[p], row p's
	// cursor, from row p's start to its end, and the shift restores the
	// starts.
	for p := 1; p <= k; p++ {
		v.off[p] += v.off[p-1]
	}
	v.adj = make([]int32, v.off[k])
	for i := range nbrs {
		a := at[i]
		if a < 0 {
			continue
		}
		for _, q := range above(i) {
			if b := at[q]; b >= 0 {
				v.adj[v.off[a]], v.adj[v.off[b]] = b, a
				v.off[a]++
				v.off[b]++
			}
		}
	}
	copy(v.off[1:], v.off[:k])
	v.off[0] = 0
	return v, c0
}

// noView is the view of every vertex whose H_v offers no profit (see
// newLocalView). It has no positions and is shared: such a vertex is
// never a candidate, so nothing reads it. It is not nil because a
// directed run's running minimum reads a nil view as "never built".
var noView = &localView{}

// viewScratch holds the buffers that newLocalView and solveStar use only
// while they run: newLocalView's class of each neighbor and its row
// counts and bonuses, and solveStar's position map and oracle
// sub-instance. Scratch is pooled, as flow pools its solvers, so each
// worker reuses one across rebuilds and concurrent vertices never share
// one.
type viewScratch struct {
	at    []int32
	off   []int32
	bonus []float64
	item  []int
	in    flow.DensestInstance
}

var viewScratches = sync.Pool{New: func() any { return new(viewScratch) }}

// row returns H_v's adjacency row of selectable position p, ascending.
func (v *localView) row(p int) []int32 { return v.adj[v.off[p]:v.off[p+1]] }

// uncovRow is what a center keeps of the uncovered list its neighbor
// nbrs[i] announced: the list's length, and the part H_v can use — the
// positions q > i whose neighbor nbrs[q] the list names, ascending. Each
// H_v edge is kept once, by its lower endpoint; the ids below nbrs[i],
// the center and the non-neighbors in the list are only counted. A
// directed run's arcs have no lower endpoint to keep them, so its rows
// hold every position the list names.
//
// The positions are the n entries from off on in the center's row arena,
// one []int32 for all its rows. A neighbor announces its full list once,
// so its row is appended to the arena once; removals compact it in place,
// and a dead neighbor's row is zeroed, its entries left unused. An int32
// holds every field: the arena holds at most one entry per H_v edge or
// arc, each an edge of the graph (see nbrState.edgeIdx).
type uncovRow struct {
	off, n   int32
	uncovLen int32
}

// announce appends to arena the row of the full uncovered list ids
// (sorted) of its neighbor, keeping the positions from lo on: one merge
// scan against the neighbors there. It returns the grown arena.
func (h *uncovRow) announce(arena []int32, nbrs []int, lo int, ids []int) []int32 {
	off := len(arena)
	for q := range positions(nbrs, lo, ids) {
		arena = append(arena, q)
	}
	*h = uncovRow{off: int32(off), n: int32(len(arena) - off), uncovLen: int32(len(ids))}
	return arena
}

// above returns the row's positions in arena. Its capacity ends with the
// row, so an append cannot write into the next one.
func (h *uncovRow) above(arena []int32) []int32 {
	return arena[h.off : h.off+h.n : h.off+h.n]
}

// remove deletes the sorted ids, a subset of the announced list, from the
// row in arena, compacting it in place. Ids the row does not hold are
// skipped.
func (h *uncovRow) remove(arena []int32, nbrs []int, ids []int) {
	h.uncovLen -= int32(len(ids))
	row := h.above(arena)
	out := row[:0]
	k := 0
	for _, q := range row {
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
	h.n = int32(len(out))
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
		for _, q := range v.row(p) {
			if int(q) > p && sel[q] {
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
// 0). The unrestricted star is solved once per view (see solved) and
// copied out on every call.
func (v *localView) densestStar(allowed []bool) ([]bool, float64) {
	if allowed != nil {
		return v.solveStar(allowed)
	}
	star, d := v.solved()
	if star == nil {
		return nil, 0
	}
	return copyMask(star), d
}

// solved returns the unrestricted densest star and its density, solving
// it on first use. The mask is the view's own: callers only read it.
func (v *localView) solved() ([]bool, float64) {
	if v.star == nil {
		v.star, v.starD = v.solveStar(nil)
	}
	return v.star, v.starD
}

// solveStar runs the oracle on the sub-instance over the allowed positions
// (nil means all). A directed view solves the undirected reduction and
// returns the directed density of its answer. The sub-instance is built
// in pooled scratch, so a call allocates only the mask it returns and the
// oracle's copy of its answer.
func (v *localView) solveStar(allowed []bool) ([]bool, float64) {
	sc := viewScratches.Get().(*viewScratch)
	defer viewScratches.Put(sc)
	return sc.solve(v, allowed)
}

// solve is solveStar in the scratch sc.
func (sc *viewScratch) solve(v *localView, allowed []bool) ([]bool, float64) {
	// item maps a position to its index in the sub-instance, -1 when the
	// position is not allowed.
	item := slices.Grow(sc.item[:0], len(v.nbrs))[:len(v.nbrs)]
	sc.item = item
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
	in := &sc.in
	in.NumItems = k
	in.Cost = slices.Grow(in.Cost[:0], k)[:k]
	in.Bonus = slices.Grow(in.Bonus[:0], k)[:k]
	in.Pairs = slices.Grow(in.Pairs[:0], v.hPairs)
	for p, i := range item {
		if i < 0 {
			continue
		}
		in.Cost[i] = v.cost[p]
		if v.directed {
			in.Cost[i] = 1
		}
		in.Bonus[i] = v.bonus[p]
		last := int32(-1) // the row is ascending: repeats of a pair are adjacent
		for _, q := range v.row(p) {
			if int(q) > p && q != last && item[q] >= 0 {
				in.Pairs = append(in.Pairs, [2]int{i, item[q]})
			}
			last = q
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
	if v.directed {
		return sel, v.density(sel)
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
	if v.directed {
		threshold = rho / 8 // the oracle is a 2-approximation
	}
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
			for _, q := range v.row(p) {
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
