package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"distspanner/internal/dist"
	"distspanner/internal/graph"
)

func TestRoundUpPow2(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0}, {-3, 0},
		{0.3, 0.5}, {0.5, 1}, {0.75, 1},
		{1, 2}, {1.5, 2}, {2, 4}, {3, 4}, {4, 8}, {7.9, 8}, {8, 16},
		{0.25, 0.5}, {0.125, 0.25},
	}
	for _, c := range cases {
		if got := RoundUpPow2(c.in); got != c.want {
			t.Fatalf("RoundUpPow2(%f) = %f, want %f (strictly greater power of 2)", c.in, got, c.want)
		}
	}
}

func TestLocalViewDensity(t *testing.T) {
	// Neighbors 10, 20, 30 with unit costs; H_v edges {10,20} and {20,30}.
	sel := map[int]float64{10: 1, 20: 1, 30: 1}
	v := viewOf(sel, nil, [][2]int{{10, 20}, {20, 30}})
	full := []bool{true, true, true}
	s, c := v.starValue(full)
	if s != 2 || c != 3 {
		t.Fatalf("full star value = (%f, %f), want (2, 3)", s, c)
	}
	// The densest star is the full star here: 2/3. Any pair gives 1/2.
	mask, d := v.densestStar(nil)
	if math.Abs(d-2.0/3.0) > 1e-9 {
		t.Fatalf("densest density = %f, want 2/3", d)
	}
	for p, in := range mask {
		if !in {
			t.Fatalf("densest star must select all neighbors, missing position %d", p)
		}
	}
}

func TestLocalViewDensestPrefersCore(t *testing.T) {
	// Neighbors 1..5; H_v forms a K4 on {1,2,3,4} (6 edges) and a pendant
	// edge {1,5}. Densest star is {1,2,3,4}: 6/4 > 7/5.
	sel := map[int]float64{1: 1, 2: 1, 3: 1, 4: 1, 5: 1}
	var h [][2]int
	for a := 1; a <= 4; a++ {
		for b := a + 1; b <= 4; b++ {
			h = append(h, [2]int{a, b})
		}
	}
	h = append(h, [2]int{1, 5})
	v := viewOf(sel, nil, h)
	mask, d := v.densestStar(nil)
	if math.Abs(d-1.5) > 1e-9 {
		t.Fatalf("densest density = %f, want 1.5", d)
	}
	if mask[v.position(5)] {
		t.Fatal("pendant neighbor must not be in the densest star")
	}
}

func TestLocalViewFreeNeighborsBonuses(t *testing.T) {
	// Free neighbor 99 (zero-weight star edge); selectable 1 with an H
	// edge to 99: bonus of 1 at cost of 1's weight.
	sel := map[int]float64{1: 2}
	v := viewOf(sel, []int{99}, [][2]int{{1, 99}})
	if v.bonus[v.position(1)] != 1 {
		t.Fatalf("bonus = %f, want 1", v.bonus[v.position(1)])
	}
	mask, d := v.densestStar(nil)
	if math.Abs(d-0.5) > 1e-9 {
		t.Fatalf("density = %f, want 1/2 (one edge per weight 2)", d)
	}
	ids := v.starNeighborIDs(mask)
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 99 {
		t.Fatalf("star ids = %v, want [1 99] (free neighbors always included)", ids)
	}
}

func TestChooseStarFreshMeetsThreshold(t *testing.T) {
	// rho rounded = 2 for raw densities in (1, 2]; chosen star must have
	// density >= rho/4 = 0.5.
	sel := map[int]float64{1: 1, 2: 1, 3: 1, 4: 1}
	h := [][2]int{{1, 2}, {2, 3}, {3, 4}, {1, 4}, {1, 3}}
	v := viewOf(sel, nil, h)
	_, raw := v.densestStar(nil)
	rho := RoundUpPow2(raw)
	mask, fb := v.chooseStar(rho, nil)
	if fb {
		t.Fatal("fresh choice must not fall back")
	}
	if d := v.density(mask); d < rho/4-1e-9 {
		t.Fatalf("chosen star density %f < rho/4 = %f", d, rho/4)
	}
}

func TestChooseStarExtensionAddsDisjoint(t *testing.T) {
	// Two disjoint triangles among neighbors: {1,2,3} and {4,5,6}, each
	// with 3 H-edges (density 1). The densest star is one triangle; the
	// extension rule must absorb the other (density 1 >= rho/4 = 0.5).
	sel := map[int]float64{1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1}
	h := [][2]int{{1, 2}, {2, 3}, {1, 3}, {4, 5}, {5, 6}, {4, 6}}
	v := viewOf(sel, nil, h)
	_, raw := v.densestStar(nil)
	rho := RoundUpPow2(raw) // raw = 1, rho = 2
	mask, fb := v.chooseStar(rho, nil)
	if fb {
		t.Fatal("unexpected fallback")
	}
	count := 0
	for _, in := range mask {
		if in {
			count++
		}
	}
	if count != 6 {
		t.Fatalf("extension selected %d neighbors, want all 6 (disjoint star absorbed)", count)
	}
}

func TestChooseStarShrinkPath(t *testing.T) {
	// Previous star {1,2,3} with old H; new H lost edge {1,2} but keeps
	// {2,3}: density of prev under new H is 1/3 >= rho/4 when rho <= 4/3.
	sel := map[int]float64{1: 1, 2: 1, 3: 1}
	v := viewOf(sel, nil, [][2]int{{2, 3}})
	prev := []bool{true, true, true}
	rho := 1.0 // threshold 0.25; prev density = 1/3 >= 0.25: keep prev
	mask, fb := v.chooseStar(rho, prev)
	if fb {
		t.Fatal("unexpected fallback")
	}
	for p, in := range prev {
		if mask[p] != in {
			t.Fatal("shrink path must keep the previous star when still dense enough")
		}
	}
	// With rho = 2 (threshold 0.5), prev density 1/3 < 0.5: shrink to the
	// densest sub-star {2,3} (density 1/2).
	mask2, fb2 := v.chooseStar(2, prev)
	if fb2 {
		t.Fatal("unexpected fallback on shrink")
	}
	if mask2[v.position(1)] {
		t.Fatal("shrunken star must drop neighbor 1")
	}
	if !mask2[v.position(2)] || !mask2[v.position(3)] {
		t.Fatal("shrunken star must keep the dense pair {2,3}")
	}
}

func TestChooseStarShrinkNeverGrows(t *testing.T) {
	// The shrink path must never select outside prev even when denser
	// stars exist elsewhere.
	sel := map[int]float64{1: 1, 2: 1, 3: 1, 4: 1}
	// Dense pair {3,4} outside prev; prev = {1,2} with one edge.
	v := viewOf(sel, nil, [][2]int{{1, 2}, {3, 4}})
	prev := []bool{true, true, false, false}
	mask, fb := v.chooseStar(2, prev) // threshold 0.5; prev density 1/2: kept
	if fb {
		t.Fatal("unexpected fallback")
	}
	if mask[v.position(3)] || mask[v.position(4)] {
		t.Fatal("shrink path escaped the previous star")
	}
}

// The unrestricted densest star is solved once per view and copied out:
// two calls return equal masks that do not alias, so a caller mutating
// its mask (extend does) leaves the next caller's answer intact, and a
// repeated call allocates only the copy.
func TestDensestStarMemoCopiesOut(t *testing.T) {
	sel := map[int]float64{1: 1, 2: 1, 3: 1, 4: 1, 5: 1}
	v := viewOf(sel, nil, [][2]int{{1, 2}, {1, 3}, {2, 3}, {3, 4}})
	first, d1 := v.densestStar(nil)
	second, d2 := v.densestStar(nil)
	if d1 != d2 || !slices.Equal(first, second) {
		t.Fatalf("repeated calls differ: %v %v vs %v %v", first, d1, second, d2)
	}
	want := slices.Clone(second)
	for p := range first {
		first[p] = !first[p]
	}
	third, d3 := v.densestStar(nil)
	if !slices.Equal(second, want) || !slices.Equal(third, want) || d3 != d1 {
		t.Fatalf("mutating one answer changed another: second %v, third %v, want %v", second, third, want)
	}
	if allocs := testing.AllocsPerRun(50, func() { v.densestStar(nil) }); allocs != 1 {
		t.Fatalf("a memoized call allocates %.0f objects, want only the copy", allocs)
	}
}

// inRec delivers r from vertex from, as the engine's inbox would.
func inRec(from int, r dist.Rec) dist.InRec { return dist.InRec{From: from, Rec: &r} }

// viewOf builds a view through newLocalView from the selectable
// neighbors' costs, the free neighbor ids, and the H_v edges as id pairs;
// nil when they offer no profit.
func viewOf(sel map[int]float64, free []int, h [][2]int) *localView {
	cost := make(map[int]float64, len(sel)+len(free))
	ids := make([]int, 0, len(sel)+len(free))
	for id, c := range sel {
		cost[id] = c
		ids = append(ids, id)
	}
	for _, id := range free {
		cost[id] = 0
		ids = append(ids, id)
	}
	sort.Ints(ids)
	uncov := make([][]int, len(ids))
	for _, e := range h {
		a, b := min(e[0], e[1]), max(e[0], e[1])
		i := posOf(ids, a)
		uncov[i] = append(uncov[i], b)
	}
	rows := newRowSet(len(ids))
	for i, l := range uncov {
		sort.Ints(l)
		rows.announce(i, ids, i+1, l)
	}
	v, _ := newLocalView(ids, func(i int) float64 { return cost[ids[i]] }, rows.above, false)
	return v
}

// rowSet is a center's H_v rows as the node keeps them: one uncovRow per
// neighbor position, all in one shared arena.
type rowSet struct {
	arena []int32
	rows  []uncovRow
}

func newRowSet(n int) *rowSet { return &rowSet{rows: make([]uncovRow, n)} }

// announce appends row i, the full list ids cut from position lo on.
func (s *rowSet) announce(i int, nbrs []int, lo int, ids []int) {
	s.arena = s.rows[i].announce(s.arena, nbrs, lo, ids)
}

// above is newLocalView's H_v row accessor.
func (s *rowSet) above(i int) []int32 { return s.rows[i].above(s.arena) }

// refLocalView is the map-based view construction newLocalView replaced,
// kept as its reference: the selectable map and free list the undirected
// node used to assemble, the H_v id pairs of its hEdges merge scan, and
// the pos and freeSet maps that placed each pair in per-position
// adjacency lists, concatenated at the end into the view's rows.
func refLocalView(nbrs []int, star []bool, weight []float64, uncov [][]int) *localView {
	selectable := make(map[int]float64)
	var free []int
	for i, u := range nbrs {
		if !star[i] {
			continue
		}
		if weight[i] == 0 {
			free = append(free, u)
		} else {
			selectable[u] = weight[i]
		}
	}
	var hEdges [][2]int
	for i, u := range nbrs {
		above := nbrs[i+1:]
		j := 0
		for _, w := range uncov[i] {
			if w <= u {
				continue
			}
			for j < len(above) && above[j] < w {
				j++
			}
			if j == len(above) {
				break
			}
			if above[j] == w {
				hEdges = append(hEdges, [2]int{u, w})
			}
		}
	}
	v := &localView{}
	pos := make(map[int]int, len(selectable))
	for id := range selectable {
		v.nbrs = append(v.nbrs, id)
	}
	sort.Ints(v.nbrs)
	v.cost = make([]float64, len(v.nbrs))
	v.bonus = make([]float64, len(v.nbrs))
	lists := make([][]int32, len(v.nbrs))
	for i, id := range v.nbrs {
		pos[id] = i
		v.cost[i] = selectable[id]
	}
	v.free = append([]int(nil), free...)
	sort.Ints(v.free)
	freeSet := make(map[int]bool, len(free))
	for _, id := range free {
		freeSet[id] = true
	}
	for _, e := range hEdges {
		a, ok1 := pos[e[0]]
		b, ok2 := pos[e[1]]
		switch {
		case ok1 && ok2:
			lists[a] = append(lists[a], int32(b))
			lists[b] = append(lists[b], int32(a))
			v.hPairs++
		case ok1 && freeSet[e[1]]:
			v.bonus[a]++
		case ok2 && freeSet[e[0]]:
			v.bonus[b]++
		}
	}
	v.off = []int32{0}
	for _, l := range lists {
		v.adj = append(v.adj, l...)
		v.off = append(v.off, int32(len(v.adj)))
	}
	return v
}

// removeSorted deletes the sorted values of del from the sorted slice dst
// in place, returning the shortened slice: the reference's list removal.
func removeSorted(dst, del []int) []int {
	out := dst[:0]
	k := 0
	for _, v := range dst {
		if k < len(del) && del[k] == v {
			k++
			continue
		}
		out = append(out, v)
	}
	return out
}

// TestLocalViewMatchesMapReference builds seeded random neighborhoods —
// unit and real weights, about 20% free neighbors, a client-server
// star-edge predicate on half the instances, and uncovered lists that
// mix neighbors above and below, non-neighbors, and the center. Each
// list is announced in full and then thinned by one to four removal
// batches (sorted subsets of what is left), applied to the reference id
// lists by removeSorted and to the H_v rows by the receipt code. All
// rows share one arena, appended in a shuffled order, so a removal's
// in-place compaction must stay inside its own row. The
// view built from the rows by newLocalView must equal the map-based
// reference built from the ids field by field (row order included), with
// the same densest star to the bit, and each row must keep its list's
// length. Where the reference offers no profit (no pair, no bonus),
// newLocalView must build no view; either way it must return the
// reference's first selectable cost.
func TestLocalViewMatchesMapReference(t *testing.T) {
	const instances = 1200
	rng := rand.New(rand.NewSource(17))
	order := rand.New(rand.NewSource(18)) // the rows' arena order
	var withPairs, withBonus, withStar, dropsHeld, skipsUnheld int
	for inst := 0; inst < instances; inst++ {
		universe := 8 + rng.Intn(56)
		center := rng.Intn(universe)
		var nbrs []int
		density := 0.2 + 0.7*rng.Float64()
		for id := 0; id < universe; id++ {
			if id != center && rng.Float64() < density {
				nbrs = append(nbrs, id)
			}
		}
		unit, clientServer := rng.Intn(2) == 0, rng.Intn(2) == 0
		star := make([]bool, len(nbrs))
		weight := make([]float64, len(nbrs))
		for i := range nbrs {
			star[i] = !clientServer || rng.Float64() < 0.7
			switch {
			case rng.Float64() < 0.2:
				weight[i] = 0
			case unit:
				weight[i] = 1
			default:
				weight[i] = 0.25 + 4*rng.Float64()
			}
		}
		uncov := make([][]int, len(nbrs))
		rows := newRowSet(len(nbrs))
		p := rng.Float64()
		for i := range nbrs {
			if rng.Float64() < 0.1 {
				continue // a dead neighbor's list is dropped
			}
			for id := 0; id < universe+4; id++ {
				if rng.Float64() < p {
					uncov[i] = append(uncov[i], id)
				}
			}
		}
		for _, i := range order.Perm(len(nbrs)) {
			if uncov[i] != nil {
				rows.announce(i, nbrs, i+1, uncov[i])
			}
		}
		for batch := 1 + rng.Intn(4); batch > 0; batch-- {
			q := 0.4 * rng.Float64()
			for i := range nbrs {
				var del []int
				for _, id := range uncov[i] {
					if rng.Float64() < q {
						del = append(del, id)
					}
				}
				if len(del) == 0 {
					continue
				}
				held := len(rows.above(i))
				uncov[i] = removeSorted(uncov[i], del)
				rows.rows[i].remove(rows.arena, nbrs, del)
				dropped := held - len(rows.above(i))
				if dropped > 0 {
					dropsHeld++
				}
				if dropped < len(del) {
					skipsUnheld++
				}
			}
		}
		for i, h := range rows.rows {
			if int(h.uncovLen) != len(uncov[i]) {
				t.Fatalf("instance %d: row %d keeps length %d, list has %d", inst, i, h.uncovLen, len(uncov[i]))
			}
		}
		cost := func(i int) float64 {
			if !star[i] {
				return -1
			}
			return weight[i]
		}
		got, c0 := newLocalView(nbrs, cost, rows.above, false)
		want := refLocalView(nbrs, star, weight, uncov)
		wantC0 := 0.0
		if len(want.cost) > 0 {
			wantC0 = want.cost[0]
		}
		if c0 != wantC0 {
			t.Fatalf("instance %d: first selectable cost %v, reference %v", inst, c0, wantC0)
		}
		if got == nil {
			if want.hPairs > 0 || slices.ContainsFunc(want.bonus, func(b float64) bool { return b > 0 }) {
				t.Fatalf("instance %d: no view built, but the reference has %d H_v pairs and bonuses %v", inst, want.hPairs, want.bonus)
			}
			continue
		}
		if !slices.Equal(got.nbrs, want.nbrs) || !slices.Equal(got.cost, want.cost) ||
			!slices.Equal(got.bonus, want.bonus) || !slices.Equal(got.free, want.free) ||
			got.hPairs != want.hPairs || !slices.Equal(got.adj, want.adj) || !slices.Equal(got.off, want.off) {
			t.Fatalf("instance %d: views differ\ngot:  %+v\nwant: %+v", inst, got, want)
		}
		gotSel, gotD := got.densestStar(nil)
		wantSel, wantD := want.densestStar(nil)
		if !slices.Equal(gotSel, wantSel) || math.Float64bits(gotD) != math.Float64bits(wantD) {
			t.Fatalf("instance %d: densest star %v %v, reference %v %v", inst, gotSel, gotD, wantSel, wantD)
		}
		if got.hPairs > 0 {
			withPairs++
		}
		if slices.ContainsFunc(got.bonus, func(b float64) bool { return b > 0 }) {
			withBonus++
		}
		if gotD > 0 {
			withStar++
		}
	}
	// The generator must exercise every branch of the construction, and
	// removal batches must both drop held positions and skip ids a row
	// does not hold.
	if withPairs < instances/2 || withBonus < instances/4 || withStar < instances/2 {
		t.Fatalf("degenerate instances: %d with H_v pairs, %d with bonuses, %d with a dense star of %d",
			withPairs, withBonus, withStar, instances)
	}
	if dropsHeld < instances || skipsUnheld < instances {
		t.Fatalf("degenerate removals: %d batches dropped held positions, %d skipped unheld ids", dropsHeld, skipsUnheld)
	}
}

// stubCtx is a roundCtx for driving one node's phases directly. It
// records the node's sends.
type stubCtx struct {
	id, n int
	nbrs  []int
	rng   *rand.Rand // the rank source of a candidacy, when one is driven
	sent  []sentRec
}

// sentRec is one send a stubCtx recorded, its tail copied.
type sentRec struct {
	to   int
	tag  uint8
	ints []int
}

func (c *stubCtx) ID() int              { return c.id }
func (c *stubCtx) N() int               { return c.n }
func (c *stubCtx) Neighbors() []int     { return c.nbrs }
func (c *stubCtx) Int63n(n int64) int64 { return c.rng.Int63n(n) }
func (c *stubCtx) SendRec(to int, r dist.Rec, _ int) {
	c.sent = append(c.sent, sentRec{to: to, tag: r.Tag, ints: slices.Clone(r.Ints)})
}

// TestDeathDirtiesViewIffListAnnounced drives a center's uncovered-list
// receipts and then each neighbor's termination: the death must mark
// the view dirty exactly when the neighbor's announced list is
// non-empty — including a list that names no neighbor above the sender,
// whose H_v row is empty although its length is not — because parking,
// ActiveSteps/ParkedSteps and the transcript's park events follow the
// dirty flag.
func TestDeathDirtiesViewIffListAnnounced(t *testing.T) {
	// Center 0 with neighbors 1..5; vertices 6 and 7 are not its
	// neighbors.
	g := graph.New(8)
	for u := 1; u <= 5; u++ {
		g.AddEdge(0, u)
	}
	for _, e := range [][2]int{{1, 2}, {1, 6}, {2, 3}, {3, 7}, {4, 5}, {5, 6}, {5, 7}} {
		g.AddEdge(e[0], e[1])
	}
	cases := []struct {
		name    string
		from    int
		full    []int
		removes [][]int
		above   int // positions the row keeps
		dirty   bool
	}{
		{name: "nothing uncovered", from: 1, full: nil, dirty: false},
		{name: "neighbor above", from: 1, full: []int{0, 2}, above: 1, dirty: true},
		{name: "only ids below, center and non-neighbors", from: 5, full: []int{0, 4, 6, 7}, above: 0, dirty: true},
		{name: "thinned but not empty", from: 2, full: []int{0, 1, 3}, removes: [][]int{{0, 3}}, above: 0, dirty: true},
		{name: "emptied by removals", from: 3, full: []int{0, 2, 7}, removes: [][]int{{2}, {0, 7}}, above: 0, dirty: false},
		{name: "removal of unheld ids keeps above", from: 1, full: []int{0, 2, 3, 6}, removes: [][]int{{0, 6}}, above: 2, dirty: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			nd := newUndirectedNode(&stubCtx{id: 0, n: g.N(), nbrs: g.Neighbors(0)}, newURun(g, twoSpannerVariant(false), Options{}))
			i := posOf(nd.nbrs, c.from)
			nd.process(phUncov, []dist.InRec{inRec(c.from, uncovMsg{nbrs: c.full, full: true, n: g.N()}.rec(tagUncov))})
			for _, del := range c.removes {
				nd.process(phUncov, []dist.InRec{inRec(c.from, uncovMsg{nbrs: del, n: g.N()}.rec(tagUncov))})
			}
			if got := len(nd.above(i)); got != c.above {
				t.Fatalf("row keeps %d positions, want %d", got, c.above)
			}
			nd.viewDirty = false
			nd.process(phStar, []dist.InRec{inRec(c.from, termMsg{n: g.N()}.rec())})
			if nd.viewDirty != c.dirty {
				t.Fatalf("death of %d: viewDirty = %v, want %v", c.from, nd.viewDirty, c.dirty)
			}
			if nb := nd.nb[i]; nb.has(nbrAlive) || nb.uncovRow != (uncovRow{}) {
				t.Fatalf("death of %d left alive=%v, row %+v", c.from, nb.has(nbrAlive), nb.uncovRow)
			}
		})
	}
}
