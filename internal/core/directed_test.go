package core

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"distspanner/internal/dist"
	"distspanner/internal/gen"
	"distspanner/internal/graph"
	"distspanner/internal/span"
)

func mustDirected(t *testing.T, d *graph.Digraph, seed int64) *Result {
	t.Helper()
	res, err := DirectedTwoSpanner(d, Options{Seed: seed})
	if err != nil {
		t.Fatalf("DirectedTwoSpanner failed: %v", err)
	}
	return res
}

func TestDirectedTwoSpannerValid(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		d := gen.RandomDigraph(20, 0.25, seed)
		res := mustDirected(t, d, seed)
		if !span.IsDirectedKSpanner(d, res.Spanner, 2) {
			t.Fatalf("seed %d: output is not a directed 2-spanner", seed)
		}
	}
}

func TestDirectedTwoSpannerDenseTournament(t *testing.T) {
	// Orient a clique: every edge one way plus some two-way.
	g := gen.Clique(12)
	d := gen.OrientRandomly(g, 0.5, 3)
	res := mustDirected(t, d, 1)
	if !span.IsDirectedKSpanner(d, res.Spanner, 2) {
		t.Fatal("invalid directed 2-spanner on oriented clique")
	}
}

func TestDirectedBidirectedCliqueSparsifies(t *testing.T) {
	// Fully bidirected clique: directed 2-spanners can use the in+out star
	// of a single hub, so the output must be far below m.
	d := gen.RandomDigraph(12, 1.1, 1) // p > 1: all ordered pairs
	if d.M() != 12*11 {
		t.Fatalf("expected complete digraph, m = %d", d.M())
	}
	res := mustDirected(t, d, 2)
	if !span.IsDirectedKSpanner(d, res.Spanner, 2) {
		t.Fatal("invalid spanner")
	}
	if res.Spanner.Len() >= d.M()*3/4 {
		t.Fatalf("no sparsification: %d of %d edges kept", res.Spanner.Len(), d.M())
	}
}

func TestDirectedRatioShape(t *testing.T) {
	// Ratio against the trivial bound: with n vertices any directed
	// 2-spanner needs enough edges to preserve reachability of each edge's
	// endpoints; use OPT >= n-1 on strongly-connected-ish instances and
	// allow the analysis constant.
	d := gen.RandomDigraph(18, 0.3, 7)
	res := mustDirected(t, d, 4)
	bound := 80 * (math.Log2(float64(d.M())/float64(d.N())+2) + 2) * 2
	ratio := res.Cost / float64(d.N()-1)
	if ratio > bound {
		t.Fatalf("directed ratio %.2f exceeds generous bound %.2f", ratio, bound)
	}
}

func TestDirectedDeterministic(t *testing.T) {
	d := gen.RandomDigraph(15, 0.3, 5)
	a := mustDirected(t, d, 9)
	b := mustDirected(t, d, 9)
	if !a.Spanner.Equal(b.Spanner) {
		t.Fatal("same seed produced different directed spanners")
	}
}

func TestDirectedAsymmetricPath(t *testing.T) {
	// One-way path: nothing is 2-spannable, everything must be kept.
	d := graph.NewDigraph(6)
	for i := 0; i+1 < 6; i++ {
		d.AddEdge(i, i+1)
	}
	res := mustDirected(t, d, 1)
	if res.Spanner.Len() != d.M() {
		t.Fatalf("one-way path: %d edges kept, want all %d", res.Spanner.Len(), d.M())
	}
}

func TestDirectedAntiparallelPair(t *testing.T) {
	// Two vertices with edges both ways: both must be kept (no 2-path
	// alternatives).
	d := graph.NewDigraph(2)
	d.AddEdge(0, 1)
	d.AddEdge(1, 0)
	res := mustDirected(t, d, 1)
	if res.Spanner.Len() != 2 {
		t.Fatalf("antiparallel pair: %d edges, want 2", res.Spanner.Len())
	}
}

func TestDirectedTwoSpanUseCase(t *testing.T) {
	// Hub with in-edges from a's and out-edges to b's, plus direct a->b
	// edges: the hub star should 2-span the direct edges.
	d := graph.NewDigraph(7) // hub=0, tails 1,2,3, heads 4,5,6
	for _, a := range []int{1, 2, 3} {
		d.AddEdge(a, 0)
	}
	for _, b := range []int{4, 5, 6} {
		d.AddEdge(0, b)
	}
	var direct []int
	for _, a := range []int{1, 2, 3} {
		for _, b := range []int{4, 5, 6} {
			direct = append(direct, d.AddEdge(a, b))
		}
	}
	res := mustDirected(t, d, 3)
	if !span.IsDirectedKSpanner(d, res.Spanner, 2) {
		t.Fatal("invalid spanner")
	}
	kept := 0
	for _, e := range direct {
		if res.Spanner.Has(e) {
			kept++
		}
	}
	if kept == len(direct) {
		t.Fatal("hub star not exploited: all direct edges kept")
	}
	if res.Fallbacks != 0 {
		t.Fatalf("Claim 4.4 fallback taken %d times", res.Fallbacks)
	}
}

// dirViewOf builds a directed view through newLocalView: cnt maps each
// neighbor id to its number of arcs to the center (its star cost), and h
// lists the H_v arcs (u, w) between neighbors. Each arc is one entry in
// the row of its lower endpoint, as undirectedNode.directedView lays them
// out. It is nil when h is empty: such a view offers no profit.
func dirViewOf(cnt map[int]int, h [][2]int) *localView {
	ids := slices.Sorted(maps.Keys(cnt))
	up := make([][]int32, len(ids))
	for _, e := range h {
		a, b := posOf(ids, e[0]), posOf(ids, e[1])
		up[min(a, b)] = append(up[min(a, b)], int32(max(a, b)))
	}
	for _, row := range up {
		slices.Sort(row)
	}
	v, _ := newLocalView(ids, func(i int) float64 { return float64(cnt[ids[i]]) },
		func(i int) []int32 { return up[i] }, true)
	return v
}

func TestDirViewDensity(t *testing.T) {
	// Neighbors 1 (bidirected, cost 2) and 2 (one-way, cost 1); one
	// directed H edge (1,2) and its reverse (2,1).
	dv := dirViewOf(map[int]int{1: 2, 2: 1}, [][2]int{{1, 2}, {2, 1}})
	full := []bool{true, true}
	s, c := dv.starValue(full)
	if s != 2 || c != 3 {
		t.Fatalf("starValue = (%f, %f), want (2, 3)", s, c)
	}
	if d := dv.density(full); math.Abs(d-2.0/3.0) > 1e-9 {
		t.Fatalf("density = %f, want 2/3", d)
	}
}

func TestDirViewApproxWithinFactor2(t *testing.T) {
	// Claim 4.10/4.11: the undirected reduction is a 2-approximation of
	// the densest directed star. Check on a brute-forced instance.
	nbrs := map[int]int{1: 1, 2: 2, 3: 1, 4: 2}
	h := [][2]int{{1, 2}, {2, 1}, {2, 3}, {3, 4}, {4, 1}}
	dv := dirViewOf(nbrs, h)
	_, approx := dv.densestStar(nil)
	// Brute force the true densest directed density over neighbor subsets.
	best := 0.0
	ids := []int{1, 2, 3, 4}
	for mask := 1; mask < 16; mask++ {
		sel := make([]bool, len(dv.nbrs))
		for b, id := range ids {
			if mask&(1<<uint(b)) != 0 {
				sel[dv.position(id)] = true
			}
		}
		if d := dv.density(sel); d > best {
			best = d
		}
	}
	if approx < best/2-1e-9 || approx > best+1e-9 {
		t.Fatalf("approx %f outside [best/2, best] = [%f, %f]", approx, best/2, best)
	}
}

func TestDirViewChooseStarShrinkPath(t *testing.T) {
	// Previous star {1,2} whose density under the new H is exactly rho/8:
	// the continuation keeps it.
	nbrs := map[int]int{1: 1, 2: 1, 3: 2}
	// H now only supports the pair {2,3} (both arcs) and the arc (1,2).
	dv := dirViewOf(nbrs, [][2]int{{2, 3}, {3, 2}, {1, 2}})
	prev := dv.maskFromIDs([]int{1, 2})
	// prev's density 1/2 meets the threshold rho/8 = 1/2 at rho = 4.
	sel, fb := dv.chooseStar(4, prev)
	if fb {
		t.Fatal("unexpected fallback")
	}
	if !slices.Equal(sel, prev) {
		t.Fatalf("continuation changed a star still dense enough: %v, prev %v", sel, prev)
	}
	// With a much higher rho no star within prev is dense enough and the
	// fallback (fresh choice) fires — the directed analogue's guard path.
	_, fb2 := dv.chooseStar(64, prev)
	if !fb2 {
		t.Fatal("expected fallback when prev contains no dense-enough star")
	}

	// Previous star {1,2,3} over H = both arcs of {2,3}: its density
	// 2/5 is below rho/8 = 1/2 at rho = 4, but the sub-star {2,3} has
	// 2/3, so the continuation shrinks to it without leaving prev. (Under
	// the undirected rule's rho/4 = 1 it would fall back.)
	dv = dirViewOf(map[int]int{1: 2, 2: 1, 3: 2, 4: 1}, [][2]int{{2, 3}, {3, 2}, {4, 2}})
	prev = dv.maskFromIDs([]int{1, 2, 3})
	sel, fb = dv.chooseStar(4, prev)
	if fb {
		t.Fatal("unexpected fallback on shrink")
	}
	if want := dv.maskFromIDs([]int{2, 3}); !slices.Equal(sel, want) {
		t.Fatalf("shrunken star %v, want {2,3} = %v", sel, want)
	}
}

func TestDirViewMaskFromIDs(t *testing.T) {
	dv := dirViewOf(map[int]int{5: 1, 9: 2}, [][2]int{{9, 5}})
	mask := dv.maskFromIDs([]int{9})
	if mask[dv.position(5)] || !mask[dv.position(9)] {
		t.Fatal("maskFromIDs wrong")
	}
}

// The ablation knobs reach the directed run: it is the shared machine,
// so the acceptance denominator and the density rounding change its
// decisions as they change the undirected run's.
func TestDirectedHonoursAblationKnobs(t *testing.T) {
	d := gen.OrientRandomly(gen.ConnectedGNP(64, 0.3, 3), 0.5, 3)
	def := mustDirectedOpts(t, d, Options{Seed: 1})
	for _, o := range []Options{
		{Seed: 1, VoteDenominator: 1},
		{Seed: 1, VoteDenominator: 64},
		{Seed: 1, NoRounding: true},
	} {
		res := mustDirectedOpts(t, d, o)
		if !span.IsDirectedKSpanner(d, res.Spanner, 2) {
			t.Fatalf("%+v: output is not a directed 2-spanner", o)
		}
		if res.Spanner.Equal(def.Spanner) && res.Stats == def.Stats {
			t.Errorf("VoteDenominator %d NoRounding %v: same run as the defaults (%d edges, %d rounds)",
				o.VoteDenominator, o.NoRounding, res.Spanner.Len(), res.Stats.Rounds)
		}
	}
	if res := mustDirectedOpts(t, d, Options{Seed: 1, FreshStars: true}); !span.IsDirectedKSpanner(d, res.Spanner, 2) {
		t.Fatal("FreshStars: output is not a directed 2-spanner")
	}
}

func mustDirectedOpts(t *testing.T, d *graph.Digraph, opts Options) *Result {
	t.Helper()
	res, err := DirectedTwoSpanner(d, opts)
	if err != nil {
		t.Fatalf("DirectedTwoSpanner(%+v): %v", opts, err)
	}
	return res
}

// TestDirectedFreshStarsSkipsContinuation drives one directed node
// through two iterations as a candidate at the same rounded density. H_v
// is first a two-way K4 among neighbors 1..4, then one among 31..34,
// which the previous star (1..4 and the first zero-gain neighbors) does
// not reach: the Section 4.1 continuation finds nothing dense enough in
// it and takes the Claim 4.4 fallback, which FreshStars skips. In a real
// run H_v only shrinks, so the late announcement of 31..34 is the test's;
// it is what makes the knob observable.
func TestDirectedFreshStarsSkipsContinuation(t *testing.T) {
	const deg = 34
	d := graph.NewDigraph(deg + 1)
	for u := 1; u <= deg; u++ {
		d.AddEdge(0, u)
		d.AddEdge(u, 0)
	}
	k4 := func(lo int) []dist.InRec {
		var recs []dist.InRec
		for u := lo; u < lo+4; u++ {
			var heads []int
			for w := lo; w < lo+4; w++ {
				if w != u {
					d.AddEdge(u, w)
					heads = append(heads, w)
				}
			}
			heads = append([]int{0}, heads...)
			recs = append(recs, inRec(u, uncovMsg{nbrs: heads, full: true, n: d.N()}.rec(tagDirUncov)))
		}
		return recs
	}
	first := k4(1)
	var second []dist.InRec
	for _, r := range first { // 1..4 announce their lists covered
		second = append(second, inRec(r.From, uncovMsg{nbrs: r.Ints, n: d.N()}.rec(tagDirUncov)))
	}
	second = append(second, k4(deg-3)...)
	for _, fresh := range []bool{false, true} {
		run := newDirectedRun(d, Options{FreshStars: fresh})
		nd := newUndirectedNode(&stubCtx{id: 0, n: d.N(), nbrs: run.g.Neighbors(0), rng: rand.New(rand.NewSource(1))}, run)
		iteration := func(uncov []dist.InRec) {
			nd.Begin()
			for ph := phSpan; ph <= phAccept; ph++ {
				if nd.emit(ph) {
					t.Fatalf("fresh=%v: the center terminated", fresh)
				}
				var inbox []dist.InRec
				if ph == phUncov {
					inbox = uncov
				}
				nd.process(ph, inbox)
			}
			if !nd.isCand || nd.rho() != 2 {
				t.Fatalf("fresh=%v: candidate %v at rounded density %v, want a candidate at 2", fresh, nd.isCand, nd.rho())
			}
		}
		iteration(first)
		if want := 24; len(nd.prevStar) != want {
			t.Fatalf("fresh=%v: first star has %d members, want %d", fresh, len(nd.prevStar), want)
		}
		iteration(second)
		if !slices.Contains(nd.prevStar, deg) {
			t.Fatalf("fresh=%v: second star %v misses the new K4", fresh, nd.prevStar)
		}
		want := int64(1)
		if fresh {
			want = 0
		}
		if got := run.fallbacks.Load(); got != want {
			t.Errorf("fresh=%v: %d fallbacks, want %d", fresh, got, want)
		}
	}
}

// refDirView is the map-based directed view that the directed localView
// replaced, kept as its reference: the undirected reduction with unit
// costs over distinct pairs (built by refLocalView, so it exists for a
// profitless neighborhood too), each pair's arc count in a map, and its
// own copies of the Section 4.1 rule at threshold ρ/8.
type refDirView struct {
	uv     *localView
	dirCnt []float64
	mult   map[[2]int]int
}

// newRefDirView builds the reference from each neighbor id's arc count
// and the H_v arcs (u, w).
func newRefDirView(nbrs map[int]int, hDir [][2]int) *refDirView {
	ids := slices.Sorted(maps.Keys(nbrs))
	multByIDs := make(map[[2]int]int)
	for _, e := range hDir {
		multByIDs[[2]int{min(e[0], e[1]), max(e[0], e[1])}]++
	}
	pairs := slices.SortedFunc(maps.Keys(multByIDs), func(a, b [2]int) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	})
	upper := make([][]int, len(ids))
	star, unit := make([]bool, len(ids)), make([]float64, len(ids))
	for i := range ids {
		star[i], unit[i] = true, 1
	}
	for _, p := range pairs {
		i := posOf(ids, p[0])
		upper[i] = append(upper[i], p[1])
	}
	uv := refLocalView(ids, star, unit, upper)
	dv := &refDirView{uv: uv, dirCnt: make([]float64, len(ids)), mult: make(map[[2]int]int)}
	for p, id := range ids {
		dv.dirCnt[p] = float64(nbrs[id])
	}
	for _, p := range pairs {
		dv.mult[[2]int{posOf(ids, p[0]), posOf(ids, p[1])}] = multByIDs[p]
	}
	return dv
}

func (dv *refDirView) dirValue(sel []bool) (spanned, size float64) {
	for p, in := range sel {
		if !in {
			continue
		}
		size += dv.dirCnt[p]
		for _, q := range dv.uv.row(p) {
			if int(q) > p && sel[q] {
				spanned += float64(dv.mult[[2]int{p, int(q)}])
			}
		}
	}
	return spanned, size
}

func (dv *refDirView) dirDensity(sel []bool) float64 {
	s, c := dv.dirValue(sel)
	if c <= 0 {
		return 0
	}
	return s / c
}

func (dv *refDirView) approxDensest(allowed []bool) ([]bool, float64) {
	sel, _ := dv.uv.densestStar(allowed)
	if sel == nil {
		return nil, 0
	}
	return sel, dv.dirDensity(sel)
}

func (dv *refDirView) chooseStar(rho float64, prev []bool) ([]bool, bool) {
	threshold := rho / 8
	if prev != nil {
		if dv.dirDensity(prev) >= threshold {
			return copyMask(prev), false
		}
		base, d := dv.approxDensest(prev)
		if base != nil && d >= threshold {
			dv.extend(base, threshold, prev)
			return base, false
		}
		return dv.fresh(threshold), true
	}
	return dv.fresh(threshold), false
}

func (dv *refDirView) fresh(threshold float64) []bool {
	sel, _ := dv.approxDensest(nil)
	if sel == nil {
		return make([]bool, len(dv.uv.nbrs))
	}
	dv.extend(sel, threshold, nil)
	return sel
}

func (dv *refDirView) extend(sel []bool, threshold float64, within []bool) {
	spanned, size := dv.dirValue(sel)
	for {
		progressed := false
		for p := range dv.uv.nbrs {
			if sel[p] || (within != nil && !within[p]) {
				continue
			}
			gain := 0.0
			for _, q := range dv.uv.row(p) {
				if sel[q] {
					gain += float64(dv.mult[[2]int{min(p, int(q)), max(p, int(q))}])
				}
			}
			if (spanned+gain)/(size+dv.dirCnt[p]) >= threshold {
				sel[p] = true
				spanned += gain
				size += dv.dirCnt[p]
				progressed = true
			}
		}
		if progressed {
			continue
		}
		allowed := make([]bool, len(dv.uv.nbrs))
		any := false
		for p := range dv.uv.nbrs {
			if !sel[p] && (within == nil || within[p]) {
				allowed[p] = true
				any = true
			}
		}
		if !any {
			return
		}
		disj, d := dv.approxDensest(allowed)
		if disj == nil || d < threshold {
			return
		}
		for p, in := range disj {
			if in {
				sel[p] = true
			}
		}
		spanned, size = dv.dirValue(sel)
	}
}

// TestDirectedViewMatchesMapReference announces seeded random uncovered
// out-lists — heads that are neighbors above and below the sender,
// non-neighbors and the center — to a directed node whose arcs to its
// neighbors are random (out, in or both), thins them by removals, and
// builds the node's view. It must agree with the map-based reference
// built from the arcs (u, w) with u -> center -> w: the same directed
// value for random stars, the same densest star to the bit, and the same
// Section 4.1 choice, fallback flag included, fresh and continuing from
// random previous stars at several rounded densities. With no H_v arc the
// node must build no view; either way it must return the first
// neighbor's arc count as the first selectable cost.
func TestDirectedViewMatchesMapReference(t *testing.T) {
	const instances = 600
	rng := rand.New(rand.NewSource(23))
	var withPairs, twoWay, shrinks, fallbacks int
	for inst := 0; inst < instances; inst++ {
		universe := 6 + rng.Intn(40)
		d := graph.NewDigraph(universe)
		density, twoWayP := 0.2+0.7*rng.Float64(), rng.Float64()
		for u := 1; u < universe; u++ {
			if rng.Float64() >= density {
				continue
			}
			switch {
			case rng.Float64() < twoWayP:
				d.AddEdge(0, u)
				d.AddEdge(u, 0)
			case rng.Intn(2) == 0:
				d.AddEdge(0, u)
			default:
				d.AddEdge(u, 0)
			}
		}
		run := newDirectedRun(d, Options{})
		nbrs := run.g.Neighbors(0)
		nd := newUndirectedNode(&stubCtx{id: 0, n: universe, nbrs: nbrs}, run)
		lists := make([][]int, len(nbrs))
		var full, dels []dist.InRec
		p := rng.Float64()
		for i, u := range nbrs {
			for w := 0; w < universe; w++ {
				if w != u && rng.Float64() < p {
					lists[i] = append(lists[i], w)
				}
			}
			full = append(full, inRec(u, uncovMsg{nbrs: lists[i], full: true, n: universe}.rec(tagDirUncov)))
			var del []int
			for _, w := range lists[i] {
				if rng.Float64() < 0.2 {
					del = append(del, w)
				}
			}
			if len(del) > 0 {
				lists[i] = removeSorted(lists[i], del)
				dels = append(dels, inRec(u, uncovMsg{nbrs: del, n: universe}.rec(tagDirUncov)))
			}
		}
		nd.process(phUncov, full)
		nd.process(phUncov, dels)
		got, c0 := nd.directedView()

		cnt := make(map[int]int, len(nbrs))
		var hDir [][2]int
		for i, u := range nbrs {
			if d.HasEdge(0, u) {
				cnt[u]++
			}
			if d.HasEdge(u, 0) {
				cnt[u]++
			}
			if !d.HasEdge(u, 0) {
				continue
			}
			for _, w := range lists[i] {
				if w != 0 && slices.Contains(nbrs, w) && d.HasEdge(0, w) {
					hDir = append(hDir, [2]int{u, w})
				}
			}
		}
		want := newRefDirView(cnt, hDir)
		if len(hDir) > 0 {
			withPairs++
		}
		for _, m := range want.mult {
			if m == 2 {
				twoWay++
				break
			}
		}
		wantC0 := 0.0
		if len(nbrs) > 0 {
			wantC0 = want.dirCnt[0]
		}
		if c0 != wantC0 {
			t.Fatalf("instance %d: first selectable cost %v, reference %v", inst, c0, wantC0)
		}
		if got == nil {
			if len(hDir) > 0 {
				t.Fatalf("instance %d: no view built for %d H_v arcs", inst, len(hDir))
			}
			continue
		}

		k := len(nbrs)
		for trial := 0; trial < 4; trial++ {
			sel := make([]bool, k)
			for q := range sel {
				sel[q] = rng.Intn(2) == 0
			}
			gs, gc := got.starValue(sel)
			ws, wc := want.dirValue(sel)
			if gs != ws || gc != wc {
				t.Fatalf("instance %d: star value (%v, %v), reference (%v, %v)", inst, gs, gc, ws, wc)
			}
		}
		gotSel, gotD := got.densestStar(nil)
		wantSel, wantD := want.approxDensest(nil)
		if !slices.Equal(gotSel, wantSel) || math.Float64bits(gotD) != math.Float64bits(wantD) {
			t.Fatalf("instance %d: densest star %v %v, reference %v %v", inst, gotSel, gotD, wantSel, wantD)
		}
		for _, rho := range []float64{0.5, 1, 2, 4, 8} {
			var prev []bool
			if rng.Intn(3) > 0 && k > 0 {
				prev = make([]bool, k)
				for q := range prev {
					prev[q] = rng.Intn(2) == 0
				}
			}
			gSel, gFb := got.chooseStar(rho, prev)
			wSel, wFb := want.chooseStar(rho, prev)
			if !slices.Equal(gSel, wSel) || gFb != wFb {
				t.Fatalf("instance %d rho %v prev %v: chose %v (fallback %v), reference %v (%v)", inst, rho, prev, gSel, gFb, wSel, wFb)
			}
			if prev != nil && !gFb && !slices.Equal(gSel, prev) {
				shrinks++
			}
			if gFb {
				fallbacks++
			}
		}
	}
	// The instances must reach every branch the directed view adds: H_v
	// entries, two-way pairs, and continuations that shrink or fall back.
	if withPairs < instances/2 || twoWay < instances/4 || shrinks < instances/10 || fallbacks < instances/4 {
		t.Fatalf("degenerate instances: %d with H_v arcs, %d with two-way pairs, %d shrinks, %d fallbacks of %d",
			withPairs, twoWay, shrinks, fallbacks, instances)
	}
}
