package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"distspanner/internal/dist"
	"distspanner/internal/graph"
)

// refValue is the value of a center's unrestricted densest star as the
// rebuild read it before profitless views were skipped: the full
// map-based reference view of the announced lists, always built, the
// oracle's star on it and that star's (spanned, cost); and whether the
// view offers no profit.
type refValue func(lists [][]int) (s, c float64, profitless bool)

// randomCenter builds vertex 0 of a seeded random neighborhood of the
// flavor — unweighted, weighted (about a quarter of the star edges free,
// some lighter than 0.5), client-server (about 40% of the star edges
// unusable) or directed (one-way arcs either way and two-way pairs) — and
// the reference value of its view.
func randomCenter(rng *rand.Rand, flavor string) (*undirectedNode, refValue) {
	universe := 2 + rng.Intn(30)
	density := 0.2 + 0.7*rng.Float64()
	if flavor == "directed" {
		d := graph.NewDigraph(universe)
		for u := 1; u < universe; u++ {
			if rng.Float64() >= density {
				continue
			}
			switch rng.Intn(3) {
			case 0:
				d.AddEdge(0, u)
				d.AddEdge(u, 0)
			case 1:
				d.AddEdge(0, u)
			default:
				d.AddEdge(u, 0)
			}
		}
		run := newDirectedRun(d, Options{})
		nbrs := run.g.Neighbors(0)
		nd := newUndirectedNode(&stubCtx{id: 0, n: universe, nbrs: nbrs}, run)
		return nd, func(lists [][]int) (float64, float64, bool) {
			cnt := make(map[int]int, len(nbrs))
			var hDir [][2]int
			for i, u := range nbrs {
				if d.HasEdge(0, u) {
					cnt[u]++
				}
				if !d.HasEdge(u, 0) {
					continue
				}
				cnt[u]++
				for _, w := range lists[i] {
					if w != 0 && slices.Contains(nbrs, w) && d.HasEdge(0, w) {
						hDir = append(hDir, [2]int{u, w})
					}
				}
			}
			dv := newRefDirView(cnt, hDir)
			sel, _ := dv.approxDensest(nil)
			s, c := dv.dirValue(sel)
			return s, c, len(hDir) == 0
		}
	}
	g := graph.New(universe)
	for u := 1; u < universe; u++ {
		if rng.Float64() < density {
			g.AddEdge(0, u)
		}
	}
	v := twoSpannerVariant(false)
	switch flavor {
	case "weighted":
		for i := 0; i < g.M(); i++ {
			switch r := rng.Float64(); {
			case r < 0.25:
				g.SetWeight(i, 0)
			case r < 0.4:
				g.SetWeight(i, 0.1+0.4*rng.Float64())
			default:
				g.SetWeight(i, 0.5+4*rng.Float64())
			}
		}
		v = twoSpannerVariant(true)
	case "client-server":
		clients, servers := graph.NewEdgeSet(g.M()), graph.NewEdgeSet(g.M())
		for i := 0; i < g.M(); i++ {
			if rng.Float64() < 0.7 {
				clients.Add(i)
			}
			if rng.Float64() < 0.6 {
				servers.Add(i)
			}
		}
		var err error
		if v, err = clientServerVariant(g, clients, servers); err != nil {
			panic(err)
		}
	}
	nbrs := g.Neighbors(0)
	nd := newUndirectedNode(&stubCtx{id: 0, n: universe, nbrs: nbrs}, newURun(g, v, Options{}))
	star, weight := make([]bool, len(nbrs)), make([]float64, len(nbrs))
	for i := range nbrs {
		idx := int(nd.nb[i].edgeIdx)
		star[i], weight[i] = v.starEdge(idx), g.Weight(idx)
	}
	return nd, func(lists [][]int) (float64, float64, bool) {
		rv := refLocalView(nbrs, star, weight, lists)
		sel, _ := rv.densestStar(nil)
		s, c := rv.starValue(sel)
		return s, c, rv.hPairs == 0 && !slices.ContainsFunc(rv.bonus, func(b float64) bool { return b > 0 })
	}
}

// TestProfitlessRebuildMatchesOracle announces seeded random uncovered
// lists — sparse enough that many views offer no profit, some neighbors
// announcing nothing — to the center of random neighborhoods of every
// flavor, and rebuilds its view three times, thinning the lists between
// rebuilds. Each rebuild's (raw, num, den, ρ) must equal, bit for bit,
// the reference's: the raw density and rational of the oracle's star on
// the full view, and in a directed run footnote 7's running minimum and
// no rational. A rebuild must leave noView exactly when the reference
// offers no profit. Every flavor must produce both kinds of rebuild, a
// center with no selectable neighbor, and its own edge cases: a
// profitless weighted view whose first selectable cost rounds to den 0,
// and a directed view that turns profitless after a profitable rebuild.
func TestProfitlessRebuildMatchesOracle(t *testing.T) {
	for fi, flavor := range []string{"unweighted", "weighted", "client-server", "directed"} {
		t.Run(flavor, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(41 + fi)))
			var profitless, profitable, noSelectable, denZero, lostProfit int
			for inst := 0; inst < 300; inst++ {
				nd, ref := randomCenter(rng, flavor)
				n := nd.ctx.N()
				lists := make([][]int, len(nd.nbrs))
				p := 0.4 * rng.Float64() * rng.Float64()
				var full []dist.InRec
				for i, u := range nd.nbrs {
					if rng.Float64() < 0.3 {
						continue
					}
					for w := 0; w < n+3; w++ {
						if w != u && rng.Float64() < p {
							lists[i] = append(lists[i], w)
						}
					}
					full = append(full, inRec(u, uncovMsg{nbrs: lists[i], full: true, n: n}.rec(nd.run.uncovTag)))
				}
				nd.process(phUncov, full)
				first, lastRaw, wasProfitable := true, 0.0, false
				for rebuild := 0; rebuild < 3; rebuild++ {
					if rebuild > 0 {
						var dels []dist.InRec
						for i, u := range nd.nbrs {
							var del []int
							for _, w := range lists[i] {
								if rng.Float64() < 0.4 {
									del = append(del, w)
								}
							}
							if len(del) > 0 {
								lists[i] = removeSorted(lists[i], del)
								dels = append(dels, inRec(u, uncovMsg{nbrs: del, n: n}.rec(nd.run.uncovTag)))
							}
						}
						nd.process(phUncov, dels)
					}
					nd.rebuildView()

					s, c, none := ref(lists)
					raw, num, den := 0.0, 0, 1
					if c > 0 {
						raw = s / c
						num, den = int(s+0.5), int(c+0.5)
					}
					if nd.run.d != nil {
						if !first && lastRaw < raw {
							raw = lastRaw
						}
						num, den = 0, 0
					}
					first, lastRaw = false, raw
					rho := RoundUpPow2(raw)
					if math.Float64bits(nd.raw) != math.Float64bits(raw) || nd.num != num || nd.den != den ||
						math.Float64bits(nd.rho()) != math.Float64bits(rho) {
						t.Fatalf("instance %d rebuild %d: (raw, num, den, rho) = (%v, %d, %d, %v), reference (%v, %d, %d, %v)",
							inst, rebuild, nd.raw, nd.num, nd.den, nd.rho(), raw, num, den, rho)
					}
					if (nd.view == noView) != none {
						t.Fatalf("instance %d rebuild %d: view is noView: %v, reference profitless: %v", inst, rebuild, nd.view == noView, none)
					}
					if !none {
						profitable++
						wasProfitable = true
						continue
					}
					profitless++
					switch {
					case c == 0:
						noSelectable++
					case nd.run.d == nil && den == 0:
						denZero++
					}
					if wasProfitable && nd.run.d != nil {
						lostProfit++
					}
				}
			}
			if profitless < 100 || profitable < 100 || noSelectable == 0 {
				t.Fatalf("degenerate draw: %d profitless and %d profitable rebuilds, %d without a selectable neighbor",
					profitless, profitable, noSelectable)
			}
			if (flavor == "weighted" && denZero == 0) || (flavor == "directed" && lostProfit == 0) {
				t.Fatalf("degenerate draw: %d profitless weighted rebuilds with den 0, %d directed ones after a profitable rebuild",
					denZero, lostProfit)
			}
		})
	}
}

// TestProfitlessRebuildAllocatesNothing rebuilds, over and over, the
// views of two centers whose announced lists are not empty but whose H_v
// offers no profit: an undirected center whose neighbors name only the
// center and non-neighbors, and a directed one whose lists name only arcs
// that do not pass through it. A rebuild must allocate nothing. Skipped
// under the race detector, which randomizes sync.Pool reuse.
func TestProfitlessRebuildAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomizes sync.Pool reuse")
	}
	g := graph.New(8)
	for u := 1; u <= 5; u++ {
		g.AddEdge(0, u)
	}
	und := newUndirectedNode(&stubCtx{id: 0, n: 8, nbrs: g.Neighbors(0)}, newURun(g, twoSpannerVariant(false), Options{}))
	und.process(phUncov, []dist.InRec{
		inRec(1, uncovMsg{nbrs: []int{0, 6}, full: true, n: 8}.rec(tagUncov)),
		inRec(3, uncovMsg{nbrs: []int{0, 7}, full: true, n: 8}.rec(tagUncov)),
		inRec(5, uncovMsg{nbrs: []int{0}, full: true, n: 8}.rec(tagUncov)),
	})
	// Neighbors 1 and 2 send to the center, which sends to 3 only: no
	// listed arc u -> w has u -> 0 and 0 -> w.
	d := graph.NewDigraph(4)
	d.AddEdge(1, 0)
	d.AddEdge(2, 0)
	d.AddEdge(0, 3)
	dir := newUndirectedNode(&stubCtx{id: 0, n: 4, nbrs: []int{1, 2, 3}}, newDirectedRun(d, Options{}))
	dir.process(phUncov, []dist.InRec{
		inRec(1, uncovMsg{nbrs: []int{2}, full: true, n: 4}.rec(tagDirUncov)),
		inRec(3, uncovMsg{nbrs: []int{1}, full: true, n: 4}.rec(tagDirUncov)),
	})
	for name, nd := range map[string]*undirectedNode{"undirected": und, "directed": dir} {
		nd.rebuildView()
		if nd.view != noView {
			t.Fatalf("%s: a profitless H_v built a view", name)
		}
		if got := testing.AllocsPerRun(100, func() { nd.rebuildView() }); got != 0 {
			t.Errorf("%s: a profitless rebuild allocates %.0f objects, want 0", name, got)
		}
	}
}

// TestSolveStarAllocatesOnlyItsAnswer checks that a warm oracle call
// builds its sub-instance in pooled scratch: solveStar allocates the mask
// it returns and the oracle's copy of its answer, nothing else, for the
// whole view and for a sub-instance, undirected and directed. Skipped
// under the race detector, which randomizes sync.Pool reuse.
func TestSolveStarAllocatesOnlyItsAnswer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomizes sync.Pool reuse")
	}
	views := map[string]*localView{
		"undirected": viewOf(map[int]float64{1: 1, 2: 1, 3: 1, 4: 1, 5: 1}, []int{9}, [][2]int{{1, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 9}}),
		"directed":   dirViewOf(map[int]int{1: 2, 2: 1, 3: 2, 4: 1}, [][2]int{{2, 3}, {3, 2}, {4, 2}, {1, 3}}),
	}
	for name, v := range views {
		sub := make([]bool, len(v.nbrs))
		for p := range sub {
			sub[p] = p != 1
		}
		for _, allowed := range [][]bool{nil, sub} {
			if got := testing.AllocsPerRun(50, func() { v.solveStar(allowed) }); got != 2 {
				t.Errorf("%s, allowed %v: a warm solveStar allocates %.0f objects, want 2", name, allowed, got)
			}
		}
	}
}

// TestSolveStarScratchReuse solves random views of very different sizes,
// large and small in turn, through one held scratch, for the whole view
// and random sub-instances. Each answer must equal, bit for bit, the one
// a fresh scratch gives: nothing a larger instance leaves in the scratch
// reaches a smaller one.
func TestSolveStarScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sc := new(viewScratch)
	for _, k := range []int{60, 2, 40, 3, 25, 2, 12} {
		for _, directed := range []bool{false, true} {
			v := randomProfitView(rng, k, directed)
			for trial := 0; trial < 4; trial++ {
				var allowed []bool
				if trial > 0 {
					allowed = make([]bool, len(v.nbrs))
					for p := range allowed {
						allowed[p] = rng.Intn(3) > 0
					}
				}
				got, gotD := sc.solve(v, allowed)
				want, wantD := new(viewScratch).solve(v, allowed)
				if !slices.Equal(got, want) || math.Float64bits(gotD) != math.Float64bits(wantD) {
					t.Fatalf("k %d directed %v allowed %v: reused scratch gives %v %v, fresh %v %v",
						k, directed, allowed, got, gotD, want, wantD)
				}
			}
		}
	}
}

// randomProfitView draws a view over k selectable neighbors that offers
// profit: H_v edges with probability 0.3 each, and for an undirected view
// random weights and two free neighbors.
func randomProfitView(rng *rand.Rand, k int, directed bool) *localView {
	for {
		var h [][2]int
		ids := k
		if !directed {
			ids += 2
		}
		for a := 0; a < ids; a++ {
			for b := 0; b < ids; b++ {
				if a != b && (directed || a < b) && rng.Float64() < 0.3 {
					h = append(h, [2]int{a, b})
				}
			}
		}
		var v *localView
		if directed {
			cnt := make(map[int]int, k)
			for id := 0; id < k; id++ {
				cnt[id] = 1 + rng.Intn(2)
			}
			v = dirViewOf(cnt, h)
		} else {
			sel := make(map[int]float64, k)
			for id := 0; id < k; id++ {
				sel[id] = 0.25 + 4*rng.Float64()
			}
			v = viewOf(sel, []int{k, k + 1}, h)
		}
		if v != nil {
			return v
		}
	}
}
