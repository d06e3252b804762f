package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"distspanner/internal/dist"
	"distspanner/internal/graph"
)

// refCoverage is a center's coverage state under the rule the position
// lists replace: each live neighbor's announced spanner edges kept as one
// merged, sorted list of far-endpoint ids.
type refCoverage struct {
	nbrs    []int
	ids     [][]int // per neighbor position: its merged id list
	covered []bool
	inSpan  []bool
	alive   []bool
	arcs    []uint8
}

// receive merges a span delta from the live neighbor at position j.
func (r *refCoverage) receive(j int, delta []int) {
	if r.alive[j] {
		r.ids[j] = append(r.ids[j], delta...)
		slices.Sort(r.ids[j])
	}
}

// update is the old updateCoverage: every open incident edge probes every
// live, in-spanner neighbor's list for its far endpoint, and every open
// in-arc u -> me probes u's list for a neighbor whose arc to me is
// spanned. It reports how many edges and in-arcs a 2-path covered.
func (r *refCoverage) update(directed bool) (paths, inPaths int) {
	for i, u := range r.nbrs {
		if r.covered[i] {
			continue
		}
		if r.inSpan[i] {
			r.covered[i] = true
			continue
		}
		for x := range r.nbrs {
			if r.inSpan[x] && r.alive[x] && containsSorted(r.ids[x], u) {
				r.covered[i] = true
				paths++
				break
			}
		}
	}
	if !directed {
		return paths, 0
	}
	for i := range r.nbrs {
		if r.arcs[i]&(dirIn|inCovered) != dirIn {
			continue
		}
		if r.arcs[i]&inSpanned != 0 {
			r.arcs[i] |= inCovered
			continue
		}
		for _, x := range r.ids[i] {
			if p := sort.SearchInts(r.nbrs, x); p < len(r.nbrs) && r.nbrs[p] == x && r.arcs[p]&inSpanned != 0 {
				r.arcs[i] |= inCovered
				inPaths++
				break
			}
		}
	}
	return paths, inPaths
}

// TestCoverageMatchesSpanListRule drives one center through random span
// inboxes and checks, after every process(phSpan), each covered flag and
// in-arc bit against refCoverage. Each live neighbor announces several
// deltas over the rounds, naming the center, other neighbors and ids that
// are not neighbors; neighbors die between rounds and keep sending, which
// must be ignored; and edges join the spanner late, so lists received
// earlier must still cover. Directed centers mix out-arcs, in-arcs and
// two-way pairs.
func TestCoverageMatchesSpanListRule(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	const universe, centers, rounds = 28, 300, 5
	// How often each case the inboxes must exercise decided coverage.
	var paths, inPaths, foreign, ignoredDead, lateSpans int
	for trial := 0; trial < centers; trial++ {
		directed := trial%2 == 1
		me := rng.Intn(universe)
		var run *uRun
		if directed {
			d := graph.NewDigraph(universe)
			for w := 0; w < universe; w++ {
				if w == me || rng.Float64() >= 0.6 {
					continue
				}
				switch rng.Intn(3) {
				case 0:
					d.AddEdge(me, w)
				case 1:
					d.AddEdge(w, me)
				default:
					d.AddEdge(me, w)
					d.AddEdge(w, me)
				}
			}
			run = newDirectedRun(d, Options{})
		} else {
			g := graph.New(universe)
			for w := 0; w < universe; w++ {
				if w != me && rng.Float64() < 0.6 {
					g.AddEdge(me, w)
				}
			}
			run = newURun(g, twoSpannerVariant(false), Options{})
		}
		nbrs := run.g.Neighbors(me)
		nd := newUndirectedNode(&stubCtx{id: me, n: universe, nbrs: nbrs}, run)
		ref := &refCoverage{
			nbrs: nbrs, ids: make([][]int, len(nbrs)),
			covered: make([]bool, len(nbrs)), inSpan: make([]bool, len(nbrs)),
			alive: make([]bool, len(nbrs)), arcs: make([]uint8, len(nbrs)),
		}
		// join puts the edge to position i into the spanner as an accepted
		// star would: its out-arc and in-arc in a directed run.
		join := func(i int) {
			nb := &nd.nb[i]
			if !directed || nb.arcs&dirOut != 0 {
				nb.inSpan = true
			}
			if nb.arcs&dirIn != 0 {
				nb.arcs |= inSpanned
			}
		}
		for i := range nbrs {
			if rng.Float64() < 0.15 {
				nd.nb[i].covered = true
			}
			if directed && nd.nb[i].arcs&dirIn != 0 && rng.Float64() < 0.15 {
				nd.nb[i].arcs |= inCovered
			}
			if rng.Float64() < 0.2 {
				join(i)
			}
		}
		announced := make([][]int, len(nbrs)) // each sender's ids so far
		for round := 0; round < rounds; round++ {
			if round > 0 {
				for i := range nbrs {
					switch x := rng.Float64(); {
					case x < 0.1 && ref.alive[i]:
						var rec dist.Rec
						if directed {
							rec = dirTermMsg{n: universe}.rec()
						} else {
							rec = termMsg{n: universe}.rec()
						}
						nd.process(phStar, []dist.InRec{inRec(nbrs[i], rec)})
						ref.alive[i], ref.ids[i] = false, nil
					case x < 0.25 && !nd.nb[i].inSpan:
						join(i)
						if nd.nb[i].inSpan && ref.alive[i] && len(ref.ids[i]) > 0 {
							lateSpans++
						}
					}
				}
			}
			for i := range nbrs {
				ref.covered[i], ref.inSpan[i], ref.arcs[i] = nd.nb[i].covered, nd.nb[i].inSpan, nd.nb[i].arcs
				if round == 0 {
					ref.alive[i] = true
				}
			}
			var inbox []dist.InRec
			for i, s := range nbrs {
				if rng.Float64() < 0.3 {
					continue
				}
				// A delta names ids the sender has not announced: the
				// center, other neighbors, and vertices that are not mine.
				var delta []int
				p := 0.1 + 0.3*rng.Float64()
				for w := 0; w < universe; w++ {
					if w != s && !slices.Contains(announced[i], w) && rng.Float64() < p {
						delta = append(delta, w)
					}
				}
				if len(delta) == 0 {
					continue
				}
				announced[i] = append(announced[i], delta...)
				for _, w := range delta {
					if _, ok := slices.BinarySearch(nbrs, w); !ok && w != me {
						foreign++
					}
				}
				if !ref.alive[i] && slices.ContainsFunc(delta, func(w int) bool {
					k, ok := slices.BinarySearch(nbrs, w)
					return ok && !ref.covered[k]
				}) {
					ignoredDead++
				}
				inbox = append(inbox, inRec(s, spanListMsg{nbrs: delta, n: universe}.rec(run.spanTag)))
				ref.receive(i, delta)
			}
			nd.process(phSpan, inbox)
			pc, ic := ref.update(directed)
			paths, inPaths = paths+pc, inPaths+ic
			for i := range nbrs {
				if nd.nb[i].covered != ref.covered[i] || nd.nb[i].arcs != ref.arcs[i] {
					t.Fatalf("center %d (directed %v), round %d, neighbor %d: covered %v arcs %04b, reference %v %04b",
						me, directed, round, nbrs[i], nd.nb[i].covered, nd.nb[i].arcs, ref.covered[i], ref.arcs[i])
				}
			}
		}
	}
	t.Logf("%d path covers, %d in-arc path covers, %d foreign ids, %d ignored dead deltas, %d late spanner joins",
		paths, inPaths, foreign, ignoredDead, lateSpans)
	if paths < 500 || inPaths < 200 || foreign < 1000 || ignoredDead < 100 || lateSpans < 200 {
		t.Fatalf("degenerate inboxes: %d path covers, %d in-arc path covers, %d foreign ids, %d ignored dead deltas, %d late spanner joins",
			paths, inPaths, foreign, ignoredDead, lateSpans)
	}
}
