package core

import (
	"math/rand"
	"slices"
	"testing"

	"distspanner/internal/dist"
	"distspanner/internal/graph"
)

// keptStar is a phase-D star the reference keeps: its sender, rank, and
// the far endpoints of the edges it 2-spans for the center (the members,
// or a directed star's out-heads).
type keptStar struct {
	from  int
	r     int64
	heads []int
	votes []int
}

// probeVotes is the vote rule the marks replace: each owned uncovered
// edge, in neighbor order, probes every kept star and votes for the one
// of least (r, id) that holds its far endpoint. It returns the records
// the center sends, one per voted-for star in inbox order.
func probeVotes(me int, nbrs []int, covered []bool, directed bool, kept []keptStar) []sentRec {
	for i, u := range nbrs {
		if covered[i] || (!directed && u < me) {
			continue
		}
		var best *keptStar
		for k := range kept {
			c := &kept[k]
			if slices.Contains(c.heads, u) && (best == nil || c.r < best.r || (c.r == best.r && c.from < best.from)) {
				best = c
			}
		}
		if best != nil {
			best.votes = append(best.votes, me, u)
		}
	}
	var out []sentRec
	for _, c := range kept {
		if len(c.votes) > 0 {
			out = append(out, sentRec{to: c.from, tag: tagVote, ints: c.votes})
		}
	}
	return out
}

// TestVoteMatchesProbeRule drives one center through random phase-D
// inboxes and checks the vote records emit(phVote) sends — destination,
// pairs and order — against probeVotes. The inboxes hold stars that name
// the center and stars that do not, ranks from {1, 2, 3} so that
// different senders tie, terminations that cover an edge a lower
// sender's star holds, and directed entries with and without the in bit.
// Each center decodes three star inboxes in a row, so a mark left behind
// would show as a stray vote. The golden digests cannot catch a
// tie-break slip: 62-bit ranks never tie.
func TestVoteMatchesProbeRule(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	const universe, centers, rounds = 24, 300, 3
	// How often each case the inboxes must exercise decided a vote.
	var ties, lateCovers, noInBit, foreign int
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
		ctx := &stubCtx{id: me, n: universe, nbrs: nbrs}
		nd := newUndirectedNode(ctx, run)
		covered := make([]bool, len(nbrs))
		alive := make([]bool, len(nbrs))
		for i := range nbrs {
			if rng.Float64() < 0.2 {
				nd.nb[i].flags |= edgeCovered
			}
			covered[i], alive[i] = nd.nb[i].has(edgeCovered), true
		}
		// owned reports whether the center votes with the edge at
		// position i: it owns the edge, and no record so far covered it.
		owned := func(i int) bool { return !covered[i] && (directed || nbrs[i] > me) }

		for round := 0; round < rounds; round++ {
			nd.Begin()
			ctx.sent = nil
			var inbox []dist.InRec
			var kept []keptStar
			for i, s := range nbrs {
				if !alive[i] {
					continue
				}
				switch x := rng.Float64(); {
				case x < 0.5:
					r := 1 + rng.Int63n(3)
					members := randomIDs(rng, universe, s, me)
					names := len(members) > 0 && rng.Float64() < 0.75
					if !directed {
						if names {
							members = insertSorted(members, me)
						}
						inbox = append(inbox, inRec(s, starMsg{star: members, r: r, n: universe}.rec()))
						if names {
							kept = append(kept, keptStar{from: s, r: r, heads: members})
						} else if holdsOwned(members, nbrs, owned) {
							foreign++
						}
						continue
					}
					entries := make([]int, 0, len(members)+1)
					var heads []int
					for _, w := range members {
						bits := 1 + rng.Intn(3)
						entries = append(entries, w<<2|bits)
						if bits&dirOut != 0 {
							heads = append(heads, w)
						}
					}
					mine := 0
					if names {
						mine = 1 + rng.Intn(3) // dirOut alone names me without the in bit
						entries = insertSorted(entries, me<<2|mine)
					}
					inbox = append(inbox, inRec(s, dirStarMsg{entries: entries, r: r, n: universe}.rec()))
					if mine&dirIn != 0 {
						kept = append(kept, keptStar{from: s, r: r, heads: heads})
					} else if holdsOwned(heads, nbrs, owned) {
						noInBit++
					}
				case x < 0.65:
					// A termination naming me covers the edge to s; it is
					// late when a lower sender's kept star holds that edge.
					names := rng.Intn(2) == 0
					if directed {
						var pairs []int
						if names {
							pairs = []int{me, s}
						}
						inbox = append(inbox, inRec(s, dirTermMsg{pairs: pairs, n: universe}.rec()))
					} else {
						added := randomIDs(rng, universe, s, me)
						if names {
							added = insertSorted(added, me)
						}
						inbox = append(inbox, inRec(s, termMsg{added: added, n: universe}.rec()))
					}
					if names {
						if owned(i) && slices.ContainsFunc(kept, func(c keptStar) bool { return slices.Contains(c.heads, s) }) {
							lateCovers++
						}
						covered[i] = true
					}
					alive[i] = false
				}
			}
			ties += tiedVotes(nbrs, owned, kept)
			nd.process(phStar, inbox)
			if nd.emit(phVote) {
				t.Fatal("the vote phase terminated")
			}
			want := probeVotes(me, nbrs, covered, directed, kept)
			if !slices.EqualFunc(ctx.sent, want, func(a, b sentRec) bool {
				return a.to == b.to && a.tag == b.tag && slices.Equal(a.ints, b.ints)
			}) {
				t.Fatalf("center %d (directed %v), round %d: sent %v, want %v", me, directed, round, ctx.sent, want)
			}
			for i := range nd.nb {
				if nd.nb[i].mark != 0 {
					t.Fatalf("center %d, round %d: mark %d left at position %d", me, round, nd.nb[i].mark, i)
				}
			}
		}
	}
	t.Logf("%d tied votes, %d late covers, %d stars without the in bit, %d foreign stars", ties, lateCovers, noInBit, foreign)
	if ties < 50 || lateCovers < 50 || noInBit < 50 || foreign < 50 {
		t.Fatalf("degenerate inboxes: %d tied votes, %d late covers, %d stars without the in bit, %d foreign stars",
			ties, lateCovers, noInBit, foreign)
	}
}

// randomIDs returns a sorted random subset of [0, universe) without s
// and me.
func randomIDs(rng *rand.Rand, universe, s, me int) []int {
	p := rng.Float64()
	var ids []int
	for w := 0; w < universe; w++ {
		if w != s && w != me && rng.Float64() < p {
			ids = append(ids, w)
		}
	}
	return ids
}

// insertSorted inserts x into the sorted slice s.
func insertSorted(s []int, x int) []int {
	i, _ := slices.BinarySearch(s, x)
	return slices.Insert(s, i, x)
}

// holdsOwned reports whether heads holds the far endpoint of an edge the
// center votes with.
func holdsOwned(heads, nbrs []int, owned func(int) bool) bool {
	for i, u := range nbrs {
		if owned(i) && slices.Contains(heads, u) {
			return true
		}
	}
	return false
}

// tiedVotes counts the edges the center votes with whose two best kept
// stars share a rank, so the id decides the vote.
func tiedVotes(nbrs []int, owned func(int) bool, kept []keptStar) int {
	n := 0
	for i, u := range nbrs {
		if !owned(i) {
			continue
		}
		var ranks []int64
		for _, c := range kept {
			if slices.Contains(c.heads, u) {
				ranks = append(ranks, c.r)
			}
		}
		slices.Sort(ranks)
		if len(ranks) > 1 && ranks[0] == ranks[1] {
			n++
		}
	}
	return n
}
