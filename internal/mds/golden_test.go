package mds

import (
	"reflect"
	"sort"
	"testing"

	"distspanner/internal/dist"
	"distspanner/internal/gen"
	"distspanner/internal/graph"
)

// classicRun is the golden reference: the classical all-broadcast
// execution of the paper's loop, with every vertex spinning the six-round
// grid and rebroadcasting its full state each iteration. A vertex halts
// immediately after the coverage fold that finds U_v = ∅ — no bye
// announcement and no trailing flush round, so the run's last charged
// round is the coverage round of the last halter. Candidates draw from
// the same per-vertex RNG streams at the same iterations as the
// activity-aware implementation, so the chosen dominating set and the
// round count are exactly the values the optimized run must reproduce.
func classicRun(t *testing.T, g *graph.Graph, seed int64) ([]int, int) {
	t.Helper()
	inDS := make([]bool, g.N())
	stats, err := dist.RunMachines(dist.Config{Graph: g, Seed: seed}, func(c *dist.Ctx) dist.Machine {
		return &classicMachine{inDS: inDS, nbrCovered: make([]bool, c.Degree())}
	})
	if err != nil {
		t.Fatalf("classic reference: %v", err)
	}
	var ds []int
	for v, in := range inDS {
		if in {
			ds = append(ds, v)
		}
	}
	sort.Ints(ds)
	return ds, stats.Rounds
}

// classicMachine is one vertex of the classical reference. round is the
// grid round (1-6) whose inbox the next step consumes; the other fields
// carry the iteration's state across rounds.
type classicMachine struct {
	inDS            []bool
	nbrCovered      []bool
	covered, selfIn bool
	round           int
	count, m2       int
	isCand          bool
	myR             int64
	votes           int
}

func (m *classicMachine) Step(ctx *dist.Ctx, in dist.StepIn) dist.StepStatus {
	me, nbrs := ctx.ID(), ctx.Neighbors()
	inbox := in.Recs
	switch m.round {
	case 1:
		// Round 1 inbox: coverage.
		j := 0
		for i := range inbox {
			if inbox[i].Tag == tagCovered {
				j = seekPos(nbrs, j, inbox[i].From)
				m.nbrCovered[j] = true
			}
		}
		m.count = 0
		if !m.covered {
			m.count++
		}
		for i := range nbrs {
			if !m.nbrCovered[i] {
				m.count++
			}
		}
		if m.count == 0 {
			m.inDS[me] = m.selfIn
			return dist.StepDone
		}
		// Round 2: density. Halted neighbors are silent, so a missing
		// sender folds as density 0 — the classical equivalent of the
		// optimized run's bye pruning.
		dm := densityMsg{count: m.count, n: ctx.N()}
		ctx.BroadcastRec(dm.rec(), dm.Bits())
	case 2:
		hop := roundUpPow2Int(m.count)
		for i := range inbox {
			if inbox[i].Tag == tagDensity {
				if r := roundUpPow2Int(int(inbox[i].A)); r > hop {
					hop = r
				}
			}
		}
		// Round 3: 1-hop maxima.
		mm := maxMsg{count: hop, n: ctx.N()}
		ctx.BroadcastRec(mm.rec(), mm.Bits())
		m.m2 = hop
	case 3:
		for i := range inbox {
			if inbox[i].Tag == tagMax {
				if r := int(inbox[i].A); r > m.m2 {
					m.m2 = r
				}
			}
		}
		// Round 4: candidacy.
		m.isCand = roundUpPow2Int(m.count) >= m.m2
		m.myR = 0
		if m.isCand {
			m.myR = 1 + ctx.Rand().Int63n(1<<62)
			cm := candMsg{r: m.myR, n: ctx.N()}
			for i, u := range nbrs {
				if !m.nbrCovered[i] {
					ctx.SendRec(u, cm.rec(), cm.Bits())
				}
			}
		}
	case 4:
		// Round 5: votes, cast over the candidacy inbox.
		m.votes = 0
		if !m.covered {
			bestV, bestR := -1, int64(0)
			if m.isCand {
				bestV, bestR = me, m.myR
			}
			for i := range inbox {
				if inbox[i].Tag != tagCand {
					continue
				}
				if bestV < 0 || inbox[i].A < bestR || (inbox[i].A == bestR && inbox[i].From < bestV) {
					bestV, bestR = inbox[i].From, inbox[i].A
				}
			}
			if bestV == me {
				m.votes++ // self-vote
			} else if bestV >= 0 {
				ctx.SendRec(bestV, voteMsg{}.rec(), voteMsg{}.Bits())
			}
		}
	case 5:
		for i := range inbox {
			if inbox[i].Tag == tagVote {
				m.votes++
			}
		}
		// Round 6: joins.
		if m.isCand && 8*m.votes >= m.count && m.count > 0 {
			m.selfIn = true
			ctx.BroadcastRec(joinMsg{}.rec(), joinMsg{}.Bits())
		}
	case 6:
		joined := m.selfIn
		for i := range inbox {
			if inbox[i].Tag == tagJoin {
				joined = true
			}
		}
		if joined {
			m.covered = true
		}
	}
	if m.round == 0 || m.round == 6 {
		// Round 1: coverage. Covered vertices rebroadcast their status.
		if m.covered {
			ctx.BroadcastRec(coveredMsg{}.rec(), coveredMsg{}.Bits())
		}
		m.round = 1
		return dist.StepYield
	}
	m.round++
	return dist.StepYield
}

// TestGoldenRoundsMatchClassic pins the activity-aware implementation to
// the classical reference: identical dominating set and — with the
// termination bye folded into the retirement instead of a dedicated
// flush round — an identical round count.
func TestGoldenRoundsMatchClassic(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"clique":  gen.Clique(15),
		"star":    gen.Star(20),
		"path":    gen.Path(25),
		"cycle":   gen.Cycle(24),
		"grid":    gen.Grid(5, 6),
		"gnp":     gen.ConnectedGNP(50, 0.08, 2),
		"planted": gen.PlantedStars(5, 8, 0.2, 4),
	}
	for name, g := range graphs {
		for _, seed := range []int64{1, 7, 42} {
			res, err := Run(g, Options{Seed: seed})
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			wantDS, wantRounds := classicRun(t, g, seed)
			if !reflect.DeepEqual(res.DominatingSet, wantDS) {
				t.Errorf("%s seed %d: dominating set %v, classic reference %v",
					name, seed, res.DominatingSet, wantDS)
			}
			if res.Stats.Rounds != wantRounds {
				t.Errorf("%s seed %d: %d rounds, classic reference %d",
					name, seed, res.Stats.Rounds, wantRounds)
			}
		}
	}
}
