package lb

import (
	"fmt"
	"sort"

	"distspanner/internal/dist"
	"distspanner/internal/graph"
)

// This file makes the two-party simulation argument of Lemmas 2.4/2.7
// executable. Alice simulates V_A, Bob simulates V_B = Y1; running any
// distributed algorithm on the construction, the bits they must exchange
// are exactly the message bits crossing the cut — which the dist engine
// meters directly. Combined with the Ω(N) communication complexity of
// (gap) set-disjointness, the measured cut traffic converts into round
// lower bounds via ImpliedRoundLB.

// TwoPartyReport summarizes a metered run on a lower-bound instance.
type TwoPartyReport struct {
	// Stats is the engine's accounting; Stats.CutBits is what Alice and
	// Bob exchanged.
	Stats dist.Stats
	// CutEdges is the number of communication edges crossing the cut
	// (Θ(ℓ) on G(ℓ,β)).
	CutEdges int
	// BitsNeeded is the communication-complexity requirement Ω(N) = ℓ²
	// for (gap) disjointness on this instance.
	BitsNeeded int
	// ImpliedRounds is BitsNeeded / (CutEdges · bandwidth): the round
	// lower bound the reduction yields for CONGEST algorithms at the
	// given bandwidth.
	ImpliedRounds float64
}

// MeterLearnBall runs the naive "collect your d-neighborhood" protocol on
// the underlying undirected communication graph of the instance, with the
// Alice/Bob cut metered. Learning 5-neighborhoods is what a trivial
// directed-5-spanner algorithm would do on G(ℓ,β): each x_ij seeing its
// 5-ball can decide locally which of its D-edges are forced. The measured
// cut traffic shows how expensive that is through the Θ(ℓ) cut.
func MeterLearnBall(comm *graph.Graph, cut []bool, depth, bandwidth, bitsNeeded int) (*TwoPartyReport, error) {
	if depth < 1 {
		return nil, fmt.Errorf("lb: depth must be >= 1, got %d", depth)
	}
	stats, err := dist.RunMachines(dist.Config{Graph: comm, Seed: 1, CutSide: cut}, func(*dist.Ctx) dist.Machine {
		return &ballMachine{depth: depth}
	})
	if err != nil {
		return nil, err
	}
	cutEdges := 0
	for i := 0; i < comm.M(); i++ {
		e := comm.Edge(i)
		if cut[e.U] != cut[e.V] {
			cutEdges++
		}
	}
	return &TwoPartyReport{
		Stats:         *stats,
		CutEdges:      cutEdges,
		BitsNeeded:    bitsNeeded,
		ImpliedRounds: ImpliedRoundLB(bitsNeeded, cutEdges, bandwidth),
	}, nil
}

// edgeKey is an undirected edge with its endpoints in ascending order.
type edgeKey [2]int

// ballMachine is one vertex of the ball-learning protocol: for depth
// rounds it broadcasts the edges it learned last round (its own incident
// edges first) and folds what its neighbors learned into its ball.
type ballMachine struct {
	depth, round int
	known        map[edgeKey]bool
	fresh        []edgeKey
}

func (m *ballMachine) Step(c *dist.Ctx, in dist.StepIn) dist.StepStatus {
	if in.Start {
		m.known = make(map[edgeKey]bool)
		for _, u := range c.Neighbors() {
			k := edgeKey{c.ID(), u}
			if k[0] > k[1] {
				k[0], k[1] = k[1], k[0]
			}
			m.known[k] = true
			m.fresh = append(m.fresh, k)
		}
	} else {
		m.fresh = nil
		for _, msg := range in.Msgs {
			for _, pr := range msg.Payload.(dist.Pairs).Values {
				k := edgeKey{pr[0], pr[1]}
				if !m.known[k] {
					m.known[k] = true
					m.fresh = append(m.fresh, k)
				}
			}
		}
		m.round++
		if m.round == m.depth {
			return dist.StepDone
		}
	}
	sort.Slice(m.fresh, func(i, j int) bool {
		if m.fresh[i][0] != m.fresh[j][0] {
			return m.fresh[i][0] < m.fresh[j][0]
		}
		return m.fresh[i][1] < m.fresh[j][1]
	})
	payload := dist.Pairs{Space: c.N()}
	for _, k := range m.fresh {
		payload.Values = append(payload.Values, [2]int{k[0], k[1]})
	}
	c.Broadcast(payload)
	return dist.StepYield
}

// DecideDisjointness is Alice's decision rule from Lemma 2.4: given a
// k-spanner produced by an α-approximation algorithm on G(ℓ,β), the inputs
// are declared disjoint iff the spanner uses at most α·t edges of D, where
// t = c·ℓ·β (c = 7) bounds the optimal spanner for disjoint inputs.
func DecideDisjointness(f *Fig1, spanner *graph.EdgeSet, alpha float64) (disjoint bool) {
	dInSpanner := spanner.Clone()
	dInSpanner.IntersectWith(f.D)
	t := 7 * f.L * f.Beta
	return float64(dInSpanner.Len()) <= alpha*float64(t)
}

// DecideGapDisjointness is the deterministic variant (Lemma 2.7): with
// β ≤ ℓ the disjoint-side bound is t = c·ℓ² and Alice declares
// "far from disjoint" iff more than α·t edges of D are used.
func DecideGapDisjointness(f *Fig1, spanner *graph.EdgeSet, alpha float64) (farFromDisjoint bool) {
	dInSpanner := spanner.Clone()
	dInSpanner.IntersectWith(f.D)
	t := 7 * f.L * f.L
	return float64(dInSpanner.Len()) > alpha*float64(t)
}

// ThresholdGap reports the instance's dichotomy margin for approximation
// ratio alpha (Theorem 1.1's calculus): the decision rule is sound whenever
// α·t < β², i.e. whenever ThresholdGap is positive.
func ThresholdGap(f *Fig1, alpha float64) float64 {
	t := float64(7 * f.L * f.Beta)
	return float64(f.Beta*f.Beta) - alpha*t
}
