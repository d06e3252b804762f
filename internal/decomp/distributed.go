package decomp

import (
	"math"
	"sort"

	"distspanner/internal/dist"
	"distspanner/internal/graph"
)

// This file runs Linial-Saks as an actual message-passing protocol on the
// round engine, as the LOCAL model executes it: per phase, every remaining
// vertex draws a truncated-geometric radius and floods a (origin, radius,
// distance) token through the remaining subgraph for O(log n) rounds;
// vertices captured strictly inside the ball of their highest-id candidate
// cluster and leave. DistributedLinialSaks returns both the decomposition
// and the engine's round/message statistics.

// lsToken is one flooded candidate: origin vertex, its radius, and the
// hop distance from the origin to the receiver.
type lsToken struct {
	Origin, R, D int
}

// lsTokensMsg carries newly improved tokens. Each token is 3 words.
type lsTokensMsg struct {
	tokens []lsToken
	n      int
}

// Bits implements dist.Payload.
func (m lsTokensMsg) Bits() int { return (1 + 3*len(m.tokens)) * dist.IDBits(m.n) }

// lsClusteredMsg announces that the sender was captured this phase.
type lsClusteredMsg struct{}

// Bits implements dist.Payload.
func (lsClusteredMsg) Bits() int { return 1 }

// DistributedLinialSaks executes the Linial-Saks decomposition as a
// message-passing protocol and returns the decomposition plus the
// communication statistics. Results match the guarantees of LinialSaks;
// the exact clustering differs because radii are drawn from per-vertex
// RNG streams.
func DistributedLinialSaks(g *graph.Graph, seed int64) (*Decomposition, *dist.Stats, error) {
	n := g.N()
	d := &Decomposition{
		Cluster: make([]int, n),
		Color:   make([]int, n),
	}
	for v := range d.Cluster {
		d.Cluster[v] = -1
		d.Color[v] = -1
	}
	if n == 0 {
		return d, &dist.Stats{}, nil
	}
	maxRadius := 2*int(math.Ceil(math.Log2(float64(n+1)))) + 1
	maxPhases := 50 + 10*int(math.Ceil(math.Log2(float64(n+1))))
	stats, err := dist.RunMachines(dist.Config{Graph: g, Seed: seed}, func(*dist.Ctx) dist.Machine {
		return &lsMachine{d: d, maxRadius: maxRadius, maxPhases: maxPhases}
	})
	if err != nil {
		return nil, nil, err
	}
	colors := 0
	for _, c := range d.Color {
		if c+1 > colors {
			colors = c + 1
		}
	}
	d.NumColors = colors
	return d, stats, nil
}

// lsCand is a known candidate cluster: its origin's radius and the best
// hop distance from the origin heard so far.
type lsCand struct{ r, d int }

// lsMachine is one vertex of the protocol. Every phase takes
// maxRadius+1 flood rounds (round 0..maxRadius) plus one capture round
// at every live vertex, so the vertices stay in lockstep without any
// extra synchronization. Each vertex writes only its own entries of d.
type lsMachine struct {
	d                    *Decomposition
	maxRadius, maxPhases int

	remaining map[int]bool   // neighbors not yet clustered
	phase     int            // current phase
	round     int            // round of the phase whose inbox comes next
	known     map[int]lsCand // origin -> candidate
	fresh     []lsToken      // tokens improved last round
	captured  bool           // clustered; the announcement is in flight
}

func (m *lsMachine) Step(c *dist.Ctx, in dist.StepIn) dist.StepStatus {
	switch {
	case in.Start:
		m.remaining = make(map[int]bool, c.Degree())
		for _, u := range c.Neighbors() {
			m.remaining[u] = true
		}
		m.beginPhase(c)
	case m.captured:
		return dist.StepDone // the announcement round completed
	case m.round <= m.maxRadius:
		// A flood round: keep every token that improves a candidate.
		m.fresh = nil
		for _, msg := range in.Msgs {
			tm, ok := msg.Payload.(lsTokensMsg)
			if !ok {
				continue
			}
			for _, tok := range tm.tokens {
				if cd, seen := m.known[tok.Origin]; !seen || tok.D < cd.d {
					m.known[tok.Origin] = lsCand{r: tok.R, d: tok.D}
					m.fresh = append(m.fresh, tok)
				}
			}
		}
		m.round++
	default:
		// The capture round: learn which neighbors left this phase.
		for _, msg := range in.Msgs {
			if _, ok := msg.Payload.(lsClusteredMsg); ok {
				delete(m.remaining, msg.From)
			}
		}
		m.phase++
		if m.phase == m.maxPhases {
			// Safety net (astronomically unlikely): self-cluster with a
			// color distinct from every phase color and from other
			// stragglers'.
			me := c.ID()
			m.d.Cluster[me] = me
			m.d.Color[me] = m.maxPhases + me
			return dist.StepDone
		}
		m.beginPhase(c)
	}
	if m.round <= m.maxRadius {
		m.flood(c)
	} else {
		m.capture(c)
	}
	return dist.StepYield
}

// beginPhase draws this phase's truncated-geometric radius and seeds the
// flood with the vertex's own token.
func (m *lsMachine) beginPhase(c *dist.Ctx) {
	r := 0
	for r < m.maxRadius && c.Rand().Intn(2) == 0 {
		r++
	}
	me := c.ID()
	m.known = map[int]lsCand{me: {r: r, d: 0}}
	m.fresh = []lsToken{{Origin: me, R: r, D: 0}}
	m.round = 0
}

// flood forwards every freshly improved token that can still travel to
// the remaining neighbors.
func (m *lsMachine) flood(c *dist.Ctx) {
	var outgoing []lsToken
	for _, tok := range m.fresh {
		if tok.D < tok.R {
			outgoing = append(outgoing, lsToken{Origin: tok.Origin, R: tok.R, D: tok.D + 1})
		}
	}
	sort.Slice(outgoing, func(i, j int) bool { return outgoing[i].Origin < outgoing[j].Origin })
	if len(outgoing) > 0 {
		for _, u := range c.Neighbors() {
			if m.remaining[u] {
				c.Send(u, lsTokensMsg{tokens: outgoing, n: c.N()})
			}
		}
	}
}

// capture joins the highest-id candidate whose ball strictly covers this
// vertex and announces the departure to every neighbor; a vertex that is
// not captured spends the round listening for departures instead.
func (m *lsMachine) capture(c *dist.Ctx) {
	captor, best := -1, lsCand{}
	for o, cd := range m.known {
		if cd.d <= cd.r && o > captor {
			captor, best = o, cd
		}
	}
	if captor >= 0 && best.d < best.r {
		me := c.ID()
		m.d.Cluster[me] = captor
		m.d.Color[me] = m.phase
		c.Broadcast(lsClusteredMsg{})
		m.captured = true
	}
}
