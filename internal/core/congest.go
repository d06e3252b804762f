package core

import (
	"errors"
	"fmt"
	"slices"

	"distspanner/internal/dist"
	"distspanner/internal/graph"
)

// This file implements the paper's Section 1.3 discussion point: "A direct
// implementation of our algorithm in the Congest model yields an overhead
// of O(Δ) rounds". TwoSpannerCongest runs the exact same per-vertex
// program as TwoSpanner, but every logical round is realized as a fixed
// number of CONGEST subrounds over which the O(Δ)-word records are
// fragmented into O(log n)-bit chunks. The engine enforces the bandwidth,
// so a single oversized message aborts the run — the CONGEST legality is
// checked, not assumed.
//
// Physical traffic also rides the flat-buffer record path: a fragment is a
// record with Tag tagChunk whose Flag carries the logical payload kind,
// whose A word is the more-fragments marker, and whose Ints tail is the
// word slice. Reassembly decodes the word stream back into the logical
// record the LOCAL execution would have delivered.

// chunkWords is the number of payload words carried per chunk; with the
// header this keeps every chunk within the 8-word CONGEST budget.
const chunkWords = 6

// chunkBits is the fixed metered size of one fragment: a full 8-word
// CONGEST message — header (kind, more, count) plus up to chunkWords
// words.
func chunkBits(n int) int { return 8 * dist.IDBits(n) }

// Logical payload kind tags for the fragmenter.
const (
	kindSpanList uint8 = iota + 1
	kindUncov
	kindDens
	kindMax
	kindStar
	kindTerm
	kindVote
	kindAccept
	kindUncovFull
)

// encodePayload flattens a logical record into (kind, words). Densities
// travel as exact (spanned, cost) integer rationals — the unweighted
// algorithm's densities are ratios of counts, so one word each suffices;
// receivers recompute the float and its rounding, which is exactly how a
// real CONGEST implementation would ship them. Scalar ranks are split
// into two 31-bit words.
func encodePayload(r dist.Rec) (uint8, []int, error) {
	switch r.Tag {
	case tagSpan:
		return kindSpanList, r.Ints, nil
	case tagUncov:
		if r.Flag != 0 {
			return kindUncovFull, r.Ints, nil
		}
		return kindUncov, r.Ints, nil
	case tagDens:
		return kindDens, []int{int(r.A), int(r.B)}, nil
	case tagMax:
		return kindMax, []int{int(r.A), int(r.B)}, nil
	case tagStar:
		words := []int{int(r.A >> 31), int(r.A & ((1 << 31) - 1))}
		return kindStar, append(words, r.Ints...), nil
	case tagTerm:
		return kindTerm, r.Ints, nil
	case tagVote:
		return kindVote, r.Ints, nil
	case tagAccept:
		return kindAccept, r.Ints, nil
	default:
		return 0, nil, fmt.Errorf("core: unknown record tag %d in CONGEST mode", r.Tag)
	}
}

// decodePayload reverses encodePayload into the logical record.
func decodePayload(kind uint8, words []int, n int) (dist.Rec, error) {
	switch kind {
	case kindSpanList:
		return dist.Rec{Tag: tagSpan, Ints: words}, nil
	case kindUncov:
		return dist.Rec{Tag: tagUncov, Ints: words}, nil
	case kindUncovFull:
		return dist.Rec{Tag: tagUncov, Flag: 1, Ints: words}, nil
	case kindDens:
		if len(words) != 2 {
			return dist.Rec{}, errors.New("core: bad density fragment")
		}
		raw := ratValue(words[0], words[1])
		return dist.Rec{Tag: tagDens, A: int64(words[0]), B: int64(words[1]),
			F0: RoundUpPow2(raw), F1: raw, F2: 1}, nil
	case kindMax:
		if len(words) != 2 {
			return dist.Rec{}, errors.New("core: bad max fragment")
		}
		raw := ratValue(words[0], words[1])
		return dist.Rec{Tag: tagMax, A: int64(words[0]), B: int64(words[1]),
			F0: RoundUpPow2(raw), F1: raw, F2: 1}, nil
	case kindStar:
		if len(words) < 2 {
			return dist.Rec{}, errors.New("core: bad star fragment")
		}
		r := int64(words[0])<<31 | int64(words[1])
		return dist.Rec{Tag: tagStar, A: r, Ints: words[2:]}, nil
	case kindTerm:
		return dist.Rec{Tag: tagTerm, Ints: words}, nil
	case kindVote:
		if len(words)%2 != 0 {
			return dist.Rec{}, errors.New("core: bad vote fragment")
		}
		return dist.Rec{Tag: tagVote, Ints: words}, nil
	case kindAccept:
		return dist.Rec{Tag: tagAccept, Ints: words}, nil
	default:
		return dist.Rec{}, fmt.Errorf("core: unknown payload kind %d", kind)
	}
}

// ratValue recomputes a density from its exact integer rational. Both the
// sender (Phase B) and this decoder perform the identical float division,
// so LOCAL and CONGEST executions see bit-identical densities.
func ratValue(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// congestCtx adapts *dist.Ctx so that one logical round of the protocol
// becomes exactly `sub` physical CONGEST rounds, fragmenting every record
// into chunk records. All vertices derive `sub` from the globally known n
// and Δ, keeping the network in lockstep.
type congestCtx struct {
	ctx     *dist.Ctx
	sub     int
	cbits   int              // metered size of one chunk
	out     []pendingPayload // per neighbor position; kind 0 means none
	pending int              // payloads queued in out
	recs    []dist.Rec       // the reassembled records, reused per window
	inbox   []dist.InRec     // the logical inbox, pointing into recs
}

type pendingPayload struct {
	kind  uint8
	words []int
}

// newCongestCtx computes the subround count from the maximum logical
// payload: star/uncovered/spanner lists have at most Δ+2 words and vote
// lists at most 2Δ words.
func newCongestCtx(ctx *dist.Ctx, maxDegree int) *congestCtx {
	return &congestCtx{ctx: ctx, sub: congestSubrounds(maxDegree), cbits: chunkBits(ctx.N()),
		out: make([]pendingPayload, len(ctx.Neighbors()))}
}

// Subrounds reports the physical rounds per logical round: the measured
// O(Δ) overhead.
func (c *congestCtx) Subrounds() int { return c.sub }

// ID implements roundCtx.
func (c *congestCtx) ID() int { return c.ctx.ID() }

// N implements roundCtx.
func (c *congestCtx) N() int { return c.ctx.N() }

// Neighbors implements roundCtx.
func (c *congestCtx) Neighbors() []int { return c.ctx.Neighbors() }

// Int63n implements roundCtx.
func (c *congestCtx) Int63n(n int64) int64 { return c.ctx.Int63n(n) }

// SendRec implements roundCtx by queuing the record for fragmentation.
// The bits argument (the LOCAL accounting) is discarded: physical chunks
// meter their own fixed CONGEST size.
func (c *congestCtx) SendRec(to int, r dist.Rec, _ int) {
	kind, words, err := encodePayload(r)
	if err != nil {
		panic(err)
	}
	p := &c.out[posOf(c.ctx.Neighbors(), to)]
	if p.kind != 0 {
		// The protocol sends at most one payload per (sender, receiver)
		// per logical round, which keeps reassembly unambiguous.
		panic("core: two payloads to one receiver in a logical round")
	}
	// The words slice may alias the caller's scratch (a rec built from
	// per-iteration state is fine, but the engine contract for staged
	// tails requires stability until commit) — the fragment loop below
	// reads it across sub physical rounds, so keep the reference; callers
	// rebuild their payloads per logical round.
	*p = pendingPayload{kind: kind, words: words}
	c.pending++
}

// inStream reassembles one sender's fragmented payload; kind 0 means the
// sender sent nothing in this window.
type inStream struct {
	kind  uint8
	words []int
	done  bool
}

// collectChunks folds one physical round's chunk records into the
// reassembly streams, one per neighbor position. Chunks arrive in
// ascending sender order, so a merge scan finds each sender's stream.
func collectChunks(nbrs []int, incoming []inStream, msgs []dist.InRec) {
	j := 0
	for i := range msgs {
		m := &msgs[i]
		if m.Tag != tagChunk {
			panic(fmt.Sprintf("core: non-chunk record tag %d in CONGEST mode", m.Tag))
		}
		j = seekPos(nbrs, j, m.From)
		st := &incoming[j]
		if st.kind == 0 || st.done {
			*st = inStream{kind: m.Flag, words: st.words[:0]}
		}
		// The chunk's word tail aliases the sender's arena; copy.
		st.words = append(st.words, m.Ints...)
		if m.A == 0 {
			st.done = true
		}
	}
}

// assemble decodes the reassembled streams into the logical inbox, in
// ascending sender order. The inbox and its records are reused by the
// next window, like the engine's: valid only during the inner step.
func (c *congestCtx) assemble(incoming []inStream) []dist.InRec {
	c.recs = slices.Grow(c.recs[:0], len(incoming)) // rows stay put while the inbox points at them
	c.inbox = c.inbox[:0]
	for j := range incoming {
		st := &incoming[j]
		if st.kind == 0 {
			continue
		}
		r, err := decodePayload(st.kind, st.words, c.ctx.N())
		if err != nil {
			panic(err)
		}
		c.recs = append(c.recs, r)
		c.inbox = append(c.inbox, dist.InRec{From: c.ctx.Neighbors()[j], Rec: &c.recs[len(c.recs)-1]})
	}
	return c.inbox
}

// congestMachine state: between physical rounds the machine is either
// mid-window (streaming fragments) or parked across whole logical rounds.
type cmState uint8

const (
	cmStart  cmState = iota // inner machine not yet started
	cmStream                // inside a logical window of sub physical rounds
	cmParked                // inner machine parked; wake starts a new window
)

// congestStream is one receiver's in-flight fragmented payload.
type congestStream struct {
	to     int
	kind   uint8
	words  []int
	offset int
}

// congestMachine nests the logical protocol machine inside the physical
// one: each inner yield opens a logical window of exactly sub physical
// rounds over which the queued payloads stream out as chunk records while
// the peers' chunks accumulate for reassembly (one logical round = sub
// physical yields), stepping the inner machine only at window boundaries
// so every vertex stays on the same physical round grid.
type congestMachine struct {
	cc       *congestCtx
	inner    dist.Machine
	state    cmState
	round    int // physical rounds already spent in the current window
	sending  []congestStream
	incoming []inStream // per neighbor position, for the current window
}

func newCongestMachine(cc *congestCtx, inner dist.Machine) *congestMachine {
	return &congestMachine{cc: cc, inner: inner, incoming: make([]inStream, len(cc.out))}
}

// Step implements dist.Machine.
func (m *congestMachine) Step(c *dist.Ctx, in dist.StepIn) dist.StepStatus {
	switch m.state {
	case cmStart:
		return m.advance(c, dist.StepIn{Start: true})
	case cmParked:
		if in.Quiesced {
			return m.advance(c, dist.StepIn{Quiesced: true})
		}
		// First physical round of a peer-initiated window: every stream's
		// first chunk is committed at a logical-round boundary, so this
		// wake lands on round 0 of the window and the remaining sub-1
		// physical rounds finish the collection and re-align the vertex
		// with the network's round grid.
		m.openWindow()
		collectChunks(c.Neighbors(), m.incoming, in.Recs)
		m.round = 1
		return m.stream(c)
	default: // cmStream
		collectChunks(c.Neighbors(), m.incoming, in.Recs)
		return m.stream(c)
	}
}

// advance hands one logical inbox to the inner machine and translates its
// scheduling decision into the physical one.
func (m *congestMachine) advance(c *dist.Ctx, in dist.StepIn) dist.StepStatus {
	switch m.inner.Step(c, in) {
	case dist.StepDone:
		if m.cc.pending != 0 {
			panic("core: congest machine retired with queued sends")
		}
		return dist.StepDone
	case dist.StepPark:
		if m.cc.pending != 0 {
			panic("core: congest park with queued sends (park only when silent)")
		}
		m.state = cmParked
		return dist.StepPark
	}
	// Inner yield: open a new logical window over the queued payloads, in
	// ascending receiver order.
	m.sending = m.sending[:0]
	for j := range m.cc.out {
		if p := &m.cc.out[j]; p.kind != 0 {
			m.sending = append(m.sending, congestStream{to: c.Neighbors()[j], kind: p.kind, words: p.words})
			*p = pendingPayload{}
		}
	}
	m.cc.pending = 0
	m.openWindow()
	m.round = 0
	return m.stream(c)
}

// openWindow clears the reassembly streams for a new logical window,
// keeping their buffers.
func (m *congestMachine) openWindow() {
	for j := range m.incoming {
		m.incoming[j] = inStream{words: m.incoming[j].words[:0]}
	}
}

// stream either closes the window (sub physical rounds spent: reassemble
// and advance the inner machine) or stages the next fragment of every
// still-active stream and yields for one physical round.
func (m *congestMachine) stream(c *dist.Ctx) dist.StepStatus {
	if m.round == m.cc.sub {
		return m.advance(c, dist.StepIn{Recs: m.cc.assemble(m.incoming)})
	}
	for i := range m.sending {
		s := &m.sending[i]
		if s.offset == 0 || s.offset < len(s.words) {
			end := s.offset + chunkWords
			if end > len(s.words) {
				end = len(s.words)
			}
			more := int64(0)
			if end < len(s.words) {
				more = 1
			}
			chunk := dist.Rec{Tag: tagChunk, Flag: s.kind, A: more, Ints: s.words[s.offset:end]}
			s.offset = end
			if s.offset == 0 { // empty payload: mark sent
				s.offset = 1
			}
			c.SendRec(s.to, chunk, m.cc.cbits)
		}
	}
	m.round++
	m.state = cmStream
	return dist.StepYield
}

// CongestResult extends Result with the fragmentation accounting.
type CongestResult struct {
	Result
	// Subrounds is the number of physical CONGEST rounds per logical
	// round of the LOCAL algorithm: Θ(Δ), the Section 1.3 overhead.
	Subrounds int
	// Bandwidth is the enforced per-edge bit budget.
	Bandwidth int
}

// TwoSpannerCongest runs the unweighted minimum 2-spanner algorithm in the
// CONGEST model: identical logic to TwoSpanner, with every message
// fragmented into 8-word chunks and the engine enforcing the O(log n)
// bandwidth. The price is Θ(Δ) physical rounds per logical round,
// demonstrating the overhead the paper's discussion section describes.
func TwoSpannerCongest(g *graph.Graph, opts Options) (*CongestResult, error) {
	ru, prog, err := newCongestRun(g, opts)
	if err != nil {
		return nil, err
	}
	res, err := ru.run(prog)
	if err != nil {
		return nil, err
	}
	return &CongestResult{
		Result:    *res,
		Subrounds: congestSubrounds(g.MaxDegree()),
		Bandwidth: prog.Bandwidth,
	}, nil
}

// CongestBandwidth is the per-edge per-round bit budget the CONGEST
// variant enforces for an n-vertex run: 8 words of ceil(log2 n) bits.
func CongestBandwidth(n int) int { return chunkBits(n) }

// congestSubrounds is the Θ(Δ) subround count the adapter uses — a pure
// function of the maximum degree, so the runner can report it without
// reaching into a machine.
func congestSubrounds(maxDegree int) int {
	maxWords := 2*maxDegree + 4
	sub := (maxWords + chunkWords - 1) / chunkWords
	if sub < 1 {
		sub = 1
	}
	return sub
}

// congestFactory wraps the undirected factory of ru, a run of the plain
// variant, in the Section 1.3 fragmenting CONGEST adapter.
func congestFactory(ru *uRun) func(*dist.Ctx) dist.Machine {
	maxDeg := ru.g.MaxDegree()
	return func(ctx *dist.Ctx) dist.Machine {
		cc := newCongestCtx(ctx, maxDeg)
		return newCongestMachine(cc, dist.NewPhasedMachine(newUndirectedNode(cc, ru)))
	}
}
