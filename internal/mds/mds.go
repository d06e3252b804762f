// Package mds implements the paper's distributed minimum dominating set
// algorithm (Section 5, Theorem 5.1): a CONGEST-model algorithm with a
// guaranteed O(log Δ) approximation ratio — not merely in expectation, the
// paper's improvement over Jia et al. [43] — running in O(log n · log Δ)
// rounds w.h.p.
//
// The structure mirrors the 2-spanner algorithm with stars replaced by
// closed neighborhoods: densities are counts of uncovered vertices in the
// closed neighborhood, candidates are vertices whose rounded density is
// maximal in their 2-neighborhood, uncovered vertices vote for the first
// candidate covering them under a random permutation, and candidates
// obtaining at least 1/8 of their potential votes join the dominating set.
// Every message fits in O(log n) bits, so the algorithm runs unchanged in
// the CONGEST model; the engine enforces this at runtime.
//
// # Activity-aware execution
//
// The implementation is event-driven within the paper's six-round
// iteration grid. State broadcasts are deltas: a vertex announces its
// domination status only when it changes, its density and 1-hop maximum
// only when they change, and candidacy announcements go only to the
// uncovered neighbors whose votes they solicit. Receivers accumulate the
// deltas into persistent per-neighbor state, so the folded quantities
// (densities, 1-hop and 2-hop maxima) are identical to the classical
// all-broadcast execution round for round — the chosen dominating set is
// the same, message for message of randomness.
//
// Per-vertex termination states replace round-count spinning:
//
//   - active: the vertex owes a delta or is a candidate this iteration and
//     executes the full iteration.
//   - parked: nothing to send and not a candidate — the vertex parks
//     (dist.StepPark) and wakes only when a delivery arrives. The wake's payload
//     types identify the iteration phase (coverage deltas arrive in round
//     1, densities in round 2, ...), so the vertex re-enters the iteration
//     loop exactly where the network is.
//   - halted: U_v = ∅ (paper step 6). The vertex announces a byeMsg — its
//     density is now irrevocably 0 and senders prune it from their
//     broadcast lists — then retires. When every vertex is parked or
//     halted with no messages in flight, the engine's quiescence releases
//     the parked vertices (StepIn.Quiesced) and they finalize.
//
// Stats.ActiveSteps / ParkedSteps record the resulting activity profile;
// on covered-tail instances most vertices spend most rounds parked, which
// the step engine turns into wall-clock speedups, since a parked vertex
// costs it nothing (see BenchmarkMDSTail).
package mds

import (
	"sort"

	"distspanner/internal/dist"
	"distspanner/internal/graph"
)

// Options configures a run.
type Options struct {
	// Seed drives the per-vertex randomness.
	Seed int64
	// Bandwidth is the CONGEST per-edge bit budget to enforce; zero
	// defaults to 8 words of ceil(log2 n) bits. Enforcement is always on:
	// exceeding the budget is an error, demonstrating CONGEST legality.
	Bandwidth int
	// ExecMode is passed to dist.Config.Mode: ModeAuto (the zero value)
	// and ModeStep both run the step engine, the only scheduler, and any
	// other value is an error. It is kept for source compatibility.
	ExecMode dist.Mode
	// RoundHook, when non-nil, receives the engine's per-round activity
	// snapshots (see dist.Config.OnRound).
	RoundHook func(dist.RoundActivity)
	// Cancel, when non-nil, aborts the run when closed (see
	// dist.Config.Cancel).
	Cancel <-chan struct{}
	// Tracer, when non-nil, receives the run's execution narration (see
	// dist.Config.Tracer). Zero cost when nil.
	Tracer dist.Tracer
	// Shards, when positive, runs the algorithm distributed across that
	// many shard workers over an in-process transport (see
	// dist.Config.Shards). Results are bit-identical to Shards == 0.
	Shards int
}

// Result reports the outcome.
type Result struct {
	// DominatingSet is the sorted set of chosen vertices.
	DominatingSet []int
	// Stats carries round/message/bit measurements; MaxEdgeRoundBits stays
	// within the CONGEST budget by construction, and ActiveSteps /
	// ParkedSteps expose the activity profile.
	Stats dist.Stats
	// Iterations is the maximum number of algorithm iterations any vertex
	// executed. Parked vertices skip iterations entirely, so this counts
	// the longest active participation, not wall-clock rounds / 6.
	Iterations int
}

// Message schema: every payload is O(1) words of O(log n) bits, carried
// on the engine's flat-buffer record path (dist.Rec). Each phase of the
// six-round iteration has a distinct record tag, which is how a vertex
// woken from parking re-identifies the network's current phase. Each struct
// below defines one wire record (fields + metered size) and its rec()
// builder; the reflection conformance test in mds_test.go fails when a
// field is added without updating the accounting.

// Record tags, one per payload type.
const (
	tagCovered uint8 = iota + 1
	tagDensity
	tagBye
	tagMax
	tagCand
	tagVote
	tagJoin
)

// coveredMsg announces that the sender became dominated (round 1; sent
// once, on the transition).
type coveredMsg struct{}

func (coveredMsg) Bits() int     { return 1 }
func (coveredMsg) rec() dist.Rec { return dist.Rec{Tag: tagCovered} }

// densityMsg announces the sender's changed uncovered-neighborhood count
// (round 2; the MDS density is an integer, so one word suffices).
type densityMsg struct {
	count int
	n     int
}

//spanlint:bits count — the one IDBits(n) word is count itself; n only sizes the word
func (m densityMsg) Bits() int     { return dist.IDBits(m.n) }
func (m densityMsg) rec() dist.Rec { return dist.Rec{Tag: tagDensity, A: int64(m.count)} }

// byeMsg announces that the sender halted (U_v = ∅, round 2): its density
// is 0 forever and senders drop it from their broadcast lists.
type byeMsg struct{}

func (byeMsg) Bits() int     { return 1 }
func (byeMsg) rec() dist.Rec { return dist.Rec{Tag: tagBye} }

// maxMsg announces the sender's changed 1-hop maximum of rounded
// densities (round 3). Rounded densities are powers of two <= 2(Δ+1), so
// the value fits a word.
type maxMsg struct {
	count int
	n     int
}

//spanlint:bits count — the one IDBits(n) word is count itself; n only sizes the word
func (m maxMsg) Bits() int     { return dist.IDBits(m.n) }
func (m maxMsg) rec() dist.Rec { return dist.Rec{Tag: tagMax, A: int64(m.count)} }

// candMsg announces candidacy with the random rank r ∈ {1..n⁴} (round 4;
// 4 words). It is sent only to the uncovered neighbors whose votes it
// solicits — a covered vertex never acts on it.
type candMsg struct {
	r int64
	n int
}

//spanlint:bits r — the 4*IDBits(n) term is the rank r ∈ {1..n⁴}, four id-sized words
func (m candMsg) Bits() int     { return 4 * dist.IDBits(m.n) }
func (m candMsg) rec() dist.Rec { return dist.Rec{Tag: tagCand, A: m.r} }

// voteMsg casts the sender's vote for the receiving candidate (round 5).
type voteMsg struct{}

func (voteMsg) Bits() int     { return 1 }
func (voteMsg) rec() dist.Rec { return dist.Rec{Tag: tagVote} }

// joinMsg announces that the sender joined the dominating set (round 6).
type joinMsg struct{}

func (joinMsg) Bits() int     { return 1 }
func (joinMsg) rec() dist.Rec { return dist.Rec{Tag: tagJoin} }

// Run executes the MDS algorithm on the connected graph g.
func Run(g *graph.Graph, opts Options) (*Result, error) {
	mr, prog := newProgram(g, opts)
	stats, err := dist.RunLocal(prog, dist.Config{
		Seed: opts.Seed, Mode: opts.ExecMode, OnRound: opts.RoundHook,
		Cancel: opts.Cancel, Tracer: opts.Tracer, Shards: opts.Shards,
	})
	if err != nil {
		return nil, err
	}
	return mr.result(stats), nil
}

// DefaultBandwidth is the per-edge per-round bit budget Run enforces
// when Options.Bandwidth is zero: 8 words of ceil(log2 n) bits.
func DefaultBandwidth(n int) int { return 8 * dist.IDBits(n) }

// mdsRun owns the cross-vertex collectors the machine factory closes
// over: domination membership and per-vertex iteration counts.
type mdsRun struct {
	inDS  []bool
	iters []int
}

func newMDSRun(n int) *mdsRun {
	return &mdsRun{inDS: make([]bool, n), iters: make([]int, n)}
}

func (r *mdsRun) factory(ctx *dist.Ctx) dist.Machine {
	v := newNode(ctx)
	v.inDS, v.iters = r.inDS, r.iters
	return dist.NewPhasedMachine(v)
}

func (r *mdsRun) result(stats *dist.Stats) *Result {
	var ds []int
	for v, in := range r.inDS {
		if in {
			ds = append(ds, v)
		}
	}
	sort.Ints(ds)
	maxIter := 0
	for _, it := range r.iters {
		if it > maxIter {
			maxIter = it
		}
	}
	return &Result{DominatingSet: ds, Stats: *stats, Iterations: maxIter}
}

// Program is the shard program Run runs, for the distributed runner
// (dist.ServeShard): the machines on g under the enforced budget
// (Options.Bandwidth, or DefaultBandwidth(g.N()) when zero). Output(v)
// is [1] when v joined the dominating set, nil otherwise.
func Program(g *graph.Graph, opts Options) dist.ShardProgram {
	_, prog := newProgram(g, opts)
	return prog
}

// newProgram builds the collectors of one run and its program.
func newProgram(g *graph.Graph, opts Options) (*mdsRun, dist.ShardProgram) {
	bandwidth := opts.Bandwidth
	if bandwidth <= 0 {
		bandwidth = DefaultBandwidth(g.N())
	}
	mr := newMDSRun(g.N())
	return mr, dist.ShardProgram{
		Graph:     g,
		Bandwidth: bandwidth,
		Factory:   mr.factory,
		Output: func(v int) []int {
			if mr.inDS[v] {
				return []int{1}
			}
			return nil
		},
	}
}

// roundUpPow2Int returns the smallest power of two strictly greater than x
// (x >= 0), as an integer; 0 for x <= 0. MDS densities are integer counts.
func roundUpPow2Int(x int) int {
	if x <= 0 {
		return 0
	}
	p := 1
	for p <= x {
		p <<= 1
	}
	return p
}

// phase indexes the six rounds of one iteration. A parked vertex that is
// woken classifies the wake by record tag into the phase whose inbox it
// received and resumes the iteration from there.
type phase int

const (
	phCoverage phase = iota + 1 // round 1: coveredMsg deltas
	phDensity                   // round 2: densityMsg deltas + byeMsg
	phMax                       // round 3: maxMsg deltas
	phCand                      // round 4: candMsg
	phVote                      // round 5: voteMsg (candidates only)
	phJoin                      // round 6: joinMsg
)

// candRank is one announced candidacy this iteration.
type candRank struct {
	from int
	r    int64
}

// node is the per-vertex state.
type node struct {
	ctx   *dist.Ctx
	me    int
	n     int
	nbrs  []int
	inDS  []bool // shared output: dominating-set membership per vertex
	iters []int  // shared output: iterations executed per vertex

	covered    bool
	selfIn     bool
	pendingCov bool // covered transition not yet announced (round 1)

	// Per-neighbor state, indexed by the neighbor's position in nbrs. The
	// folds scan slices, and inbox decoding resolves sender positions with
	// the seekPos merge scan (inboxes are sorted by sender): no map on any
	// per-message path.
	alive      []bool
	nbrCovered []bool
	densOf     []int // last announced count per live neighbor
	hopOf      []int // last announced 1-hop max per live neighbor

	count    int // |U_v|: uncovered vertices in the closed neighborhood
	hopMax   int // 1-hop maximum of rounded densities (incl. own)
	m2       int // 2-hop maximum (incl. own)
	lastDens int // last announced count (-1: never)
	lastHop  int // last announced hopMax (-1: never)
	isCand   bool
	myR      int64
	cands    []candRank // announced candidacies, this iteration
	votes    int
	iter     int
}

func newNode(ctx *dist.Ctx) *node {
	nbrs := ctx.Neighbors()
	v := &node{
		ctx: ctx, me: ctx.ID(), n: ctx.N(), nbrs: nbrs,
		alive:      make([]bool, len(nbrs)),
		nbrCovered: make([]bool, len(nbrs)),
		densOf:     make([]int, len(nbrs)),
		hopOf:      make([]int, len(nbrs)),
		lastDens:   -1,
		lastHop:    -1,
	}
	for i := range nbrs {
		v.alive[i] = true
	}
	return v
}

// seekPos is dist.SeekPos: the monotone sender-position merge scan over
// the sorted neighbor list that replaces per-message map lookups.
func seekPos(nbrs []int, j, from int) int { return dist.SeekPos(nbrs, j, from) }

// bcast sends the record to every live neighbor: halted vertices are
// pruned from all broadcasts, which is what makes covered-tail rounds
// cheap.
func (v *node) bcast(r dist.Rec, bits int) {
	for i, u := range v.nbrs {
		if v.alive[i] {
			v.ctx.SendRec(u, r, bits)
		}
	}
}

// recount recomputes |U_v| from the accumulated coverage state.
func (v *node) recount() {
	c := 0
	if !v.covered {
		c++
	}
	for i := range v.nbrs {
		if !v.nbrCovered[i] {
			c++
		}
	}
	v.count = c
}

// refoldHop recomputes the 1-hop maximum of rounded densities from the
// accumulated per-neighbor counts (own first, then live neighbors in id
// order — the same fold the all-broadcast execution performs on its
// round-2 inbox).
func (v *node) refoldHop() {
	h := roundUpPow2Int(v.count)
	for i := range v.nbrs {
		if !v.alive[i] {
			continue
		}
		if r := roundUpPow2Int(v.densOf[i]); r > h {
			h = r
		}
	}
	v.hopMax = h
}

// refoldM2 recomputes the 2-hop maximum from the accumulated 1-hop maxima.
func (v *node) refoldM2() {
	m := v.hopMax
	for i := range v.nbrs {
		if !v.alive[i] {
			continue
		}
		if r := v.hopOf[i]; r > m {
			m = r
		}
	}
	v.m2 = m
}

// parkable reports whether the vertex owes the network nothing this
// iteration: no pending deltas and no candidacy. Such a vertex parks;
// anything that could change its answers arrives as a delivery.
func (v *node) parkable() bool {
	if v.pendingCov || v.count != v.lastDens || v.hopMax != v.lastHop {
		return false
	}
	return roundUpPow2Int(v.count) < v.m2 // not a candidate
}

// classify maps a wake inbox to the phase whose round delivered it. Every
// phase has disjoint record tags and all senders are phase-aligned, so
// one inbox is always one phase.
func classify(msgs []dist.InRec) phase {
	switch msgs[0].Tag {
	case tagCovered:
		return phCoverage
	case tagDensity, tagBye:
		return phDensity
	case tagMax:
		return phMax
	case tagCand:
		return phCand
	case tagVote:
		return phVote
	case tagJoin:
		return phJoin
	}
	panic("mds: unclassifiable wake record tag")
}

// Phases implements dist.PhasedProgram.
func (v *node) Phases() (int, int) { return int(phCoverage), int(phJoin) }

// Begin implements dist.PhasedProgram: record and bump the iteration
// count, reset the per-iteration scratch.
func (v *node) Begin() {
	v.iters[v.me] = v.iter
	v.iter++
	v.isCand = false
	v.votes = 0
	v.cands = v.cands[:0]
}

// Emit implements dist.PhasedProgram. MDS never halts while emitting:
// termination is detected on the receive side (U_v = ∅ after the
// coverage fold).
func (v *node) Emit(ph int) bool {
	v.emit(phase(ph))
	return false
}

// Process implements dist.PhasedProgram: halt when the coverage fold
// finds U_v = ∅ (paper step 6).
func (v *node) Process(ph int, recs []dist.InRec) bool {
	return v.process(phase(ph), recs)
}

// Parkable implements dist.PhasedProgram.
func (v *node) Parkable() bool { return v.parkable() }

// ParkReset implements dist.PhasedProgram; the MDS iteration keeps no
// cross-iteration continuation, so there is nothing to reset.
func (v *node) ParkReset() {}

// Classify implements dist.PhasedProgram.
func (v *node) Classify(recs []dist.InRec) int { return int(classify(recs)) }

// Halt implements dist.PhasedProgram: announce the retirement so peers
// zero this vertex's density and stop sending to it, output membership,
// halt. The byeMsg rides the retirement itself (the engine commits a
// retiring vertex's queued sends), so halting costs no extra round — the
// last halter's byes reach only already-retired peers and are metered and
// dropped without charging the network a round.
func (v *node) Halt() {
	v.bcast(byeMsg{}.rec(), byeMsg{}.Bits())
	v.inDS[v.me] = v.selfIn
}

// Terminal implements dist.PhasedProgram; unreachable (Emit never
// reports a terminal announcement).
func (v *node) Terminal() {}

// Quiesce implements dist.PhasedProgram: nothing can ever change U_v
// again, so output membership as-is.
func (v *node) Quiesce() { v.inDS[v.me] = v.selfIn }

// emit queues the sends of phase ph; they are committed when the step
// yields, and ph's inbox arrives with the next step.
func (v *node) emit(ph phase) {
	switch ph {
	case phCoverage:
		if v.pendingCov {
			v.bcast(coveredMsg{}.rec(), coveredMsg{}.Bits())
			v.pendingCov = false
		}
	case phDensity:
		if v.count != v.lastDens {
			m := densityMsg{count: v.count, n: v.n}
			v.bcast(m.rec(), m.Bits())
			v.lastDens = v.count
		}
	case phMax:
		if v.hopMax != v.lastHop {
			m := maxMsg{count: v.hopMax, n: v.n}
			v.bcast(m.rec(), m.Bits())
			v.lastHop = v.hopMax
		}
	case phCand:
		v.isCand = roundUpPow2Int(v.count) >= v.m2
		if v.isCand {
			v.myR = 1 + v.ctx.Int63n(1<<62)
			// Only uncovered vertices vote; covered neighbors would
			// discard the announcement, so it is not sent to them.
			m := candMsg{r: v.myR, n: v.n}
			for i, u := range v.nbrs {
				if v.alive[i] && !v.nbrCovered[i] {
					v.ctx.SendRec(u, m.rec(), m.Bits())
				}
			}
		}
	case phVote:
		if !v.covered {
			bestV, bestR := -1, int64(0)
			if v.isCand {
				bestV, bestR = v.me, v.myR
			}
			for _, c := range v.cands {
				if bestV < 0 || c.r < bestR || (c.r == bestR && c.from < bestV) {
					bestV, bestR = c.from, c.r
				}
			}
			if bestV == v.me {
				v.votes++ // self-vote
			} else if bestV >= 0 {
				v.ctx.SendRec(bestV, voteMsg{}.rec(), voteMsg{}.Bits())
			}
		}
	case phJoin:
		if v.isCand && 8*v.votes >= v.count && v.count > 0 {
			v.selfIn = true
			v.bcast(joinMsg{}.rec(), joinMsg{}.Bits())
		}
	}
}

// process consumes the inbox of phase ph, returning true when the vertex
// detected U_v = ∅ and must halt.
func (v *node) process(ph phase, inbox []dist.InRec) bool {
	j := 0
	switch ph {
	case phCoverage:
		for i := range inbox {
			r := &inbox[i]
			if r.Tag == tagCovered {
				j = seekPos(v.nbrs, j, r.From)
				v.nbrCovered[j] = true
			}
		}
		v.recount()
		return v.count == 0
	case phDensity:
		for i := range inbox {
			r := &inbox[i]
			switch r.Tag {
			case tagDensity:
				j = seekPos(v.nbrs, j, r.From)
				v.densOf[j] = int(r.A)
			case tagBye:
				// The sender halted: density 0 forever, pruned from all
				// future broadcasts. Halting implies it was dominated.
				j = seekPos(v.nbrs, j, r.From)
				v.alive[j] = false
				v.nbrCovered[j] = true
				v.densOf[j] = 0
				v.hopOf[j] = 0
			}
		}
		v.refoldHop()
	case phMax:
		for i := range inbox {
			r := &inbox[i]
			if r.Tag == tagMax {
				j = seekPos(v.nbrs, j, r.From)
				v.hopOf[j] = int(r.A)
			}
		}
		v.refoldM2()
	case phCand:
		for i := range inbox {
			r := &inbox[i]
			if r.Tag == tagCand {
				v.cands = append(v.cands, candRank{from: r.From, r: r.A})
			}
		}
	case phVote:
		for i := range inbox {
			if inbox[i].Tag == tagVote {
				v.votes++
			}
		}
	case phJoin:
		joined := v.selfIn
		for i := range inbox {
			if inbox[i].Tag == tagJoin {
				joined = true // a dominator is adjacent (or is this vertex)
			}
		}
		if joined && !v.covered {
			v.covered = true
			v.pendingCov = true
		}
	}
	return false
}
