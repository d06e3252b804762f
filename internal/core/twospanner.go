package core

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"

	"distspanner/internal/dist"
	"distspanner/internal/graph"
)

// Options configures a run of the distributed algorithms.
type Options struct {
	// Seed drives all per-vertex randomness; runs are deterministic
	// functions of (instance, Seed).
	Seed int64
	// ExecMode is passed to dist.Config.Mode: ModeAuto (the zero value)
	// and ModeStep both run the step engine, the only scheduler, and any
	// other value is an error. It is kept for source compatibility.
	ExecMode dist.Mode
	// RoundHook, when non-nil, receives the engine's per-round activity
	// snapshots (see dist.Config.OnRound) — the activity curve of the run.
	RoundHook func(dist.RoundActivity)
	// Cancel, when non-nil, aborts the run at the next round boundary
	// once closed (see dist.Config.Cancel); timed-out sweeps use it so an
	// abandoned run actually stops.
	Cancel <-chan struct{}
	// Tracer, when non-nil, receives the run's execution narration — the
	// deterministic logical transcript and the wall-clock timing channel
	// (see dist.Config.Tracer). Zero cost when nil.
	Tracer dist.Tracer
	// Shards, when positive, runs the protocol distributed across that
	// many shard workers over an in-process transport (see
	// dist.Config.Shards). Results are bit-identical to Shards == 0.
	Shards int

	// VoteDenominator is an ablation knob for the acceptance rule: a
	// candidate star is accepted when votes >= |C_v| / VoteDenominator.
	// Zero means the paper's 8. Smaller values accept fewer stars per
	// iteration (more rounds); larger values accept stars with heavy
	// vote overlap (worse ratio constant).
	VoteDenominator int
	// FreshStars is an ablation knob disabling the Section 4.1 monotone
	// star-choice rule: every candidacy picks a fresh star. Claim 4.4's
	// potential argument — the basis of the O(log n log Δ) round bound —
	// relies on the rule; the ablation measures what it buys.
	FreshStars bool
	// NoRounding is an ablation knob skipping the power-of-two density
	// rounding: candidacy then requires being an exact local maximum.
	// Rounding is what caps the number of density levels at O(log Δ); the
	// ablation measures the cost of exact comparisons.
	NoRounding bool
}

func (o Options) voteDenominator() int {
	if o.VoteDenominator <= 0 {
		return 8
	}
	return o.VoteDenominator
}

// IterationStat is per-iteration telemetry of a run.
type IterationStat struct {
	// Candidates is the number of vertices whose rounded density was
	// maximal in their 2-neighborhood this iteration.
	Candidates int
	// Accepted is the number of candidate stars that reached the voting
	// threshold and joined the spanner.
	Accepted int
	// Terminated is the number of vertices that halted this iteration.
	Terminated int
}

// Result reports the outcome of a distributed spanner construction.
type Result struct {
	// Spanner is the union of the edges output by all vertices.
	Spanner *graph.EdgeSet
	// Cost is the spanner's total weight (edge count when unweighted).
	Cost float64
	// Stats carries the engine's round/message/bit measurements, including
	// the ActiveSteps/ParkedSteps activity profile.
	Stats dist.Stats
	// Iterations is the maximum number of algorithm iterations any vertex
	// executed (each iteration is a constant number of rounds). Parked
	// vertices skip iterations, so this counts the longest active
	// participation.
	Iterations int
	// PerIteration is the telemetry of each iteration, in order.
	PerIteration []IterationStat
	// Fallbacks counts uses of the degenerate star-choice fallback of
	// Section 4.1, which Claim 4.4 proves is never taken. It should be 0;
	// tests assert this invariant.
	Fallbacks int64
}

// telemetry collects per-iteration counters across the concurrently
// running vertices. Slices are fixed-size; iterations beyond the cap are
// executed but not recorded (far beyond any w.h.p. bound).
type telemetry struct {
	cand, accept, term []atomic.Int32
}

const telemetryCap = 4096

func newTelemetry() *telemetry {
	return &telemetry{
		cand:   make([]atomic.Int32, telemetryCap),
		accept: make([]atomic.Int32, telemetryCap),
		term:   make([]atomic.Int32, telemetryCap),
	}
}

func (t *telemetry) stats(maxIter int) []IterationStat {
	if maxIter+1 > telemetryCap {
		maxIter = telemetryCap - 1
	}
	out := make([]IterationStat, maxIter+1)
	for i := range out {
		out[i] = IterationStat{
			Candidates: int(t.cand[i].Load()),
			Accepted:   int(t.accept[i].Load()),
			Terminated: int(t.term[i].Load()),
		}
	}
	return out
}

func (t *telemetry) bump(arr []atomic.Int32, iter int) {
	if iter < telemetryCap {
		arr[iter].Add(1)
	}
}

// variant captures what differs between the undirected flavors of the
// algorithm: plain (Theorem 1.3), weighted (Theorem 4.12), and
// client-server (Theorem 4.15). The directed run (Theorem 4.9) uses the
// plain predicates.
type variant struct {
	// target reports whether edge i needs covering (client edges in the
	// client-server problem, every edge otherwise).
	target func(i int) bool
	// starEdge reports whether edge i may participate in a star (server
	// edges in the client-server problem, every edge otherwise).
	starEdge func(i int) bool
	// directAdd reports whether edge i may be added directly to the
	// spanner at termination (client ∩ server edges in the client-server
	// problem, every edge otherwise).
	directAdd func(i int) bool
	// candidateOK is the minimum raw density for candidacy.
	candidateOK func(raw float64) bool
	// terminal decides termination from the 2-hop maxima of raw density
	// and incident edge weight.
	terminal func(maxRaw, maxWeight float64) bool
}

// TwoSpanner runs the paper's distributed minimum 2-spanner algorithm
// (Section 4) on the connected undirected graph g. If g is weighted the
// weighted variant (Section 4.3.2) runs, including its zero-weight edge
// pre-pass; otherwise the unweighted algorithm of Theorem 1.3 runs.
func TwoSpanner(g *graph.Graph, opts Options) (*Result, error) {
	ru := newURun(g, twoSpannerVariant(g.Weighted()), opts)
	return ru.run(ru.program())
}

// twoSpannerVariant is the plain (Theorem 1.3) or weighted (Theorem
// 4.12) flavor of the undirected protocol.
func twoSpannerVariant(weighted bool) variant {
	all := func(int) bool { return true }
	v := variant{
		target:      all,
		starEdge:    all,
		directAdd:   all,
		candidateOK: func(raw float64) bool { return raw >= 1 },
		terminal:    func(maxRaw, _ float64) bool { return maxRaw <= 1 },
	}
	if weighted {
		v.candidateOK = func(raw float64) bool { return raw > 0 }
		v.terminal = func(maxRaw, maxWeight float64) bool {
			if maxWeight <= 0 {
				return true
			}
			return maxRaw <= 1/maxWeight
		}
	}
	return v
}

// ClientServerTwoSpanner runs the client-server variant (Section 4.3.3):
// cover every client edge using only server edges. Client edges with no
// possible server cover are left uncovered, matching the paper's
// convention; use span.CoverableClients to identify them.
func ClientServerTwoSpanner(g *graph.Graph, clients, servers *graph.EdgeSet, opts Options) (*Result, error) {
	v, err := clientServerVariant(g, clients, servers)
	if err != nil {
		return nil, err
	}
	ru := newURun(g, v, opts)
	return ru.run(ru.program())
}

// clientServerVariant validates the edge sets and builds the Section
// 4.3.3 flavor of the undirected protocol.
func clientServerVariant(g *graph.Graph, clients, servers *graph.EdgeSet) (variant, error) {
	if clients == nil || servers == nil {
		return variant{}, errors.New("core: client-server variant requires client and server edge sets")
	}
	if clients.Universe() != g.M() || servers.Universe() != g.M() {
		return variant{}, fmt.Errorf("core: edge set universes must equal M()=%d", g.M())
	}
	if g.Weighted() {
		return variant{}, errors.New("core: client-server variant is unweighted in the paper")
	}
	return variant{
		target:      clients.Has,
		starEdge:    servers.Has,
		directAdd:   func(i int) bool { return clients.Has(i) && servers.Has(i) },
		candidateOK: func(raw float64) bool { return raw >= 0.5 },
		terminal:    func(maxRaw, _ float64) bool { return maxRaw < 0.5 },
	}, nil
}

// DirectedTwoSpanner runs the directed 2-spanner algorithm of Theorem 4.9
// on the digraph d. The communication topology is d's underlying
// undirected graph.
func DirectedTwoSpanner(d *graph.Digraph, opts Options) (*Result, error) {
	ru := newDirectedRun(d, opts)
	return ru.run(ru.program())
}

// uRun is the per-run state of one 2-spanner run, built once and shared
// by pointer with every vertex: the graph, variant and options the
// machines read, and the cross-vertex collectors they write — the
// per-vertex outputs and iteration counts (each slot written only by its
// own vertex), the Claim 4.4 fallback counter and the iteration telemetry
// (both atomic). It is the state behind both the local runners and the
// exported shard programs (the distributed runner reads outputs through
// uRun.output).
type uRun struct {
	g    *graph.Graph
	d    *graph.Digraph // a directed run's digraph, whose underlying graph is g; nil otherwise
	v    variant
	opts Options
	// The tags of the span and uncovered-list records: a directed run
	// keeps its own, tagDirSpan and tagDirUncov.
	spanTag, uncovTag uint8
	outs              [][]int // per-vertex incident spanner edge indices
	iters             []int   // per-vertex iteration counts
	fallbacks         atomic.Int64
	tele              *telemetry
}

func newURun(g *graph.Graph, v variant, opts Options) *uRun {
	n := g.N()
	return &uRun{g: g, v: v, opts: opts, spanTag: tagSpan, uncovTag: tagUncov,
		outs: make([][]int, n), iters: make([]int, n), tele: newTelemetry()}
}

// newDirectedRun is the run of the directed variant on d: the plain
// variant's machine on d's underlying graph, with the directed star,
// density and records (Section 4.3.1).
func newDirectedRun(d *graph.Digraph, opts Options) *uRun {
	under, _ := d.Underlying()
	r := newURun(under, twoSpannerVariant(false), opts)
	r.d, r.spanTag, r.uncovTag = d, tagDirSpan, tagDirUncov
	return r
}

// factory builds the per-vertex machines of the protocol. In
// the sharded runner several workers call it concurrently; it only reads
// the run.
func (r *uRun) factory() func(*dist.Ctx) dist.Machine {
	return func(ctx *dist.Ctx) dist.Machine {
		return dist.NewPhasedMachine(newUndirectedNode(ctx, r))
	}
}

func (r *uRun) output(v int) []int { return r.outs[v] }

// result folds the per-vertex collectors into a Result; a directed run's
// edge indices and cost are d's.
func (r *uRun) result(stats *dist.Stats) *Result {
	m, total := r.g.M(), r.g.TotalWeight
	if r.d != nil {
		m, total = r.d.M(), r.d.TotalWeight
	}
	spanner := graph.NewEdgeSet(m)
	for _, edges := range r.outs {
		for _, e := range edges {
			spanner.Add(e)
		}
	}
	maxIter := 0
	for _, it := range r.iters {
		if it > maxIter {
			maxIter = it
		}
	}
	return &Result{
		Spanner:      spanner,
		Cost:         total(spanner),
		Stats:        *stats,
		Iterations:   maxIter,
		PerIteration: r.tele.stats(maxIter),
		Fallbacks:    r.fallbacks.Load(),
	}
}

// run executes prog, a program of r's machines, on the in-process
// engine (or its shards) and folds r's collectors into the Result.
func (r *uRun) run(prog dist.ShardProgram) (*Result, error) {
	o := r.opts
	stats, err := dist.RunLocal(prog, dist.Config{
		Seed: o.Seed, Mode: o.ExecMode, OnRound: o.RoundHook,
		Cancel: o.Cancel, Tracer: o.Tracer, Shards: o.Shards,
	})
	if err != nil {
		return nil, err
	}
	return r.result(stats), nil
}

// roundCtx is the per-vertex network surface the protocol needs: vertex
// identity, the candidacy's random draw, and the record send primitive.
// It is satisfied by *dist.Ctx (the LOCAL implementation) and by
// *congestCtx (the fragmenting CONGEST adapter of Section 1.3's
// discussion). The protocols only draw and send on it — they are
// PhasedPrograms whose round boundaries the engine drives, and their
// inboxes arrive as StepIn.
type roundCtx interface {
	ID() int
	N() int
	Neighbors() []int
	Int63n(n int64) int64
	SendRec(to int, r dist.Rec, bits int)
}

// uPhase indexes the seven rounds of one iteration of the protocol. Each
// phase has disjoint record tags, which is how a vertex woken from
// parking re-identifies the network's current phase.
type uPhase int

const (
	phSpan   uPhase = iota + 1 // round 1 (G'): spanListMsg deltas
	phUncov                    // round 2 (A): uncovMsg init/removals
	phDens                     // round 3 (B): densMsg deltas
	phMax                      // round 4 (C): maxMsg deltas
	phStar                     // round 5 (D): starMsg / termMsg (dirStarMsg / dirTermMsg)
	phVote                     // round 6 (E): voteMsg (candidates only)
	phAccept                   // round 7 (F): acceptMsg (dirStarMsg with r == -1)
)

// classify maps a wake inbox to its phase by record tag. One inbox is
// always one phase: every sender is phase-aligned and each phase's tags
// are disjoint. tagDirStar serves two phases and is told apart by its
// rank: candidates announce with r >= 1, acceptances carry r == -1.
func classify(msgs []dist.InRec) uPhase {
	switch msgs[0].Tag {
	case tagSpan, tagDirSpan:
		return phSpan
	case tagUncov, tagDirUncov:
		return phUncov
	case tagDens:
		return phDens
	case tagMax:
		return phMax
	case tagStar, tagTerm, tagDirTerm:
		return phStar
	case tagDirStar:
		if msgs[0].A == -1 {
			return phAccept
		}
		return phStar
	case tagVote:
		return phVote
	case tagAccept:
		return phAccept
	}
	panic("core: unclassifiable wake record tag")
}

// seekPos is dist.SeekPos: the monotone sender-position merge scan over
// the sorted neighbor list that replaces per-message map lookups.
func seekPos(nbrs []int, j, from int) int { return dist.SeekPos(nbrs, j, from) }

// posOf is the cold-path id -> position lookup (binary search) for ids
// that must be neighbors; it panics on a miss rather than silently
// resolving to the insertion slot.
func posOf(nbrs []int, id int) int {
	i := sort.SearchInts(nbrs, id)
	if i == len(nbrs) || nbrs[i] != id {
		panic("core: id is not a neighbor")
	}
	return i
}

// containsSorted reports whether the sorted slice s contains x.
func containsSorted(s []int, x int) bool {
	i := sort.SearchInts(s, x)
	return i < len(s) && s[i] == x
}

// appendPositions appends to dst the positions, from q on, of the sorted
// neighbor list nbrs whose ids the sorted list ids names: one merge scan.
// Ids that are not neighbors there are skipped.
func appendPositions(dst []int32, nbrs []int, q int, ids []int) []int32 {
	for _, w := range ids {
		for q < len(nbrs) && nbrs[q] < w {
			q++
		}
		if q == len(nbrs) {
			break
		}
		if nbrs[q] == w {
			dst = append(dst, int32(q))
			q++
		}
	}
	return dst
}

// densVal is a neighbor's last announced density or 1-hop maximum: the
// exact rational the CONGEST adapter ships, plus the weight maximum
// riding along for the weighted termination rule (the static incident
// maximum in density announcements, the 1-hop fold in maxima).
type densVal struct {
	raw      float64
	num, den int
	wmax     float64
}

// candRec is one announced star this iteration that holds the receiving
// vertex: the candidate's id, its random rank, and the vote pairs this
// vertex casts for it. The star itself is not kept: decoding it marks the
// edges it 2-spans (nbrState.mark).
type candRec struct {
	from  int
	r     int64
	votes []int
}

// nbrState is a vertex's state for one neighbor, kept at the neighbor's
// position in the sorted neighbor list. A live neighbor's entry always
// equals what the classic all-broadcast execution would have received
// from it this iteration, kept in sync by deltas.
type nbrState struct {
	dens densVal // its last announced density
	// Its last announced 1-hop maximum: the 2-hop fold reads only the
	// density and the weight maximum of a maxMsg.
	hopRaw, hopWmax float64
	// spanOf holds its announced spanner edges that end at my neighbors:
	// the far endpoints' positions in my neighbor list, in arrival order.
	// Coverage asks about no other endpoint.
	spanOf   []int32
	uncovRow // what H_v keeps of its uncovered edges
	// edgeIdx is the index of the incident edge to it. An int32 holds
	// it: 2^31 edges would need 2^32 of these 120-byte entries.
	edgeIdx int32
	// mark is 1 + the index in cands of the first candidate, by (r, id),
	// whose star 2-spans the incident edge, or 0. The star inbox sets it
	// on the edges this vertex votes with, and the vote phase of the same
	// step reads and clears it.
	mark int32

	covered   bool // the incident edge is covered
	inSpan    bool // the incident edge is in the spanner
	alive     bool // it has not announced termination
	densKnown bool // dens holds an announcement
	hopKnown  bool // hopRaw and hopWmax hold an announcement
	// announcedUncov: the incident edge was announced uncovered, so a
	// removal is owed once it is covered.
	announcedUncov bool
	// arcs is zero in an undirected run. In a directed run it holds the
	// arcs to the neighbor (dirOut: me -> it, dirIn: it -> me) and the
	// in-arc's state (inCovered, inSpanned); the edge fields above then
	// describe the out-arc, and an absent out-arc is covered.
	arcs uint8
}

// The in-arc's state bits of nbrState.arcs, beside dirOut and dirIn.
const (
	inCovered = 4 << iota // the in-arc is covered
	inSpanned             // the in-arc is in the spanner
)

// undirectedNode is the per-vertex state of the protocol, for every
// variant: undirected, weighted, client-server, CONGEST and directed. The
// per-run state is shared through run; the per-neighbor state is one
// slice indexed by the neighbor's position in the sorted neighbor list:
// inbox decoding resolves sender positions with a merge scan (seekPos),
// and the folds and broadcasts scan it with no map in sight. A directed
// run differs in a few branches on run.d: the vote owner, the star,
// acceptance and termination records, the in-arc half of coverage, and
// the view with footnote 7's running minimum.
type undirectedNode struct {
	ctx roundCtx
	run *uRun

	me     int
	nbrs   []int      // sorted neighbor ids
	nb     []nbrState // per neighbor position
	myWmax float64

	// Monotone star-choice state (Section 4.1).
	lastRho  float64
	prevStar []int // neighbor ids of last chosen star (selectable + free)

	// Own derived quantities and the change-tracking behind the deltas.
	pendingSpan    []int // inSpan additions not yet announced (round 1)
	view           *localView
	raw            float64
	num, den       int
	rho            float64
	lastDens       densVal
	hopRaw         float64
	hopNum, hopDen int
	hopW           float64
	lastHop        densVal
	m2Raw, m2Rho   float64
	m2W            float64

	// Per-iteration scratch.
	iter        int
	myStar      []int
	mySpanCount int
	cands       []candRec
	myVotes     int

	// Flags, kept together so they pack into one word.
	wasCand       bool // monotone star choice: a candidate last iteration
	sentUncovInit bool
	viewDirty     bool // an uncovered row changed since the view was built
	hopDirty      bool // own density, a neighbor density, or liveness changed
	m2Dirty       bool // own 1-hop max, a neighbor 1-hop max, or liveness changed
	densSent      bool
	hopSent       bool
	isCand        bool
}

func newUndirectedNode(ctx roundCtx, run *uRun) *undirectedNode {
	me := ctx.ID()
	nd := &undirectedNode{
		ctx:       ctx,
		run:       run,
		me:        me,
		nbrs:      ctx.Neighbors(),
		viewDirty: true,
		hopDirty:  true,
		m2Dirty:   true,
	}
	g, v := run.g, run.v
	nd.nb = make([]nbrState, len(nd.nbrs))
	for i, u := range nd.nbrs {
		idx, ok := g.EdgeIndex(me, u)
		if !ok {
			panic("core: neighbor without edge")
		}
		nb := &nd.nb[i]
		nb.edgeIdx = int32(idx)
		nb.alive = true
		if !v.target(idx) {
			// Non-target edges never need covering.
			nb.covered = true
		}
		if g.Weighted() && g.Weight(idx) == 0 && v.starEdge(idx) {
			// Weighted pre-pass: all zero-weight edges join the spanner.
			nd.setInSpan(i)
		}
		nd.myWmax = maxf(nd.myWmax, g.Weight(idx))
	}
	if run.d != nil {
		nd.orient()
	}
	return nd
}

// orient sets a directed run's arc bits and turns the edge fields into
// out-arc fields: an absent out-arc starts covered, as a non-target edge
// does.
func (nd *undirectedNode) orient() {
	for i := range nd.nb {
		nd.nb[i].covered = true
	}
	for _, a := range nd.run.d.Out(nd.me) {
		nb := &nd.nb[posOf(nd.nbrs, a.To)]
		nb.edgeIdx, nb.covered, nb.arcs = int32(a.Edge), false, dirOut
	}
	for _, a := range nd.run.d.In(nd.me) {
		nd.nb[posOf(nd.nbrs, a.To)].arcs |= dirIn
	}
}

// setInSpan records the edge to the neighbor at position i as a spanner
// member and queues the round-1 delta announcing it.
func (nd *undirectedNode) setInSpan(i int) {
	if !nd.nb[i].inSpan {
		nd.nb[i].inSpan = true
		nd.pendingSpan = append(nd.pendingSpan, nd.nbrs[i])
	}
}

// bcast sends the record to every live neighbor: terminated vertices are
// pruned from all broadcasts. The record's Ints tail is staged once in
// the sender's arena and shared across the fan-out.
func (nd *undirectedNode) bcast(r dist.Rec, bits int) {
	for i, u := range nd.nbrs {
		if nd.nb[i].alive {
			nd.ctx.SendRec(u, r, bits)
		}
	}
}

// parkable reports whether this vertex owes the network nothing in the
// coming iteration: no pending deltas, every fold clean, and no
// candidacy. Such a vertex parks; any input that could change its
// answers arrives as a delivery and wakes it into the right phase.
func (nd *undirectedNode) parkable() bool {
	if len(nd.pendingSpan) > 0 || nd.viewDirty || nd.hopDirty || nd.m2Dirty {
		return false
	}
	for i := range nd.nb {
		if nd.nb[i].announcedUncov && nd.nb[i].covered {
			return false // owes an uncovered-list removal
		}
	}
	// Candidacy is a pure function of the clean folds.
	return !(nd.rho > 0 && nd.rho >= nd.m2Rho && nd.run.v.candidateOK(nd.raw))
}

// The node implements dist.PhasedProgram: the engine (via
// dist.NewPhasedMachine) drives the iteration grid — parking between
// iterations when parkable, classifying wake inboxes into the right
// phase, and spending the terminal flush round — while the node supplies
// only the per-phase emit/process logic.

// Phases implements dist.PhasedProgram.
func (nd *undirectedNode) Phases() (int, int) { return int(phSpan), int(phAccept) }

// Begin implements dist.PhasedProgram: record and bump the iteration
// count, reset the per-iteration scratch.
func (nd *undirectedNode) Begin() {
	nd.run.iters[nd.me] = nd.iter
	nd.iter++
	nd.isCand = false
	nd.myStar = nil
	nd.mySpanCount = 0
	nd.cands = nd.cands[:0]
	nd.myVotes = 0
}

// Emit implements dist.PhasedProgram.
func (nd *undirectedNode) Emit(ph int) bool { return nd.emit(uPhase(ph)) }

// Process implements dist.PhasedProgram. The undirected protocol halts
// via the terminal announcement in emit, never mid-iteration.
func (nd *undirectedNode) Process(ph int, recs []dist.InRec) bool {
	nd.process(uPhase(ph), recs)
	return false
}

// Parkable implements dist.PhasedProgram.
func (nd *undirectedNode) Parkable() bool { return nd.parkable() }

// ParkReset implements dist.PhasedProgram: parked iterations are not
// candidate iterations, so the monotone-star continuation resets exactly
// as it would have in the spinning execution.
func (nd *undirectedNode) ParkReset() { nd.wasCand, nd.prevStar = false, nil }

// Classify implements dist.PhasedProgram.
func (nd *undirectedNode) Classify(recs []dist.InRec) int { return int(classify(recs)) }

// Halt implements dist.PhasedProgram; unreachable (Process never halts).
func (nd *undirectedNode) Halt() {}

// Terminal implements dist.PhasedProgram: output after the flush round
// that committed the termination announcement.
func (nd *undirectedNode) Terminal() { nd.emitOutput() }

// Quiesce implements dist.PhasedProgram.
func (nd *undirectedNode) Quiesce() { nd.finalizeQuiesced() }

// finalizeQuiesced handles the quiescence release (StepIn.Quiesced): no
// future round can cover anything, so the remaining uncovered incident
// target edges are added directly — the same direct-add the paper's
// termination step performs — and the vertex outputs and halts. With the
// paper's termination rule this is a safety net: a parked vertex's
// 2-neighborhood always contains an active candidate until the vertex
// itself becomes terminal, so runs normally end by explicit termination.
func (nd *undirectedNode) finalizeQuiesced() {
	nd.addUncovered()
	it := nd.iter
	if it > 0 {
		it--
	}
	nd.run.tele.bump(nd.run.tele.term, it)
	nd.emitOutput()
}

// emit queues the sends of phase ph (committed by the yield that returns
// ph's inbox) and performs the fold recomputations scheduled at ph. It
// returns true when the vertex terminated (phStar only).
func (nd *undirectedNode) emit(ph uPhase) bool {
	run := nd.run
	switch ph {
	case phSpan:
		if len(nd.pendingSpan) > 0 {
			sort.Ints(nd.pendingSpan)
			m := spanListMsg{nbrs: nd.pendingSpan, n: nd.ctx.N()}
			nd.bcast(m.rec(run.spanTag), m.Bits())
			nd.pendingSpan = nil
		}
	case phUncov:
		nd.emitUncov()
	case phDens:
		if nd.viewDirty {
			nd.rebuildView()
		}
		dv := densVal{raw: nd.raw, num: nd.num, den: nd.den, wmax: nd.myWmax}
		if !nd.densSent || dv != nd.lastDens {
			m := densMsg{rho: nd.rho, raw: nd.raw, wmax: nd.myWmax, num: nd.num, den: nd.den}
			nd.bcast(m.rec(), m.Bits())
			nd.densSent, nd.lastDens = true, dv
		}
	case phMax:
		if nd.hopDirty {
			nd.refoldHop()
		}
		hv := densVal{raw: nd.hopRaw, num: nd.hopNum, den: nd.hopDen, wmax: nd.hopW}
		if !nd.hopSent || hv != nd.lastHop {
			m := maxMsg{rho: RoundUpPow2(nd.hopRaw), raw: nd.hopRaw, wmax: nd.hopW, num: nd.hopNum, den: nd.hopDen}
			nd.bcast(m.rec(), m.Bits())
			nd.hopSent, nd.lastHop = true, hv
		}
	case phStar:
		if nd.m2Dirty {
			nd.refoldM2()
		}
		// Termination (paper step 7): the maximal density in the
		// 2-neighborhood fell below the useful threshold. Add the
		// remaining uncovered incident edges directly and halt; the
		// termMsg doubles as the death notice that prunes this vertex
		// from its peers' broadcasts.
		if run.v.terminal(nd.m2Raw, nd.m2W) {
			run.tele.bump(run.tele.term, nd.iter-1)
			added := nd.addUncovered()
			// The phased machine spends the flush round committing this
			// announcement, then calls Terminal to output.
			if run.d != nil {
				m := dirTermMsg{pairs: added, n: nd.ctx.N()}
				nd.bcast(m.rec(), m.Bits())
			} else {
				m := termMsg{added: added, n: nd.ctx.N()}
				nd.bcast(m.rec(), m.Bits())
			}
			return true
		}
		// Candidacy and star choice (Section 4.1).
		nd.isCand = nd.rho > 0 && nd.rho >= nd.m2Rho && run.v.candidateOK(nd.raw)
		if nd.isCand {
			run.tele.bump(run.tele.cand, nd.iter-1)
			var prev []bool
			if !run.opts.FreshStars && nd.wasCand && nd.lastRho == nd.rho && nd.prevStar != nil {
				prev = nd.view.maskFromIDs(nd.prevStar)
			}
			sel, fb := nd.view.chooseStar(nd.rho, prev)
			if fb {
				run.fallbacks.Add(1)
			}
			nd.myStar = nd.view.starNeighborIDs(sel)
			spanned, _ := nd.view.starValue(sel)
			nd.mySpanCount = int(spanned + 0.5)
			nd.bcast(nd.starRec(1 + nd.ctx.Int63n(1<<62)))
			nd.wasCand, nd.lastRho = true, nd.rho
			nd.prevStar = nd.myStar
		} else {
			nd.wasCand = false
			nd.prevStar = nil
		}
	case phVote:
		// Each owned uncovered edge votes for the first candidate (by
		// (r, id)) that 2-spans it: the one the star inbox marked there.
		// A termination later in that inbox may have covered the edge.
		if len(nd.cands) == 0 {
			break
		}
		for i := range nd.nb {
			nb := &nd.nb[i]
			if nb.mark == 0 {
				continue
			}
			c := &nd.cands[nb.mark-1]
			nb.mark = 0
			if !nb.covered {
				c.votes = append(c.votes, nd.me, nd.nbrs[i])
			}
		}
		// One record per voted-for candidate, in cands order: the phase-D
		// inbox's ascending sender order.
		for ci := range nd.cands {
			if c := &nd.cands[ci]; len(c.votes) > 0 {
				m := voteMsg{pairs: c.votes, n: nd.ctx.N()}
				nd.ctx.SendRec(c.from, m.rec(), m.Bits())
			}
		}
	case phAccept:
		if nd.isCand && run.opts.voteDenominator()*nd.myVotes >= nd.mySpanCount && nd.mySpanCount > 0 {
			run.tele.bump(run.tele.accept, nd.iter-1)
			for _, u := range nd.myStar {
				nd.addStarEdge(posOf(nd.nbrs, u))
			}
			nd.bcast(nd.starRec(-1))
		}
	}
	return false
}

// starRec encodes the announcement of myStar with rank r, or with r = -1
// its acceptance: a starMsg or acceptMsg, or in a directed run a
// dirStarMsg whose entries pack each member's arcs to me.
func (nd *undirectedNode) starRec(r int64) (dist.Rec, int) {
	n := nd.ctx.N()
	switch {
	case nd.run.d != nil:
		entries := make([]int, len(nd.myStar))
		j := 0
		for k, u := range nd.myStar {
			j = seekPos(nd.nbrs, j, u)
			entries[k] = u<<2 | int(nd.nb[j].arcs&(dirIn|dirOut))
		}
		m := dirStarMsg{entries: entries, r: r, n: n}
		return m.rec(), m.Bits()
	case r < 0:
		m := acceptMsg{star: nd.myStar, n: n}
		return m.rec(), m.Bits()
	}
	m := starMsg{star: nd.myStar, r: r, n: n}
	return m.rec(), m.Bits()
}

// addStarEdge puts the star edge to nbrs[i] into the spanner; in a
// directed run, each arc between us.
func (nd *undirectedNode) addStarEdge(i int) {
	nb := &nd.nb[i]
	if nb.arcs&dirIn != 0 {
		nb.arcs |= inSpanned
	}
	if nd.run.d == nil || nb.arcs&dirOut != 0 {
		nd.setInSpan(i)
	}
}

// myEntry returns the direction bits of this vertex's entry in a directed
// star's packed entries, 0 when the star does not name it.
func (nd *undirectedNode) myEntry(entries []int) int {
	k := sort.Search(len(entries), func(k int) bool { return entries[k]>>2 >= nd.me })
	if k < len(entries) && entries[k]>>2 == nd.me {
		return entries[k] & (dirIn | dirOut)
	}
	return 0
}

// reserveCands sizes cands, empty at the star inbox, for every star
// record in the inbox: at most that many candidates join it.
func (nd *undirectedNode) reserveCands(inbox []dist.InRec) {
	stars := 0
	for i := range inbox {
		if t := inbox[i].Tag; t == tagStar || t == tagDirStar {
			stars++
		}
	}
	if cap(nd.cands) < stars {
		nd.cands = make([]candRec, 0, stars)
	}
}

// addCand appends the candidate of the kept star record r to cands and
// returns its index.
func (nd *undirectedNode) addCand(r *dist.InRec) int {
	nd.cands = append(nd.cands, candRec{from: r.From, r: r.A})
	return len(nd.cands) - 1
}

// markEdge marks the edge to u, a member of the star of cands[c], when
// this vertex votes with it, and returns where the seek for the star's
// next, larger member resumes: u is found by a monotone seek from
// position q of the sorted neighbor list, so at len(nbrs) no later
// member can match. The caller passes only members whose edge it would
// own. An uncovered one keeps the mark of whichever candidate ranks
// first; a directed run's absent out-arc counts as covered.
func (nd *undirectedNode) markEdge(q, u, c int) int {
	if q < len(nd.nbrs) && nd.nbrs[q] < u {
		q++
		if q < len(nd.nbrs) && nd.nbrs[q] < u {
			q += sort.SearchInts(nd.nbrs[q:], u)
		}
	}
	if q == len(nd.nbrs) || nd.nbrs[q] != u {
		return q
	}
	if nb := &nd.nb[q]; !nb.covered && (nb.mark == 0 || nd.cands[c].before(&nd.cands[nb.mark-1])) {
		nb.mark = int32(c + 1)
	}
	return q + 1
}

// before reports whether c ranks before o in the vote: by rank, then id.
func (c *candRec) before(o *candRec) bool {
	return c.r < o.r || (c.r == o.r && c.from < o.from)
}

// addUncovered adds the uncovered incident target edges to the spanner —
// the direct add of the paper's termination step — and returns what the
// termination record lists: the far endpoints, or in a directed run the
// (tail, head) pairs of the added arcs.
func (nd *undirectedNode) addUncovered() []int {
	var added []int
	for i, u := range nd.nbrs {
		nb := &nd.nb[i]
		if !nb.covered && nd.run.v.directAdd(int(nb.edgeIdx)) {
			nb.inSpan = true
			nb.covered = true
			if nd.run.d != nil {
				added = append(added, nd.me)
			}
			added = append(added, u)
		}
		if nb.arcs&(dirIn|inCovered) == dirIn {
			nb.arcs |= inCovered | inSpanned
			added = append(added, u, nd.me)
		}
	}
	return added
}

// emitUncov announces the uncovered incident target edges: the full list
// once at start-up, removals afterwards. Receivers maintain the
// accumulated set, so the network-wide picture matches the classic
// full-rebroadcast execution exactly.
func (nd *undirectedNode) emitUncov() {
	if !nd.sentUncovInit {
		nd.sentUncovInit = true
		full := make([]int, 0, len(nd.nbrs))
		for i, u := range nd.nbrs {
			if !nd.nb[i].covered {
				full = append(full, u)
				nd.nb[i].announcedUncov = true
			}
		}
		m := uncovMsg{nbrs: full, full: true, n: nd.ctx.N()}
		nd.bcast(m.rec(nd.run.uncovTag), m.Bits())
		return
	}
	var dels []int
	for i, u := range nd.nbrs {
		if nb := &nd.nb[i]; nb.announcedUncov && nb.covered {
			dels = append(dels, u)
			nb.announcedUncov = false
		}
	}
	if len(dels) == 0 {
		return
	}
	m := uncovMsg{nbrs: dels, n: nd.ctx.N()}
	nd.bcast(m.rec(nd.run.uncovTag), m.Bits())
}

// process decodes the records of phase ph in place: sender positions come
// from the seekPos merge scan, scalar fields are read straight off the
// record, and list tails are folded into the per-neighbor state.
func (nd *undirectedNode) process(ph uPhase, inbox []dist.InRec) {
	j := 0
	switch ph {
	case phSpan:
		for i := range inbox {
			r := &inbox[i]
			if r.Tag != nd.run.spanTag {
				continue
			}
			j = seekPos(nd.nbrs, j, r.From)
			if nb := &nd.nb[j]; nb.alive {
				nb.spanOf = appendPositions(nb.spanOf, nd.nbrs, 0, r.Ints)
			}
		}
		nd.updateCoverage()
	case phUncov:
		for i := range inbox {
			r := &inbox[i]
			if r.Tag != nd.run.uncovTag {
				continue
			}
			j = seekPos(nd.nbrs, j, r.From)
			nb := &nd.nb[j]
			if !nb.alive {
				continue
			}
			if r.Flag != 0 {
				lo := j + 1
				if nd.run.d != nil {
					lo = 0 // a directed H_v arc may point below its tail
				}
				nb.announce(nd.nbrs, lo, r.Ints)
			} else {
				nb.remove(nd.nbrs, r.Ints)
			}
			nd.viewDirty = true
		}
	case phDens:
		for i := range inbox {
			r := &inbox[i]
			if r.Tag != tagDens {
				continue
			}
			j = seekPos(nd.nbrs, j, r.From)
			if nb := &nd.nb[j]; nb.alive {
				nb.dens = densVal{raw: r.F1, num: int(r.A), den: int(r.B), wmax: r.F2}
				nb.densKnown = true
				nd.hopDirty = true
			}
		}
	case phMax:
		for i := range inbox {
			r := &inbox[i]
			if r.Tag != tagMax {
				continue
			}
			j = seekPos(nd.nbrs, j, r.From)
			if nb := &nd.nb[j]; nb.alive {
				nb.hopRaw, nb.hopWmax = r.F1, r.F2
				nb.hopKnown = true
				nd.m2Dirty = true
			}
		}
	case phStar:
		nd.reserveCands(inbox)
		for i := range inbox {
			r := &inbox[i]
			j = seekPos(nd.nbrs, j, r.From)
			switch r.Tag {
			case tagTerm, tagDirTerm:
				nd.processDeath(j, r)
			case tagStar:
				// Only a star holding me can 2-span an edge I vote for: the
				// edges to its members above me, the ones I own.
				k, ok := slices.BinarySearch(r.Ints, nd.me)
				if !ok {
					continue
				}
				c := nd.addCand(r)
				q := 0
				for _, u := range r.Ints[k+1:] {
					if q = nd.markEdge(q, u, c); q == len(nd.nbrs) {
						break
					}
				}
			case tagDirStar:
				// Only a star holding the arc me -> candidate can 2-span an
				// arc me -> w I vote for, through its out-arc to w.
				if nd.myEntry(r.Ints)&dirIn == 0 {
					continue
				}
				c := nd.addCand(r)
				q := 0
				for _, e := range r.Ints {
					if e&dirOut == 0 {
						continue
					}
					if q = nd.markEdge(q, e>>2, c); q == len(nd.nbrs) {
						break
					}
				}
			}
		}
	case phVote:
		for i := range inbox {
			r := &inbox[i]
			if r.Tag == tagVote {
				nd.myVotes += len(r.Ints) / 2
			}
		}
	case phAccept:
		// An accepted star naming me adds the star edge to its center; a
		// directed entry lists exactly the arcs between us.
		for i := range inbox {
			r := &inbox[i]
			j = seekPos(nd.nbrs, j, r.From)
			if (r.Tag == tagAccept && containsSorted(r.Ints, nd.me)) || (r.Tag == tagDirStar && nd.myEntry(r.Ints) != 0) {
				nd.addStarEdge(j)
			}
		}
	}
}

// processDeath handles the termination announcement r of the neighbor at
// position i: record the direct-added edges naming this vertex (in a
// directed run, (tail, head) pairs), then prune the sender from every
// accumulated fold — exactly the information the classic execution loses
// when a terminated vertex stops broadcasting. The view changes exactly
// when the sender's announced uncovered list was non-empty, whether or
// not H_v kept any of it.
func (nd *undirectedNode) processDeath(i int, r *dist.InRec) {
	nb := &nd.nb[i]
	if r.Tag == tagDirTerm {
		for k := 0; k+1 < len(r.Ints); k += 2 {
			if r.Ints[k] == nd.me { // me -> sender
				nd.setInSpan(i)
				nb.covered = true
			}
			if r.Ints[k+1] == nd.me { // sender -> me
				nb.arcs |= inSpanned | inCovered
			}
		}
	} else if containsSorted(r.Ints, nd.me) {
		nd.setInSpan(i)
		nb.covered = true
	}
	nb.alive = false
	nb.densKnown = false
	nb.hopKnown = false
	nb.spanOf = nil
	if nb.uncovLen > 0 {
		nd.viewDirty = true
	}
	nb.uncovRow = uncovRow{}
	nd.hopDirty = true
	nd.m2Dirty = true
}

// updateCoverage marks incident target edges covered when the spanner
// contains them or a 2-path around them through a live neighbor's
// announced spanner edges: each live neighbor whose edge is in the
// spanner covers the edges to the positions its list names, until no
// incident edge is open. In a directed run these are the out-arcs
// me -> u, bridged by me -> x -> u; the in-arcs u -> me follow, bridged by
// u -> x (from u's announced out-arcs) and x -> me (my in-arc state).
func (nd *undirectedNode) updateCoverage() {
	open := 0
	for i := range nd.nb {
		nb := &nd.nb[i]
		if nb.inSpan {
			nb.covered = true
		}
		if !nb.covered {
			open++
		}
	}
	for x := 0; x < len(nd.nb) && open > 0; x++ {
		if w := &nd.nb[x]; w.inSpan && w.alive {
			for _, p := range w.spanOf {
				if nb := &nd.nb[p]; !nb.covered {
					nb.covered = true
					open--
				}
			}
		}
	}
	if nd.run.d == nil {
		return
	}
	for i := range nd.nb {
		nb := &nd.nb[i]
		if nb.arcs&(dirIn|inCovered) != dirIn {
			continue
		}
		if nb.arcs&inSpanned != 0 {
			nb.arcs |= inCovered
			continue
		}
		for _, p := range nb.spanOf {
			if nd.nb[p].arcs&inSpanned != 0 {
				nb.arcs |= inCovered
				break
			}
		}
	}
}

// rebuildView reassembles the localView from the H_v rows and recomputes
// the densest-star density (the expensive flow-oracle step — now run only
// when an input actually changed). It reads the solved star in place. A
// profitless H_v builds no view and runs no oracle (see newLocalView):
// the vertex gets noView and the value of the oracle's answer there, its
// first selectable neighbor alone, spanning nothing at cost c0.
func (nd *undirectedNode) rebuildView() {
	nd.viewDirty = false
	first := nd.view == nil
	var view *localView
	var c0 float64
	if nd.run.d != nil {
		view, c0 = nd.directedView()
	} else {
		view, c0 = newLocalView(nd.nbrs, nd.starCost, nd.above, false)
	}
	s, c := 0.0, c0
	if view == nil {
		view = noView
	} else {
		sel, _ := view.solved()
		s, c = view.starValue(sel)
	}
	nd.view = view
	raw, num, den := 0.0, 0, 1
	if c > 0 {
		// The canonical raw density is this division; in the unweighted
		// case (s, c) are exact integers, which the CONGEST adapter ships
		// verbatim so every vertex computes bit-identical values.
		raw = s / c
		num, den = int(s+0.5), int(c+0.5)
	}
	if nd.run.d != nil {
		// Footnote 7: the 2-approximate density may rise again, so a
		// directed run keeps its running minimum, and the rounded density
		// never increases. It ships no rational.
		if !first && nd.raw < raw {
			raw = nd.raw
		}
		num, den = 0, 0
	}
	if raw != nd.raw || num != nd.num || den != nd.den {
		nd.hopDirty = true
	}
	nd.raw, nd.num, nd.den = raw, num, den
	nd.rho = RoundUpPow2(raw)
	if nd.run.opts.NoRounding {
		nd.rho = raw
	}
}

// refoldHop recomputes the 1-hop maxima (own values first, then live
// neighbors in id order — the fold the classic execution performs on its
// round-3 inbox).
func (nd *undirectedNode) refoldHop() {
	nd.hopDirty = false
	oldHop := densVal{raw: nd.hopRaw, num: nd.hopNum, den: nd.hopDen, wmax: nd.hopW}
	nd.hopRaw, nd.hopNum, nd.hopDen = nd.raw, nd.num, nd.den
	nd.hopW = nd.myWmax
	for i := range nd.nb {
		nb := &nd.nb[i]
		if !nb.alive || !nb.densKnown {
			continue
		}
		d := nb.dens
		if d.raw > nd.hopRaw {
			nd.hopRaw, nd.hopNum, nd.hopDen = d.raw, d.num, d.den
		}
		nd.hopW = maxf(nd.hopW, d.wmax)
	}
	if (densVal{raw: nd.hopRaw, num: nd.hopNum, den: nd.hopDen, wmax: nd.hopW}) != oldHop {
		nd.m2Dirty = true
	}
}

// refoldM2 recomputes the 2-hop maxima from the accumulated 1-hop maxima.
func (nd *undirectedNode) refoldM2() {
	nd.m2Dirty = false
	nd.m2Raw, nd.m2W = nd.hopRaw, nd.hopW
	for i := range nd.nb {
		nb := &nd.nb[i]
		if !nb.alive || !nb.hopKnown {
			continue
		}
		nd.m2Raw = maxf(nd.m2Raw, nb.hopRaw)
		nd.m2W = maxf(nd.m2W, nb.hopWmax)
	}
	nd.m2Rho = RoundUpPow2(nd.m2Raw)
	if nd.run.opts.NoRounding {
		nd.m2Rho = nd.m2Raw
	}
}

// starCost is the view's cost of the star edge to nbrs[i]: its weight
// (zero for a free edge), or -1 when the variant's star cannot use it.
func (nd *undirectedNode) starCost(i int) float64 {
	idx := int(nd.nb[i].edgeIdx)
	if !nd.run.v.starEdge(idx) {
		return -1
	}
	return nd.run.g.Weight(idx)
}

// above is the view's H_v row of nbrs[i].
func (nd *undirectedNode) above(i int) []int32 { return nd.nb[i].above }

// directedView builds a directed run's view (Section 4.3.1): every
// neighbor is selectable at the cost of its arcs to me, and H_v holds
// each uncovered arc u -> w with u -> me and me -> w, so a two-way pair
// counts twice. Rows list each pair at its lower endpoint, ascending. The
// rows are allocated at the first such arc, so a profitless H_v, which
// has none, allocates nothing here either.
func (nd *undirectedNode) directedView() (*localView, float64) {
	var up [][]int32
	for i := range nd.nb {
		if nd.nb[i].arcs&dirIn == 0 {
			continue
		}
		for _, q := range nd.nb[i].above {
			if nd.nb[q].arcs&dirOut != 0 {
				if up == nil {
					up = make([][]int32, len(nd.nb))
				}
				lo := min(int32(i), q)
				up[lo] = append(up[lo], max(int32(i), q))
			}
		}
	}
	for _, row := range up {
		slices.Sort(row)
	}
	arcCount := func(i int) float64 { return float64(bits.OnesCount8(nd.nb[i].arcs & (dirIn | dirOut))) }
	rows := func(i int) []int32 {
		if up == nil {
			return nil
		}
		return up[i]
	}
	return newLocalView(nd.nbrs, arcCount, rows, true)
}

func (nd *undirectedNode) emitOutput() {
	k := 0
	for i := range nd.nb {
		if nd.nb[i].inSpan {
			k++
		}
		if nd.nb[i].arcs&inSpanned != 0 {
			k++
		}
	}
	out := make([]int, 0, k)
	for i := range nd.nb {
		if nd.nb[i].inSpan {
			out = append(out, int(nd.nb[i].edgeIdx))
		}
		if nd.nb[i].arcs&inSpanned != 0 {
			idx, _ := nd.run.d.EdgeIndex(nd.nbrs[i], nd.me)
			out = append(out, idx)
		}
	}
	sort.Ints(out)
	nd.run.outs[nd.me] = out
}

func maxf(a, b float64) float64 {
	if a >= b {
		return a
	}
	return b
}
