package core

import (
	"errors"
	"fmt"
	"math/rand"
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
	// MaxRounds aborts runaway executions; zero uses the engine default.
	MaxRounds int
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
// client-server (Theorem 4.15).
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
	return runUndirected(g, twoSpannerVariant(g.Weighted()), opts)
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
	return runUndirected(g, v, opts)
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

// uRun owns the cross-vertex collectors of one undirected-protocol run:
// the per-vertex outputs, iteration counts, Claim 4.4 fallback counter,
// and iteration telemetry the machine factory closes over. It is the
// state behind both the local runners and the exported shard programs
// (the distributed runner reads outputs through uRun.output).
type uRun struct {
	g         *graph.Graph
	outs      [][]int // per-vertex incident spanner edge indices
	iters     []int   // per-vertex iteration counts
	fallbacks atomic.Int64
	tele      *telemetry
}

func newURun(g *graph.Graph) *uRun {
	n := g.N()
	return &uRun{g: g, outs: make([][]int, n), iters: make([]int, n), tele: newTelemetry()}
}

// factory builds the per-vertex machines of the undirected protocol.
func (r *uRun) factory(v variant, opts Options) func(*dist.Ctx) dist.Machine {
	return func(ctx *dist.Ctx) dist.Machine {
		nd := newUndirectedNode(ctx, r.g, v, r.outs, r.iters, &r.fallbacks)
		nd.opts = opts
		nd.tele = r.tele
		return dist.NewPhasedMachine(nd)
	}
}

func (r *uRun) output(v int) []int { return r.outs[v] }

func (r *uRun) result(stats *dist.Stats) *Result {
	return assembleResult(r.outs, r.iters, r.g.M(), r.g.TotalWeight, r.tele, r.fallbacks.Load(), stats)
}

// assembleResult folds the per-vertex collectors into a Result — shared
// by the undirected, CONGEST, and directed runners.
func assembleResult(outs [][]int, iters []int, m int, total func(*graph.EdgeSet) float64,
	tele *telemetry, fallbacks int64, stats *dist.Stats) *Result {
	spanner := graph.NewEdgeSet(m)
	for _, edges := range outs {
		for _, e := range edges {
			spanner.Add(e)
		}
	}
	maxIter := 0
	for _, it := range iters {
		if it > maxIter {
			maxIter = it
		}
	}
	return &Result{
		Spanner:      spanner,
		Cost:         total(spanner),
		Stats:        *stats,
		Iterations:   maxIter,
		PerIteration: tele.stats(maxIter),
		Fallbacks:    fallbacks,
	}
}

func runUndirected(g *graph.Graph, v variant, opts Options) (*Result, error) {
	ru := newURun(g)
	stats, err := dist.RunMachines(dist.Config{
		Graph: g, Seed: opts.Seed, MaxRounds: opts.MaxRounds,
		Mode: opts.ExecMode, OnRound: opts.RoundHook, Cancel: opts.Cancel,
		Tracer: opts.Tracer, Shards: opts.Shards,
	}, ru.factory(v, opts))
	if err != nil {
		return nil, err
	}
	return ru.result(stats), nil
}

// roundCtx is the per-vertex network surface the protocol needs: vertex
// identity plus the record send primitive. It is satisfied by *dist.Ctx
// (the LOCAL implementation) and by *congestCtx (the fragmenting CONGEST
// adapter of Section 1.3's discussion). The protocols only send on it —
// they are PhasedPrograms whose round boundaries the engine drives, and
// their inboxes arrive as StepIn.
type roundCtx interface {
	ID() int
	N() int
	Neighbors() []int
	Rand() *rand.Rand
	SendRec(to int, r dist.Rec, bits int)
}

// uPhase indexes the seven rounds of one iteration of the undirected
// protocol. Each phase has disjoint record tags, which is how a vertex
// woken from parking re-identifies the network's current phase.
type uPhase int

const (
	phSpan   uPhase = iota + 1 // round 1 (G'): spanListMsg deltas
	phUncov                    // round 2 (A): uncovMsg init/removals
	phDens                     // round 3 (B): densMsg deltas
	phMax                      // round 4 (C): maxMsg deltas
	phStar                     // round 5 (D): starMsg / termMsg
	phVote                     // round 6 (E): voteMsg (candidates only)
	phAccept                   // round 7 (F): acceptMsg
)

// classifyUndirected maps a wake inbox to its phase by record tag. One
// inbox is always one phase: every sender is phase-aligned and each
// phase's tags are disjoint.
func classifyUndirected(msgs []dist.InRec) uPhase {
	switch msgs[0].Tag {
	case tagSpan:
		return phSpan
	case tagUncov:
		return phUncov
	case tagDens:
		return phDens
	case tagMax:
		return phMax
	case tagStar, tagTerm:
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
// resolving to the insertion slot. Use idxOf when absence is legitimate.
func posOf(nbrs []int, id int) int {
	i, ok := idxOf(nbrs, id)
	if !ok {
		panic("core: id is not a neighbor")
	}
	return i
}

// containsSorted reports whether the sorted slice s contains x.
func containsSorted(s []int, x int) bool {
	i := sort.SearchInts(s, x)
	return i < len(s) && s[i] == x
}

// mergeSorted merges the sorted, duplicate-free slice add into the sorted
// slice dst in place (merging from the back after growing), returning the
// merged slice. add may be a delivered record tail; its values are
// copied.
func mergeSorted(dst, add []int) []int {
	if len(add) == 0 {
		return dst
	}
	if len(dst) == 0 || dst[len(dst)-1] < add[0] {
		return append(dst, add...)
	}
	i, j := len(dst)-1, len(add)-1
	dst = append(dst, add...)
	for k := len(dst) - 1; j >= 0; k-- {
		if i >= 0 && dst[i] > add[j] {
			dst[k] = dst[i]
			i--
		} else {
			dst[k] = add[j]
			j--
		}
	}
	return dst
}

// removeSorted deletes the sorted values of del from the sorted slice dst
// in place, returning the shortened slice.
func removeSorted(dst, del []int) []int {
	if len(del) == 0 || len(dst) == 0 {
		return dst
	}
	out := dst[:0]
	k := 0
	for _, v := range dst {
		if k < len(del) && del[k] == v {
			k++
			continue
		}
		out = append(out, v)
	}
	return out
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
// vertex: the candidate's id, its sorted star neighbor ids, and its random
// rank.
type candRec struct {
	from int
	star []int
	r    int64
}

// undirectedNode is the per-vertex state of the protocol. All
// per-neighbor state is held in flat slices indexed by the neighbor's
// position in the sorted neighbor list: inbox decoding resolves sender
// positions with a merge scan (seekPos), and the folds and broadcasts
// scan slices with no map in sight.
type undirectedNode struct {
	ctx       roundCtx
	g         *graph.Graph
	v         variant
	opts      Options
	outs      [][]int
	iters     []int
	fallbacks *atomic.Int64
	tele      *telemetry // may be nil (tests construct nodes directly)

	me      int
	nbrs    []int // sorted neighbor ids
	edgeIdx []int // incident edge index per position
	covered []bool
	inSpan  []bool
	myWmax  float64

	// Monotone star-choice state (Section 4.1).
	wasCand  bool
	lastRho  float64
	prevStar []int // neighbor ids of last chosen star (selectable + free)

	// Accumulated per-neighbor state, kept in sync by deltas, all indexed
	// by neighbor position. A live neighbor's entry always equals what the
	// classic all-broadcast execution would have received from it this
	// iteration. spanOf/uncovOf are sorted id lists maintained by
	// merge/remove — the flat replacement for the old map-of-sets fold.
	alive     []bool
	spanOf    [][]int // live neighbor -> its incident spanner edges (sorted ids)
	uncovOf   [][]int // live neighbor -> its uncovered target edges (sorted ids)
	densOf    []densVal
	densKnown []bool
	hopOf     []densVal
	hopKnown  []bool

	// Own derived quantities and the change-tracking behind the deltas.
	pendingSpan    []int  // inSpan additions not yet announced (round 1)
	announcedUncov []bool // per position: uncovered edge announced, removal owed when covered
	sentUncovInit  bool
	view           *localView
	viewDirty      bool // uncovOf changed since the view was built
	hopDirty       bool // own density, a neighbor density, or liveness changed
	m2Dirty        bool // own 1-hop max, a neighbor 1-hop max, or liveness changed
	raw            float64
	num, den       int
	rho            float64
	densSent       bool
	lastDens       densVal
	hopRaw         float64
	hopNum, hopDen int
	hopW           float64
	hopSent        bool
	lastHop        densVal
	m2Raw, m2Rho   float64
	m2W            float64

	// Per-iteration scratch.
	iter        int
	isCand      bool
	myStar      []int
	mySpanCount int
	cands       []candRec
	myVotes     int
}

func newUndirectedNode(ctx roundCtx, g *graph.Graph, v variant, outs [][]int, iters []int, fb *atomic.Int64) *undirectedNode {
	me := ctx.ID()
	nd := &undirectedNode{
		ctx: ctx, g: g, v: v, outs: outs, iters: iters, fallbacks: fb,
		me:        me,
		nbrs:      ctx.Neighbors(),
		viewDirty: true,
		hopDirty:  true,
		m2Dirty:   true,
	}
	deg := len(nd.nbrs)
	nd.edgeIdx = make([]int, deg)
	nd.covered = make([]bool, deg)
	nd.inSpan = make([]bool, deg)
	nd.alive = make([]bool, deg)
	nd.spanOf = make([][]int, deg)
	nd.uncovOf = make([][]int, deg)
	nd.densOf = make([]densVal, deg)
	nd.densKnown = make([]bool, deg)
	nd.hopOf = make([]densVal, deg)
	nd.hopKnown = make([]bool, deg)
	nd.announcedUncov = make([]bool, deg)
	for i, u := range nd.nbrs {
		idx, ok := g.EdgeIndex(me, u)
		if !ok {
			panic("core: neighbor without edge")
		}
		nd.edgeIdx[i] = idx
		nd.alive[i] = true
		if !v.target(idx) {
			// Non-target edges never need covering.
			nd.covered[i] = true
		}
		if g.Weighted() && g.Weight(idx) == 0 && v.starEdge(idx) {
			// Weighted pre-pass: all zero-weight edges join the spanner.
			nd.setInSpan(i)
		}
		nd.myWmax = maxf(nd.myWmax, g.Weight(idx))
	}
	return nd
}

// setInSpan records the edge to the neighbor at position i as a spanner
// member and queues the round-1 delta announcing it.
func (nd *undirectedNode) setInSpan(i int) {
	if !nd.inSpan[i] {
		nd.inSpan[i] = true
		nd.pendingSpan = append(nd.pendingSpan, nd.nbrs[i])
	}
}

// bcast sends the record to every live neighbor: terminated vertices are
// pruned from all broadcasts. The record's Ints tail is staged once in
// the sender's arena and shared across the fan-out.
func (nd *undirectedNode) bcast(r dist.Rec, bits int) {
	for i, u := range nd.nbrs {
		if nd.alive[i] {
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
	for i := range nd.announcedUncov {
		if nd.announcedUncov[i] && nd.covered[i] {
			return false // owes an uncovered-list removal
		}
	}
	// Candidacy is a pure function of the clean folds.
	return !(nd.rho > 0 && nd.rho >= nd.m2Rho && nd.v.candidateOK(nd.raw))
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
	nd.iters[nd.me] = nd.iter
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
func (nd *undirectedNode) Classify(recs []dist.InRec) int { return int(classifyUndirected(recs)) }

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
	for i := range nd.nbrs {
		if !nd.covered[i] && nd.v.directAdd(nd.edgeIdx[i]) {
			nd.inSpan[i] = true
			nd.covered[i] = true
		}
	}
	if nd.tele != nil {
		it := nd.iter
		if it > 0 {
			it--
		}
		nd.tele.bump(nd.tele.term, it)
	}
	nd.emitOutput()
}

// emit queues the sends of phase ph (committed by the yield that returns
// ph's inbox) and performs the fold recomputations scheduled at ph. It
// returns true when the vertex terminated (phStar only).
func (nd *undirectedNode) emit(ph uPhase) bool {
	switch ph {
	case phSpan:
		if len(nd.pendingSpan) > 0 {
			sort.Ints(nd.pendingSpan)
			m := spanListMsg{nbrs: nd.pendingSpan, n: nd.ctx.N()}
			nd.bcast(m.rec(), m.Bits())
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
		if nd.v.terminal(nd.m2Raw, nd.m2W) {
			if nd.tele != nil {
				nd.tele.bump(nd.tele.term, nd.iter-1)
			}
			var added []int
			for i, u := range nd.nbrs {
				if !nd.covered[i] && nd.v.directAdd(nd.edgeIdx[i]) {
					nd.inSpan[i] = true
					nd.covered[i] = true
					added = append(added, u)
				}
			}
			// The phased machine spends the flush round committing this
			// announcement, then calls Terminal to output.
			m := termMsg{added: added, n: nd.ctx.N()}
			nd.bcast(m.rec(), m.Bits())
			return true
		}
		// Candidacy and star choice (Section 4.1).
		nd.isCand = nd.rho > 0 && nd.rho >= nd.m2Rho && nd.v.candidateOK(nd.raw)
		if nd.isCand {
			if nd.tele != nil {
				nd.tele.bump(nd.tele.cand, nd.iter-1)
			}
			var prev []bool
			if !nd.opts.FreshStars && nd.wasCand && nd.lastRho == nd.rho && nd.prevStar != nil {
				prev = nd.view.maskFromIDs(nd.prevStar)
			}
			sel, fb := nd.view.chooseStar(nd.rho, prev)
			if fb {
				nd.fallbacks.Add(1)
			}
			nd.myStar = nd.view.starNeighborIDs(sel)
			spanned, _ := nd.view.starValue(sel)
			nd.mySpanCount = int(spanned + 0.5)
			m := starMsg{star: nd.myStar, r: 1 + nd.ctx.Rand().Int63n(1<<62), n: nd.ctx.N()}
			nd.bcast(m.rec(), m.Bits())
			nd.wasCand, nd.lastRho = true, nd.rho
			nd.prevStar = nd.myStar
		} else {
			nd.wasCand = false
			nd.prevStar = nil
		}
	case phVote:
		// Each owned uncovered edge votes for the first candidate (by
		// (r, id)) that 2-spans it. Every kept candidate's star holds me.
		var votes map[int][]int
		for i, u := range nd.nbrs {
			if nd.covered[i] || nd.me > u {
				continue // not an owner, or nothing to vote for
			}
			bestV, bestR := -1, int64(0)
			for ci := range nd.cands {
				c := &nd.cands[ci]
				if !containsSorted(c.star, u) {
					continue
				}
				if bestV < 0 || c.r < bestR || (c.r == bestR && c.from < bestV) {
					bestV, bestR = c.from, c.r
				}
			}
			if bestV >= 0 {
				if votes == nil {
					votes = make(map[int][]int)
				}
				votes[bestV] = append(votes[bestV], nd.me, u)
			}
		}
		for _, vid := range sortedKeys(votes) {
			m := voteMsg{pairs: votes[vid], n: nd.ctx.N()}
			nd.ctx.SendRec(vid, m.rec(), m.Bits())
		}
	case phAccept:
		if nd.isCand && nd.opts.voteDenominator()*nd.myVotes >= nd.mySpanCount && nd.mySpanCount > 0 {
			if nd.tele != nil {
				nd.tele.bump(nd.tele.accept, nd.iter-1)
			}
			for _, u := range nd.myStar {
				nd.setInSpan(posOf(nd.nbrs, u))
			}
			m := acceptMsg{star: nd.myStar, n: nd.ctx.N()}
			nd.bcast(m.rec(), m.Bits())
		}
	}
	return false
}

// sortedKeys returns the keys of a small map in ascending order, for a
// deterministic send order.
func sortedKeys(m map[int][]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// emitUncov announces the uncovered incident target edges: the full list
// once at start-up, removals afterwards. Receivers maintain the
// accumulated set, so the network-wide picture matches the classic
// full-rebroadcast execution exactly.
func (nd *undirectedNode) emitUncov() {
	if !nd.sentUncovInit {
		nd.sentUncovInit = true
		var full []int
		for i, u := range nd.nbrs {
			if !nd.covered[i] {
				full = append(full, u)
				nd.announcedUncov[i] = true
			}
		}
		m := uncovMsg{nbrs: full, full: true, n: nd.ctx.N()}
		nd.bcast(m.rec(), m.Bits())
		return
	}
	var dels []int
	for i, u := range nd.nbrs {
		if nd.announcedUncov[i] && nd.covered[i] {
			dels = append(dels, u)
			nd.announcedUncov[i] = false
		}
	}
	if len(dels) == 0 {
		return
	}
	m := uncovMsg{nbrs: dels, n: nd.ctx.N()}
	nd.bcast(m.rec(), m.Bits())
}

// process decodes the records of phase ph in place: sender positions come
// from the seekPos merge scan, scalar fields are read straight off the
// record, and list tails are folded into the flat per-neighbor slices.
func (nd *undirectedNode) process(ph uPhase, inbox []dist.InRec) {
	j := 0
	switch ph {
	case phSpan:
		for i := range inbox {
			r := &inbox[i]
			if r.Tag != tagSpan {
				continue
			}
			j = seekPos(nd.nbrs, j, r.From)
			if !nd.alive[j] {
				continue
			}
			nd.spanOf[j] = mergeSorted(nd.spanOf[j], r.Ints)
		}
		nd.updateCoverage()
	case phUncov:
		for i := range inbox {
			r := &inbox[i]
			if r.Tag != tagUncov {
				continue
			}
			j = seekPos(nd.nbrs, j, r.From)
			if !nd.alive[j] {
				continue
			}
			if r.Flag != 0 {
				nd.uncovOf[j] = append(nd.uncovOf[j][:0], r.Ints...)
			} else {
				nd.uncovOf[j] = removeSorted(nd.uncovOf[j], r.Ints)
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
			if !nd.alive[j] {
				continue
			}
			nd.densOf[j] = densVal{raw: r.F1, num: int(r.A), den: int(r.B), wmax: r.F2}
			nd.densKnown[j] = true
			nd.hopDirty = true
		}
	case phMax:
		for i := range inbox {
			r := &inbox[i]
			if r.Tag != tagMax {
				continue
			}
			j = seekPos(nd.nbrs, j, r.From)
			if !nd.alive[j] {
				continue
			}
			nd.hopOf[j] = densVal{raw: r.F1, num: int(r.A), den: int(r.B), wmax: r.F2}
			nd.hopKnown[j] = true
			nd.m2Dirty = true
		}
	case phStar:
		for i := range inbox {
			r := &inbox[i]
			j = seekPos(nd.nbrs, j, r.From)
			switch r.Tag {
			case tagTerm:
				nd.processDeath(j, r.Ints)
			case tagStar:
				// Only a star holding me can 2-span an edge I vote for, so
				// the others are dropped here. A kept star list is retained
				// across the iteration; copy it out of the arena.
				if !containsSorted(r.Ints, nd.me) {
					continue
				}
				nd.cands = append(nd.cands, candRec{
					from: r.From,
					star: append([]int(nil), r.Ints...),
					r:    r.A,
				})
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
		for i := range inbox {
			r := &inbox[i]
			if r.Tag != tagAccept {
				continue
			}
			j = seekPos(nd.nbrs, j, r.From)
			for _, w := range r.Ints {
				if w == nd.me {
					nd.setInSpan(j)
				}
			}
		}
	}
}

// processDeath handles the termination announcement of the neighbor at
// position i: record the direct-added edges naming this vertex, then
// prune the sender from every accumulated fold — exactly the information
// the classic execution loses when a terminated vertex stops
// broadcasting.
func (nd *undirectedNode) processDeath(i int, added []int) {
	for _, w := range added {
		if w == nd.me {
			nd.setInSpan(i)
			nd.covered[i] = true
		}
	}
	nd.alive[i] = false
	nd.densKnown[i] = false
	nd.hopKnown[i] = false
	nd.spanOf[i] = nil
	if len(nd.uncovOf[i]) > 0 {
		nd.viewDirty = true
	}
	nd.uncovOf[i] = nil
	nd.hopDirty = true
	nd.m2Dirty = true
}

// updateCoverage marks incident target edges covered when the spanner
// contains them or a 2-path around them through a live neighbor's
// announced spanner edges.
func (nd *undirectedNode) updateCoverage() {
	for i, u := range nd.nbrs {
		if nd.covered[i] {
			continue
		}
		if nd.inSpan[i] {
			nd.covered[i] = true
			continue
		}
		for x := range nd.nbrs {
			if nd.inSpan[x] && nd.alive[x] && containsSorted(nd.spanOf[x], u) {
				nd.covered[i] = true
				break
			}
		}
	}
}

// rebuildView reassembles the localView from the accumulated uncovered
// sets and recomputes the densest-star density (the expensive flow-oracle
// step — now run only when an input actually changed).
func (nd *undirectedNode) rebuildView() {
	nd.viewDirty = false
	nd.view = newLocalView(nd.nbrs, nd.starCost, nd.uncovOf)
	sel, _ := nd.view.densestStar(nil)
	raw, num, den := 0.0, 0, 1
	if sel != nil {
		if s, c := nd.view.starValue(sel); c > 0 {
			// The canonical raw density is this division; in the
			// unweighted case (s, c) are exact integers, which the
			// CONGEST adapter ships verbatim so every vertex computes
			// bit-identical values.
			raw = s / c
			num, den = int(s+0.5), int(c+0.5)
		}
	}
	if raw != nd.raw || num != nd.num || den != nd.den {
		nd.hopDirty = true
	}
	nd.raw, nd.num, nd.den = raw, num, den
	nd.rho = RoundUpPow2(raw)
	if nd.opts.NoRounding {
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
	for i := range nd.nbrs {
		if !nd.alive[i] || !nd.densKnown[i] {
			continue
		}
		d := nd.densOf[i]
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
	for i := range nd.nbrs {
		if !nd.alive[i] || !nd.hopKnown[i] {
			continue
		}
		h := nd.hopOf[i]
		nd.m2Raw = maxf(nd.m2Raw, h.raw)
		nd.m2W = maxf(nd.m2W, h.wmax)
	}
	nd.m2Rho = RoundUpPow2(nd.m2Raw)
	if nd.opts.NoRounding {
		nd.m2Rho = nd.m2Raw
	}
}

// starCost is the view's cost of the star edge to nbrs[i]: its weight
// (zero for a free edge), or -1 when the variant's star cannot use it.
func (nd *undirectedNode) starCost(i int) float64 {
	idx := nd.edgeIdx[i]
	if !nd.v.starEdge(idx) {
		return -1
	}
	return nd.g.Weight(idx)
}

func (nd *undirectedNode) emitOutput() {
	var out []int
	for i := range nd.nbrs {
		if nd.inSpan[i] {
			out = append(out, nd.edgeIdx[i])
		}
	}
	sort.Ints(out)
	nd.outs[nd.me] = out
}

func maxf(a, b float64) float64 {
	if a >= b {
		return a
	}
	return b
}
