package core

import (
	"sort"
	"sync/atomic"

	"distspanner/internal/dist"
	"distspanner/internal/graph"
)

// Directed-variant payloads. Communication runs over the underlying
// undirected graph (the paper's model is bidirectional even for directed
// spanner problems), so directionality is data, not topology. Like the
// undirected protocol, state announcements are deltas accumulated by the
// receivers, and each phase has a distinguishable record tag, so idle
// vertices park and re-identify the phase on wake-up.

// dirSpanListMsg announces the sender's newly added outgoing spanner
// edges: an entry w means (sender, w) joined the spanner. Out-lists alone
// suffice for coverage checks, since every directed 2-path u -> x -> w
// consists of out-edges of u and x. Phase G'; sent only on growth.
type dirSpanListMsg struct {
	outNbrs []int
	n       int
}

func (m dirSpanListMsg) Bits() int     { return (1 + len(m.outNbrs)) * dist.IDBits(m.n) }
func (m dirSpanListMsg) rec() dist.Rec { return dist.Rec{Tag: tagDirSpan, Ints: m.outNbrs} }

// dirUncovMsg announces the sender's uncovered outgoing edges by head:
// the full list once at start-up (full=true), then removals as heads
// become covered. Phase A. The full/removal distinction is one
// transmitted bit.
type dirUncovMsg struct {
	heads []int
	full  bool
	n     int
}

//spanlint:bits full — the trailing +1 is the one-bit full/removal flag
func (m dirUncovMsg) Bits() int { return (1+len(m.heads))*dist.IDBits(m.n) + 1 }
func (m dirUncovMsg) rec() dist.Rec {
	r := dist.Rec{Tag: tagDirUncov, Ints: m.heads}
	if m.full {
		r.Flag = 1
	}
	return r
}

// Packed directed-star entries: a neighbor id with the directions taken —
// bit 1 set means (nbr -> candidate) is in the star, bit 0 set means
// (candidate -> nbr) is.
const (
	dirIn  = 2
	dirOut = 1
)

func packDirEntry(nbr int, in, out bool) int {
	e := nbr << 2
	if in {
		e |= dirIn
	}
	if out {
		e |= dirOut
	}
	return e
}

// dirStarMsg announces a candidate's directed star (packed entries) and
// random rank (phase D; r >= 1), or — with r == -1 — that the star was
// accepted into the spanner (phase F). Each entry is an id plus two
// direction bits.
type dirStarMsg struct {
	entries []int // packed ids: nbr<<2 | in<<1 | out
	r       int64
	n       int
}

//spanlint:bits r — the 4*IDBits(n) term is the rank r ∈ {1..n⁴}, four id-sized words
func (m dirStarMsg) Bits() int {
	return (1+len(m.entries))*(dist.IDBits(m.n)+2) + 4*dist.IDBits(m.n)
}
func (m dirStarMsg) rec() dist.Rec { return dist.Rec{Tag: tagDirStar, A: m.r, Ints: m.entries} }

// dirTermMsg announces termination: the sender adds the listed uncovered
// incident directed edges (flattened (tail, head) pairs) to the spanner.
// It doubles as the death notice pruning the sender from its peers' folds
// and broadcasts.
type dirTermMsg struct {
	pairs []int // flattened (tail, head) pairs; always even length
	n     int
}

func (m dirTermMsg) Bits() int     { return (1 + len(m.pairs)) * dist.IDBits(m.n) }
func (m dirTermMsg) rec() dist.Rec { return dist.Rec{Tag: tagDirTerm, Ints: m.pairs} }

// DirectedTwoSpanner runs the directed 2-spanner algorithm of Theorem 4.9
// on the digraph d. The communication topology is d's underlying undirected
// graph.
func DirectedTwoSpanner(d *graph.Digraph, opts Options) (*Result, error) {
	under, _ := d.Underlying()
	dr := newDirRun(d)
	stats, err := dist.RunMachines(dist.Config{
		Graph: under, Seed: opts.Seed, MaxRounds: opts.MaxRounds,
		Mode: opts.ExecMode, OnRound: opts.RoundHook, Cancel: opts.Cancel,
		Tracer: opts.Tracer, Shards: opts.Shards,
	}, dr.factory())
	if err != nil {
		return nil, err
	}
	return dr.result(stats), nil
}

// dirRun is the directed analogue of uRun: the cross-vertex collectors
// the directed machine factory closes over.
type dirRun struct {
	d         *graph.Digraph
	outs      [][]int
	iters     []int
	fallbacks atomic.Int64
	tele      *telemetry
}

func newDirRun(d *graph.Digraph) *dirRun {
	n := d.N()
	return &dirRun{d: d, outs: make([][]int, n), iters: make([]int, n), tele: newTelemetry()}
}

func (r *dirRun) factory() func(*dist.Ctx) dist.Machine {
	return func(ctx *dist.Ctx) dist.Machine {
		nd := newDirectedNode(ctx, r.d, r.outs, r.iters, &r.fallbacks)
		nd.tele = r.tele
		return dist.NewPhasedMachine(nd)
	}
}

func (r *dirRun) output(v int) []int { return r.outs[v] }

func (r *dirRun) result(stats *dist.Stats) *Result {
	return assembleResult(r.outs, r.iters, r.d.M(), r.d.TotalWeight, r.tele, r.fallbacks.Load(), stats)
}

// classifyDirected maps a wake inbox to its phase by record tag.
// tagDirStar serves two phases and is disambiguated by its rank:
// candidates announce with r >= 1, acceptances carry r == -1.
func classifyDirected(msgs []dist.InRec) uPhase {
	switch msgs[0].Tag {
	case tagDirSpan:
		return phSpan
	case tagDirUncov:
		return phUncov
	case tagDens:
		return phDens
	case tagMax:
		return phMax
	case tagDirTerm:
		return phStar
	case tagDirStar:
		if msgs[0].A == -1 {
			return phAccept
		}
		return phStar
	case tagVote:
		return phVote
	}
	panic("core: unclassifiable directed wake record tag")
}

// dirDensVal is a neighbor's last announced (rounded, raw) density pair.
// The directed variant folds both separately because the rounding applies
// to the footnote-7 running minimum, not the instantaneous value.
type dirDensVal struct {
	rho, raw float64
}

// dirCandidate is one announced directed star this iteration: the
// candidate's id, its sorted in/out neighbor lists, and its rank.
type dirCandidate struct {
	from    int
	in, out []int // sorted ids
	r       int64
}

// directedNode is the per-vertex state, with all per-neighbor state in
// flat slices indexed by the neighbor's position in the sorted neighbor
// list (see undirectedNode).
type directedNode struct {
	ctx       *dist.Ctx
	d         *graph.Digraph
	outs      [][]int
	iters     []int
	fallbacks *atomic.Int64
	tele      *telemetry

	me      int
	nbrs    []int  // sorted neighbor ids
	hasOut  []bool // per position: directed edge (me, nbr) exists
	outIdx  []int  // its edge index
	hasIn   []bool // per position: directed edge (nbr, me) exists
	inIdx   []int  // its edge index
	covOut  []bool
	covIn   []bool
	spanOut []bool
	spanIn  []bool
	nbrCnt  map[int]int // directed multiplicity per neighbor id (static; view input)

	wasCand  bool
	lastRho  float64
	prevStar []int
	runMin   float64 // footnote 7: running minimum of the approximate density

	// Accumulated per-neighbor state, kept in sync by deltas.
	alive     []bool
	spanOutOf [][]int // live neighbor -> its announced out-spanner heads (sorted ids)
	uncovOf   [][]int // live neighbor -> its uncovered out-heads (sorted ids)
	densOf    []dirDensVal
	densKnown []bool
	hopOf     []dirDensVal
	hopKnown  []bool

	// Own derived quantities and change tracking.
	pendingSpan    []int  // spanOut additions not yet announced
	announcedUncov []bool // per position
	sentUncovInit  bool
	view           *dirView
	viewDirty      bool
	hopDirty       bool
	m2Dirty        bool
	raw, rho       float64
	densSent       bool
	lastDens       dirDensVal
	hopRho, hopRaw float64
	hopSent        bool
	lastHop        dirDensVal
	m2Rho, m2Raw   float64

	// Per-iteration scratch.
	iter        int
	isCand      bool
	myEntries   []int // packed star entries
	mySpanCount int
	cands       []dirCandidate
	myVotes     int
}

func newDirectedNode(ctx *dist.Ctx, d *graph.Digraph, outs [][]int, iters []int, fb *atomic.Int64) *directedNode {
	me := ctx.ID()
	nd := &directedNode{
		ctx: ctx, d: d, outs: outs, iters: iters, fallbacks: fb,
		me:        me,
		nbrs:      ctx.Neighbors(),
		nbrCnt:    make(map[int]int),
		runMin:    -1,
		viewDirty: true,
		hopDirty:  true,
		m2Dirty:   true,
	}
	deg := len(nd.nbrs)
	nd.hasOut = make([]bool, deg)
	nd.outIdx = make([]int, deg)
	nd.hasIn = make([]bool, deg)
	nd.inIdx = make([]int, deg)
	nd.covOut = make([]bool, deg)
	nd.covIn = make([]bool, deg)
	nd.spanOut = make([]bool, deg)
	nd.spanIn = make([]bool, deg)
	nd.alive = make([]bool, deg)
	nd.spanOutOf = make([][]int, deg)
	nd.uncovOf = make([][]int, deg)
	nd.densOf = make([]dirDensVal, deg)
	nd.densKnown = make([]bool, deg)
	nd.hopOf = make([]dirDensVal, deg)
	nd.hopKnown = make([]bool, deg)
	nd.announcedUncov = make([]bool, deg)
	for i, u := range nd.nbrs {
		nd.alive[i] = true
		cnt := 0
		if idx, ok := d.EdgeIndex(me, u); ok {
			nd.hasOut[i] = true
			nd.outIdx[i] = idx
			cnt++
		}
		if idx, ok := d.EdgeIndex(u, me); ok {
			nd.hasIn[i] = true
			nd.inIdx[i] = idx
			cnt++
		}
		nd.nbrCnt[u] = cnt
	}
	return nd
}

// setSpanOut records (me, nbrs[i]) as a spanner member and queues the
// round-1 delta announcing it.
func (nd *directedNode) setSpanOut(i int) {
	if !nd.spanOut[i] {
		nd.spanOut[i] = true
		nd.pendingSpan = append(nd.pendingSpan, nd.nbrs[i])
	}
}

// bcast sends the record to every live neighbor.
func (nd *directedNode) bcast(r dist.Rec, bits int) {
	for i, u := range nd.nbrs {
		if nd.alive[i] {
			nd.ctx.SendRec(u, r, bits)
		}
	}
}

// parkable mirrors undirectedNode.parkable for the directed state.
func (nd *directedNode) parkable() bool {
	if len(nd.pendingSpan) > 0 || nd.viewDirty || nd.hopDirty || nd.m2Dirty {
		return false
	}
	for i := range nd.announcedUncov {
		if nd.announcedUncov[i] && nd.covOut[i] {
			return false
		}
	}
	return !(nd.rho > 0 && nd.rho >= nd.m2Rho && nd.raw >= 1)
}

// Phases implements dist.PhasedProgram.
func (nd *directedNode) Phases() (int, int) { return int(phSpan), int(phAccept) }

// Begin implements dist.PhasedProgram: record and bump the iteration
// count, reset the per-iteration scratch.
func (nd *directedNode) Begin() {
	nd.iters[nd.me] = nd.iter
	nd.iter++
	nd.isCand = false
	nd.myEntries = nil
	nd.mySpanCount = 0
	nd.cands = nd.cands[:0]
	nd.myVotes = 0
}

// Emit implements dist.PhasedProgram.
func (nd *directedNode) Emit(ph int) bool { return nd.emit(uPhase(ph)) }

// Process implements dist.PhasedProgram. The directed protocol halts via
// the terminal announcement in emit, never mid-iteration.
func (nd *directedNode) Process(ph int, recs []dist.InRec) bool {
	nd.process(uPhase(ph), recs)
	return false
}

// Parkable implements dist.PhasedProgram.
func (nd *directedNode) Parkable() bool { return nd.parkable() }

// ParkReset implements dist.PhasedProgram: parked iterations are not
// candidate iterations, so the monotone-star continuation resets exactly
// as it would have in the spinning execution.
func (nd *directedNode) ParkReset() { nd.wasCand, nd.prevStar = false, nil }

// Classify implements dist.PhasedProgram.
func (nd *directedNode) Classify(recs []dist.InRec) int { return int(classifyDirected(recs)) }

// Halt implements dist.PhasedProgram; unreachable (Process never halts).
func (nd *directedNode) Halt() {}

// Terminal implements dist.PhasedProgram: output after the flush round
// that committed the termination announcement.
func (nd *directedNode) Terminal() { nd.emitOutput() }

// Quiesce implements dist.PhasedProgram.
func (nd *directedNode) Quiesce() { nd.finalizeQuiesced() }

// finalizeQuiesced is the quiescence safety net: direct-add every still
// uncovered incident directed edge (what the termination step would do),
// then output and halt.
func (nd *directedNode) finalizeQuiesced() {
	for i := range nd.nbrs {
		if nd.hasOut[i] && !nd.covOut[i] {
			nd.spanOut[i] = true
			nd.covOut[i] = true
		}
		if nd.hasIn[i] && !nd.covIn[i] {
			nd.spanIn[i] = true
			nd.covIn[i] = true
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

func (nd *directedNode) emit(ph uPhase) bool {
	switch ph {
	case phSpan:
		if len(nd.pendingSpan) > 0 {
			sort.Ints(nd.pendingSpan)
			m := dirSpanListMsg{outNbrs: nd.pendingSpan, n: nd.ctx.N()}
			nd.bcast(m.rec(), m.Bits())
			nd.pendingSpan = nil
		}
	case phUncov:
		nd.emitUncov()
	case phDens:
		if nd.viewDirty {
			nd.rebuildView()
		}
		dv := dirDensVal{rho: nd.rho, raw: nd.raw}
		if !nd.densSent || dv != nd.lastDens {
			m := densMsg{rho: nd.rho, raw: nd.raw, wmax: 1}
			nd.bcast(m.rec(), m.Bits())
			nd.densSent, nd.lastDens = true, dv
		}
	case phMax:
		if nd.hopDirty {
			nd.refoldHop()
		}
		hv := dirDensVal{rho: nd.hopRho, raw: nd.hopRaw}
		if !nd.hopSent || hv != nd.lastHop {
			m := maxMsg{rho: nd.hopRho, raw: nd.hopRaw, wmax: 1}
			nd.bcast(m.rec(), m.Bits())
			nd.hopSent, nd.lastHop = true, hv
		}
	case phStar:
		if nd.m2Dirty {
			nd.refoldM2()
		}
		// Termination: as in the undirected case, with approximate
		// densities (constants shift, shape preserved).
		if nd.m2Raw <= 1 {
			if nd.tele != nil {
				nd.tele.bump(nd.tele.term, nd.iter-1)
			}
			var added []int
			for i, u := range nd.nbrs {
				if nd.hasOut[i] && !nd.covOut[i] {
					nd.spanOut[i] = true
					nd.covOut[i] = true
					added = append(added, nd.me, u)
				}
				if nd.hasIn[i] && !nd.covIn[i] {
					nd.spanIn[i] = true
					nd.covIn[i] = true
					added = append(added, u, nd.me)
				}
			}
			m := dirTermMsg{pairs: added, n: nd.ctx.N()}
			nd.bcast(m.rec(), m.Bits())
			return true
		}
		nd.isCand = nd.rho > 0 && nd.rho >= nd.m2Rho && nd.raw >= 1
		if nd.isCand {
			if nd.tele != nil {
				nd.tele.bump(nd.tele.cand, nd.iter-1)
			}
			var prev []bool
			if nd.wasCand && nd.lastRho == nd.rho && nd.prevStar != nil {
				prev = nd.view.maskFromIDs(nd.prevStar)
			}
			sel, fb := nd.view.chooseStar(nd.rho, prev)
			if fb {
				nd.fallbacks.Add(1)
			}
			ids := nd.view.starNeighborIDs(sel)
			nd.myEntries = nd.myEntries[:0]
			for _, u := range ids {
				i := posOf(nd.nbrs, u)
				nd.myEntries = append(nd.myEntries, packDirEntry(u, nd.hasIn[i], nd.hasOut[i]))
			}
			spanned, _ := nd.view.dirValue(sel)
			nd.mySpanCount = int(spanned + 0.5)
			m := dirStarMsg{entries: nd.myEntries, r: 1 + nd.ctx.Rand().Int63n(1<<62), n: nd.ctx.N()}
			nd.bcast(m.rec(), m.Bits())
			nd.wasCand, nd.lastRho, nd.prevStar = true, nd.rho, ids
		} else {
			nd.wasCand = false
			nd.prevStar = nil
		}
	case phVote:
		// Each uncovered outgoing edge (me, w) votes, owned by its tail.
		// The candidate v 2-spans (me, w) iff (me, v) and (v, w) are in
		// S_v: v's star has an In entry for me and an Out entry for w.
		var votes map[int][]int
		for i, w := range nd.nbrs {
			if !nd.hasOut[i] || nd.covOut[i] {
				continue
			}
			bestV, bestR := -1, int64(0)
			for ci := range nd.cands {
				c := &nd.cands[ci]
				if !containsSorted(c.in, nd.me) || !containsSorted(c.out, w) {
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
				votes[bestV] = append(votes[bestV], nd.me, w)
			}
		}
		for _, vid := range sortedKeys(votes) {
			m := voteMsg{pairs: votes[vid], n: nd.ctx.N()}
			nd.ctx.SendRec(vid, m.rec(), m.Bits())
		}
	case phAccept:
		if nd.isCand && 8*nd.myVotes >= nd.mySpanCount && nd.mySpanCount > 0 {
			if nd.tele != nil {
				nd.tele.bump(nd.tele.accept, nd.iter-1)
			}
			for _, e := range nd.myEntries {
				i := posOf(nd.nbrs, e>>2)
				if e&dirOut != 0 {
					nd.setSpanOut(i)
				}
				if e&dirIn != 0 {
					nd.spanIn[i] = true
				}
			}
			m := dirStarMsg{entries: nd.myEntries, r: -1, n: nd.ctx.N()}
			nd.bcast(m.rec(), m.Bits())
		}
	}
	return false
}

func (nd *directedNode) emitUncov() {
	if !nd.sentUncovInit {
		nd.sentUncovInit = true
		var full []int
		for i, w := range nd.nbrs {
			if nd.hasOut[i] && !nd.covOut[i] {
				full = append(full, w)
				nd.announcedUncov[i] = true
			}
		}
		m := dirUncovMsg{heads: full, full: true, n: nd.ctx.N()}
		nd.bcast(m.rec(), m.Bits())
		return
	}
	var dels []int
	for i, w := range nd.nbrs {
		if nd.announcedUncov[i] && nd.covOut[i] {
			dels = append(dels, w)
			nd.announcedUncov[i] = false
		}
	}
	if len(dels) == 0 {
		return
	}
	m := dirUncovMsg{heads: dels, n: nd.ctx.N()}
	nd.bcast(m.rec(), m.Bits())
}

func (nd *directedNode) process(ph uPhase, inbox []dist.InRec) {
	j := 0
	switch ph {
	case phSpan:
		for i := range inbox {
			r := &inbox[i]
			if r.Tag != tagDirSpan {
				continue
			}
			j = seekPos(nd.nbrs, j, r.From)
			if !nd.alive[j] {
				continue
			}
			nd.spanOutOf[j] = mergeSorted(nd.spanOutOf[j], r.Ints)
		}
		nd.updateCoverage()
	case phUncov:
		for i := range inbox {
			r := &inbox[i]
			if r.Tag != tagDirUncov {
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
			nd.densOf[j] = dirDensVal{rho: r.F0, raw: r.F1}
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
			nd.hopOf[j] = dirDensVal{rho: r.F0, raw: r.F1}
			nd.hopKnown[j] = true
			nd.m2Dirty = true
		}
	case phStar:
		for i := range inbox {
			r := &inbox[i]
			j = seekPos(nd.nbrs, j, r.From)
			switch r.Tag {
			case tagDirTerm:
				nd.processDeath(j, r.Ints)
			case tagDirStar:
				// Unpack the star into sorted in/out lists (entries are
				// packed in ascending neighbor order), copying out of the
				// arena since candidates are retained across rounds.
				c := dirCandidate{from: r.From, r: r.A}
				for _, e := range r.Ints {
					if e&dirIn != 0 {
						c.in = append(c.in, e>>2)
					}
					if e&dirOut != 0 {
						c.out = append(c.out, e>>2)
					}
				}
				nd.cands = append(nd.cands, c)
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
			if r.Tag != tagDirStar || r.A != -1 {
				continue
			}
			j = seekPos(nd.nbrs, j, r.From)
			for _, e := range r.Ints {
				if e>>2 != nd.me {
					continue
				}
				if e&dirOut != 0 { // (sender, me) in spanner
					nd.spanIn[j] = true
				}
				if e&dirIn != 0 { // (me, sender) in spanner
					nd.setSpanOut(j)
				}
			}
		}
	}
}

// processDeath handles the termination of the neighbor at position i:
// record the direct-added edges touching this vertex, then prune the
// sender from every fold. pairs is the flattened (tail, head) list.
func (nd *directedNode) processDeath(i int, pairs []int) {
	for k := 0; k+1 < len(pairs); k += 2 {
		tail, head := pairs[k], pairs[k+1]
		if tail == nd.me {
			p := posOf(nd.nbrs, head)
			nd.setSpanOut(p)
			nd.covOut[p] = true
		}
		if head == nd.me {
			p := posOf(nd.nbrs, tail)
			nd.spanIn[p] = true
			nd.covIn[p] = true
		}
	}
	nd.alive[i] = false
	nd.densKnown[i] = false
	nd.hopKnown[i] = false
	nd.spanOutOf[i] = nil
	if len(nd.uncovOf[i]) > 0 {
		nd.viewDirty = true
	}
	nd.uncovOf[i] = nil
	nd.hopDirty = true
	nd.m2Dirty = true
}

// idxOf resolves an id to its position in the sorted neighbor list,
// reporting whether it is a neighbor at all.
func idxOf(nbrs []int, id int) (int, bool) {
	i := sort.SearchInts(nbrs, id)
	return i, i < len(nbrs) && nbrs[i] == id
}

// updateCoverage marks directed incident edges covered when in the spanner
// or bridged by a directed 2-path through a common neighbor, using the
// accumulated out-lists of live neighbors.
func (nd *directedNode) updateCoverage() {
	// Outgoing edge (me, w): covered by (me, x) ∈ spanner and (x, w) ∈
	// spanner, learned from x's out-list.
	for i, w := range nd.nbrs {
		if !nd.hasOut[i] || nd.covOut[i] {
			continue
		}
		if nd.spanOut[i] {
			nd.covOut[i] = true
			continue
		}
		for x := range nd.nbrs {
			if nd.spanOut[x] && nd.alive[x] && containsSorted(nd.spanOutOf[x], w) {
				nd.covOut[i] = true
				break
			}
		}
	}
	// Incoming edge (u, me): covered by (u, x) ∈ spanner (from u's
	// out-list) and (x, me) ∈ spanner (own incoming spanner state).
	for i := range nd.nbrs {
		if !nd.hasIn[i] || nd.covIn[i] {
			continue
		}
		if nd.spanIn[i] {
			nd.covIn[i] = true
			continue
		}
		for _, x := range nd.spanOutOf[i] {
			if x == nd.me {
				continue
			}
			if p, ok := idxOf(nd.nbrs, x); ok && nd.spanIn[p] {
				// (u, x) ∈ spanner and (x, me) ∈ spanner.
				nd.covIn[i] = true
				break
			}
		}
	}
}

// rebuildView reassembles the directed view from the accumulated
// uncovered out-head sets and refreshes the footnote-7 running minimum of
// the approximate densest-star density.
func (nd *directedNode) rebuildView() {
	nd.viewDirty = false
	var hDir [][2]int
	for i, u := range nd.nbrs {
		if !nd.hasIn[i] {
			continue // star cannot use (u, me): no such edge
		}
		for _, w := range nd.uncovOf[i] {
			if w == nd.me {
				continue
			}
			if p, ok := idxOf(nd.nbrs, w); ok && nd.hasOut[p] {
				hDir = append(hDir, [2]int{u, w})
			}
		}
	}
	nd.view = newDirView(nd.nbrCnt, hDir)
	_, raw := nd.view.approxDensest(nil)
	// Footnote 7: the approximation may fluctuate upward; use the
	// running minimum so the rounded value never increases.
	if nd.runMin < 0 || raw < nd.runMin {
		nd.runMin = raw
	}
	raw = nd.runMin
	rho := RoundUpPow2(raw)
	if raw != nd.raw || rho != nd.rho {
		nd.hopDirty = true
	}
	nd.raw, nd.rho = raw, rho
}

// refoldHop recomputes the 1-hop maxima (own values first, then live
// neighbors in id order).
func (nd *directedNode) refoldHop() {
	nd.hopDirty = false
	old := dirDensVal{rho: nd.hopRho, raw: nd.hopRaw}
	nd.hopRho, nd.hopRaw = nd.rho, nd.raw
	for i := range nd.nbrs {
		if !nd.alive[i] || !nd.densKnown[i] {
			continue
		}
		d := nd.densOf[i]
		nd.hopRho = maxf(nd.hopRho, d.rho)
		nd.hopRaw = maxf(nd.hopRaw, d.raw)
	}
	if (dirDensVal{rho: nd.hopRho, raw: nd.hopRaw}) != old {
		nd.m2Dirty = true
	}
}

// refoldM2 recomputes the 2-hop maxima from the accumulated 1-hop maxima.
func (nd *directedNode) refoldM2() {
	nd.m2Dirty = false
	nd.m2Rho, nd.m2Raw = nd.hopRho, nd.hopRaw
	for i := range nd.nbrs {
		if !nd.alive[i] || !nd.hopKnown[i] {
			continue
		}
		h := nd.hopOf[i]
		nd.m2Rho = maxf(nd.m2Rho, h.rho)
		nd.m2Raw = maxf(nd.m2Raw, h.raw)
	}
}

func (nd *directedNode) emitOutput() {
	var out []int
	for i := range nd.nbrs {
		if nd.spanOut[i] {
			out = append(out, nd.outIdx[i])
		}
		if nd.spanIn[i] {
			out = append(out, nd.inIdx[i])
		}
	}
	sort.Ints(out)
	nd.outs[nd.me] = out
}
