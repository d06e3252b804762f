package dist

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// The round core: everything that decides or carries out a round, written
// once and driven two ways. runStep (step.go) drives all of it on one
// engine. On the sharded path each worker (shard.go) runs the per-vertex
// half on its vertex range and the coordinator (coord.go) runs the global
// half, with protocol frames carrying the counts between them; the
// transport-conformance suite compares the two drivers of this one core.
//
//   - Global half (ledger): the round rule (decide) and the folding of a
//     committed round into Stats and the narration hooks (record).
//   - Per-vertex half (engine): post-step classification (classify),
//     sender metering (meter), delivery with its Send/Deliver/Wake
//     narration (deliver), the next round's active set (rebuild), and
//     the quiescence epilogue (quiesce).

// parallelThreshold is the size below which a round's machines are
// stepped, and its senders metered, serially: sharding overhead
// dominates under it.
const parallelThreshold = 64

// ledger is the global half of a run: the round rule's limits, the run's
// Stats, and the per-round narration (OnRound, the tracer's Phase
// snapshots and, in-process, its timing channel). The in-process engine
// embeds the ledger that decides; on the sharded path the coordinator
// owns it, and a worker's engine uses its own only to meter against the
// budget and to stamp trace events with the committed round.
type ledger struct {
	maxRounds int // <= 0: DefaultMaxRounds
	bandwidth int
	cancel    <-chan struct{} // nil: never canceled
	onRound   func(RoundActivity)
	tracer    Tracer // nil: tracing disabled (zero cost)
	timed     bool   // emit the timing channel (in-process, tracer set)
	stats     Stats

	// Timing-channel scratch (timed only): the previous round boundary
	// and the current round's accumulated stepping/routing time.
	lastTick        time.Time
	stepNs, routeNs int64
}

// decide is the round rule, the one place a round's fate is decided:
// runStep applies it in-process and Coordinate for the whole cluster, to
// the same global facts — retired (every vertex has retired), yielded
// (some vertex asked for another round), wakes (some pending send targets
// a live vertex; a parked receiver counts, the delivery would wake it),
// and m, the metering of every pending send.
//
// The verdict is DecideFinish when every vertex retired, DecideQuiesce
// when nobody yielded and no pending send can wake anyone (pending sends
// are then last words to retired vertices: metered and dropped without
// charging a round), and otherwise DecideCommit of round Stats.Rounds+1.
// A commit first checks the round limit, then Config.Cancel; every
// verdict then aborts on a bandwidth violation in m, stamped with the
// round its sends ride. A verdict that does not abort folds m into
// Stats.
func (l *ledger) decide(retired, yielded, wakes bool, m *MeterReport) (DecisionKind, error) {
	kind, round := DecideCommit, l.stats.Rounds
	switch {
	case retired:
		kind = DecideFinish
	case !yielded && !wakes:
		kind = DecideQuiesce
	default:
		round++
		limit := l.maxRounds
		if limit <= 0 {
			limit = DefaultMaxRounds
		}
		if round > limit {
			return DecideAbort, fmt.Errorf("%w: %d rounds executed (MaxRounds %d)", ErrRoundLimit, round, limit)
		}
		if l.canceled() {
			return DecideAbort, fmt.Errorf("%w after %d rounds", ErrCanceled, round)
		}
	}
	if m.ViolSender >= 0 {
		return DecideAbort, fmt.Errorf("%w: vertex %d sent %d bits to %d in round %d (budget %d)",
			ErrBandwidth, m.ViolSender, m.ViolBits, m.ViolTo, round, l.bandwidth)
	}
	s := &l.stats
	s.Rounds = round
	s.Messages += m.Msgs
	s.TotalBits += m.Bits
	s.CutBits += m.CutBits
	s.MaxMessageBits = max(s.MaxMessageBits, m.MaxMsg)
	s.MaxEdgeRoundBits = max(s.MaxEdgeRoundBits, m.MaxEdge)
	return kind, nil
}

// canceled reports whether Config.Cancel has fired. Non-blocking and
// nil-safe; checked at round boundaries like the round limit.
func (l *ledger) canceled() bool {
	if l.cancel == nil {
		return false
	}
	select {
	case <-l.cancel:
		return true
	default:
		return false
	}
}

// record folds a committed round's activity into Stats and narrates it:
// the tracer's Phase snapshot (then, when timed, its RoundTime entry),
// then the OnRound hook.
func (l *ledger) record(act RoundActivity) {
	l.stats.ActiveSteps += int64(act.Active)
	l.stats.ParkedSteps += int64(act.Parked)
	l.stats.PeakActive = max(l.stats.PeakActive, act.Active)
	if l.tracer != nil {
		l.tracer.Phase(act)
		if l.timed {
			l.traceRoundTime(act.Round)
		}
	}
	if l.onRound != nil {
		l.onRound(act)
	}
	if l.timed {
		// Hook and tracer time belongs to neither round: re-arm the
		// boundary timestamp after the callbacks return.
		l.lastTick = time.Now()
	}
}

// classify files every machine stepped this iteration by the status it
// returned — a yielder asks for the next round, a parker waits for a
// delivery or quiescence, a retiree leaves for good — narrating parks and
// retirements, and collects the vertices whose step queued sends into
// e.dirty, sorted by id. The retire-flush rule needs no case of its own:
// a retiring step's sends are its last words, committed by the
// retirement, and ride the round in flight like any other.
func (e *engine) classify() {
	e.yielded = e.yielded[:0]
	e.dirty = e.dirty[:0]
	for _, c := range e.active {
		switch e.status[c.id] {
		case StepYield:
			e.yielded = append(e.yielded, c)
		case StepPark:
			e.parked++
			e.traceBlocked(TracePark, c.id)
		case StepDone:
			e.retired++
			e.traceBlocked(TraceRetire, c.id)
		}
		if c.hasSends() {
			e.dirty = append(e.dirty, c)
		}
	}
	slices.SortFunc(e.dirty, func(a, b *Ctx) int { return a.id - b.id })
}

// meter sizes the iteration's pending sends. Each sender is metered on
// its own (in parallel for large rounds, each part of the senders with
// its own scratch) and the reports merge in ascending sender order, so
// the first violation is the lowest-id violator's.
func (e *engine) meter() MeterReport {
	m := MeterReport{ViolSender: -1}
	if e.routePar <= 1 || len(e.dirty) < parallelThreshold {
		e.meterRange(&m, &e.meters[0], e.dirty)
		return m
	}
	parts := make([]MeterReport, e.routePar)
	for p := range parts {
		parts[p].ViolSender = -1
	}
	inParallel(len(e.dirty), e.routePar, func(p, lo, hi int) {
		e.meterRange(&parts[p], &e.meters[p], e.dirty[lo:hi])
	})
	for p := range parts {
		m.merge(&parts[p])
	}
	return m
}

// meterRange merges the metering of senders, in order, into m, first
// sizing the scratch s to the largest sender's degree.
func (e *engine) meterRange(m *MeterReport, s *meterScratch, senders []*Ctx) {
	deg := 0
	for _, c := range senders {
		deg = max(deg, len(c.nbrs))
	}
	if len(s.edgeBits) < deg {
		s.edgeBits = make([]int, deg)
	}
	for _, c := range senders {
		r := e.meterSender(c, s)
		m.merge(&r)
	}
}

// inParallel splits [0, n) into at most workers contiguous chunks, runs
// fn on each in its own goroutine (part is the chunk's index), and
// returns once all are done.
func inParallel(n, workers int, fn func(part, lo, hi int)) {
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for p, lo := 0, 0; lo < n; p, lo = p+1, lo+chunk {
		wg.Add(1)
		go func(p, lo, hi int) {
			defer wg.Done()
			fn(p, lo, hi)
		}(p, lo, min(lo+chunk, n))
	}
	wg.Wait()
}

// flushWakes reports whether any pending send targets a vertex that is
// still alive — i.e. whether delivering would be observable as a round.
// Parked receivers count: a delivery would wake them. In-process only;
// a shard worker answers the same question for its range in wakeScan.
func (e *engine) flushWakes() bool {
	for _, c := range e.dirty {
		for _, p := range c.outTo {
			if e.status[c.nbrs[p]] != StepDone {
				return true
			}
		}
	}
	return false
}

// deliver carries out a decided round's sends in global ascending-sender
// order: the inbound batches in (indexed by source shard; nil
// in-process), with this engine's own senders, each in send order, at
// its own shard position. Under a contiguous partition that is exactly
// the ascending order of every sender in the run, which is what makes
// each vertex's transcript and inbox order identical however the run is
// partitioned. It walks that order twice:
//
//   - The sizing pass narrates every own send (a Send event stamped with
//     Stats.Rounds, the committed round or, on a finish or quiesce
//     verdict, the last one; records for other shards were shipped in
//     batches) and counts every delivery to a live vertex here (count),
//     waking parked receivers in first-delivery order. Deliveries to
//     retired vertices were metered and are simply dropped.
//   - carve then cuts every receiver's inbox from the engine's one inbox
//     arena, and the fill pass copies each delivered record once into the
//     round's table and writes the receivers' InRec entries pointing at
//     it.
//
// Afterwards every own sender's queue is empty and its tail arenas
// swapped.
func (e *engine) deliver(in []RecBatch) {
	e.deliv, e.delivBits = 0, 0
	// rows bounds the table rows the fill pass writes.
	rows := 0
	for s := range max(len(in), 1) { // in-process: position 0 alone, ours
		if s != e.shard {
			b := &in[s]
			for ri := range b.Recs {
				br := &b.Recs[ri]
				e.count(int(br.From), int(br.To), br.Tag, br.Bits)
			}
			rows += len(b.Recs)
			continue
		}
		for _, c := range e.dirty {
			for hi := range c.outHdrs {
				h := &c.outHdrs[hi]
				for _, p := range c.run(hi) {
					to := c.nbrs[p]
					if e.tracer != nil {
						e.tracer.Event(TraceEvent{Kind: TraceSend, Round: e.stats.Rounds, V: c.id, Peer: to, Tag: h.tag, Bits: int(h.bits)})
					}
					if to >= e.lo && to < e.hi {
						e.count(c.id, to, h.tag, h.bits)
					}
				}
			}
			rows += len(c.outHdrs)
		}
	}
	e.carve(rows)
	for s := range max(len(in), 1) {
		if s != e.shard {
			b := &in[s]
			for ri := range b.Recs {
				br := &b.Recs[ri]
				if to := int(br.To); e.status[to] != StepDone {
					e.table = append(e.table, br.rec(b.Ints))
					e.land(int(br.From), to, &e.table[len(e.table)-1])
				}
			}
			continue
		}
		for _, c := range e.dirty {
			for hi := range c.outHdrs {
				var r *Rec // the record's table row, written on first delivery
				for _, p := range c.run(hi) {
					to := c.nbrs[p]
					if to < e.lo || to >= e.hi || e.status[to] == StepDone {
						continue
					}
					if r == nil {
						e.table = append(e.table, c.outHdrs[hi].rec(c.outInts))
						r = &e.table[len(e.table)-1]
					}
					e.land(c.id, to, r)
				}
			}
			c.clearSends()
		}
	}
	for _, v := range e.recv {
		e.inCnt[v] = 0
	}
	e.recv = e.recv[:0]
}

// count is the sizing pass's step for one record from vertex from to
// vertex to: unless to has retired, it counts the delivery (and, when
// metering deliveries, its bits), narrates it, and wakes a parked
// receiver, queuing it in e.woken.
func (e *engine) count(from, to int, tag uint8, bits int64) {
	st := e.status[to]
	if st == StepDone {
		return
	}
	if e.meterDlv {
		e.deliv++
		e.delivBits += bits
	}
	if e.tracer != nil {
		e.tracer.Event(TraceEvent{Kind: TraceDeliver, Round: e.stats.Rounds, V: to, Peer: from, Tag: tag, Bits: int(bits)})
	}
	if e.inCnt[to] == 0 {
		e.recv = append(e.recv, int32(to))
	}
	e.inCnt[to]++
	if st == StepPark {
		e.status[to] = StepYield
		e.parked--
		e.woken = append(e.woken, e.ctxs[to])
		if e.tracer != nil {
			e.tracer.Event(TraceEvent{Kind: TraceWake, Round: e.stats.Rounds, V: to, Peer: from})
		}
	}
}

// carve sizes the inbox arena to the round's deliveries and the record
// table to rows, hands every receiver its inbox — a slice of the arena,
// in first-delivery order — and turns each receiver's count into its
// fill cursor. Growing the arena or the table only drops last round's
// copies, which no step reads any more.
func (e *engine) carve(rows int) {
	total := 0
	for _, v := range e.recv {
		total += int(e.inCnt[v])
	}
	e.inbox = slices.Grow(e.inbox[:0], total)[:total]
	e.table = slices.Grow(e.table[:0], rows)
	off := int32(0)
	for _, v := range e.recv {
		end := off + e.inCnt[v]
		e.ins[v].Recs = e.inbox[off:end:end]
		e.inCnt[v] = off
		off = end
	}
}

// land writes one delivery into receiver to's inbox at its fill cursor.
// The table must not grow while inboxes point into it: carve reserved
// every row the fill pass writes.
func (e *engine) land(from, to int, r *Rec) {
	e.inbox[e.inCnt[to]] = InRec{From: from, Rec: r}
	e.inCnt[to]++
}

// rebuild forms the next round's active set after a commit: the
// yielders, then the vertices the round's deliveries woke. deliver has
// already handed every receiver its inbox.
func (e *engine) rebuild() {
	e.active = append(append(e.active[:0], e.yielded...), e.woken...)
	e.woken = e.woken[:0]
}

// quiesce runs the inert post-quiescence epilogue (stepEpilogue) for
// every parked vertex of this engine, in id order, after a quiesce
// verdict. A machine panic there becomes e.abort.
func (e *engine) quiesce() {
	for _, c := range e.ctxs[e.lo:e.hi] {
		if e.status[c.id] != StepPark {
			continue
		}
		e.stepEpilogue(e.machines[c.id], c)
		if e.abort != nil {
			return
		}
	}
	e.parked = 0
}
