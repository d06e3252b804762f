package dist

import (
	"fmt"
	"runtime"
	"sort"
)

// The worker half of the sharded runner: ServeShard owns a contiguous
// vertex range and drives it with the step engine's machinery (stepMachines,
// stepEpilogue, meterSender — the same code paths as runStep), while the
// round/quiescence decisions move to the coordinator (coord.go). The
// loop is runStep with its global checks replaced by protocol frames:
//
//	step actives            → classify, pre-meter, ship batches (FrameRound)
//	receive inbound batches (FrameBatches)
//	dry-scan deliveries     → would anything wake? (FrameWake)
//	receive the decision    (FrameDecision)
//	  Commit r  → apply deliveries (trace-faithful), step again
//	  Quiesce   → meter-and-drop last words, run the parked epilogue
//	  Finish    → meter-and-drop last words
//	  Abort     → discard everything
//
// Delivery order: the apply pass walks source shards in index order and,
// within its own shard's position, its own dirty senders in ascending id
// — with a contiguous partition that is exactly route's global
// ascending-sender order, so per-vertex trace transcripts (and arena
// inbox order) come out identical to the in-process engine.

// shardRecorder buffers the worker's per-vertex trace events for the
// ResultFrame. Phase snapshots are emitted by the coordinator (it owns
// the global activity counts) and the timing channel does not exist on
// the sharded path.
type shardRecorder struct {
	lo     int
	events [][]TraceEvent
}

func (r *shardRecorder) Event(ev TraceEvent) {
	r.events[ev.V-r.lo] = append(r.events[ev.V-r.lo], ev)
}

func (r *shardRecorder) Phase(RoundActivity)   {}
func (r *shardRecorder) RoundTime(RoundTiming) {}

// shardWorker is the state of one ServeShard call.
type shardWorker struct {
	wt      WorkerTransport
	e       *engine
	shard   int
	workers int
	cuts    []int
	lo, hi  int

	machines []Machine
	status   []StepStatus
	ins      []StepIn
	active   []*Ctx
	yielded  []*Ctx
	dirty    []*Ctx
	woken    []*Ctx

	parkedCnt int
	doneCnt   int

	// wakeStamp/iterNo implement the dry wake scan's distinct-target
	// counting without mutating vertex state.
	wakeStamp []int
	iterNo    int

	rec     *shardRecorder
	collect bool
	output  func(v int) []int
}

// ServeShard runs one worker: receive the setup frame, resolve the
// program, and speak the round protocol until the coordinator's final
// decision. It returns nil on a clean run or a coordinator-initiated
// abort, and an error for local failures (which are also reported to the
// coordinator through the protocol so the whole run aborts cleanly).
func ServeShard(wt WorkerTransport, resolve ProgramResolver) error {
	defer wt.Close()
	f, err := wt.Recv()
	if err != nil {
		return err
	}
	if f.Type != FrameSetup || f.Setup == nil {
		return fmt.Errorf("%w: expected setup frame, got type %d", ErrTransport, f.Type)
	}
	su := f.Setup
	w, err := newShardWorker(wt, su, resolve)
	if err != nil {
		return failSetup(wt, err)
	}
	return w.run()
}

// failSetup reports a setup-time failure through the protocol: the
// coordinator is waiting for the first RoundFrame, so the error rides
// one, and the worker drains to the abort decision like any other
// failing shard.
func failSetup(wt WorkerTransport, cause error) error {
	rf := &RoundFrame{Err: cause.Error(), Meter: MeterReport{ViolSender: -1}}
	if err := wt.Send(&Frame{Type: FrameRound, Round: rf}); err != nil {
		return cause
	}
	drainToAbort(wt)
	wt.Send(&Frame{Type: FrameResult, Result: &ResultFrame{Err: cause.Error()}})
	return cause
}

// drainToAbort consumes frames until the coordinator's abort decision
// (or a transport failure), keeping the two sides in lockstep.
func drainToAbort(wt WorkerTransport) {
	for {
		f, err := wt.Recv()
		if err != nil {
			return
		}
		if f.Type == FrameDecision && f.Decision != nil && f.Decision.Kind == DecideAbort {
			return
		}
	}
}

func newShardWorker(wt WorkerTransport, su *SetupFrame, resolve ProgramResolver) (*shardWorker, error) {
	if su.Graph == nil {
		return nil, fmt.Errorf("%w: setup frame without a graph", ErrTransport)
	}
	n := su.Graph.N()
	if su.Workers < 1 || su.Shard < 0 || su.Shard >= su.Workers {
		return nil, fmt.Errorf("%w: shard %d of %d workers", ErrTransport, su.Shard, su.Workers)
	}
	if len(su.Cuts) != su.Workers+1 || su.Cuts[0] != 0 || su.Cuts[su.Workers] != n {
		return nil, fmt.Errorf("%w: malformed partition (cuts %v over %d vertices)", ErrTransport, su.Cuts, n)
	}
	for i := 0; i < su.Workers; i++ {
		if su.Cuts[i] > su.Cuts[i+1] {
			return nil, fmt.Errorf("%w: partition not ascending at shard %d", ErrTransport, i)
		}
	}
	if su.Cut != nil && len(su.Cut) != n {
		return nil, fmt.Errorf("dist: CutSide has %d entries for %d vertices", len(su.Cut), n)
	}
	prog, err := resolve(su.Algo, su.Graph, su.Seed)
	if err != nil {
		return nil, err
	}
	if prog.Factory == nil {
		return nil, fmt.Errorf("dist: program %q resolved without a machine factory", su.Algo)
	}
	g := su.Graph
	if prog.Graph != nil {
		if prog.Graph.N() != n {
			return nil, fmt.Errorf("dist: program graph has %d vertices, setup graph %d", prog.Graph.N(), n)
		}
		g = prog.Graph
	}
	lo, hi := su.Cuts[su.Shard], su.Cuts[su.Shard+1]
	var rec *shardRecorder
	var tr Tracer
	if su.Trace {
		rec = &shardRecorder{lo: lo, events: make([][]TraceEvent, hi-lo)}
		tr = rec
	}
	e := &engine{
		g: g, n: n,
		bandwidth: su.Bandwidth,
		cut:       su.Cut,
		routePar:  1,
		stepPar:   runtime.GOMAXPROCS(0),
		tracer:    tr,
	}
	e.ctxs = make([]*Ctx, n)
	w := &shardWorker{
		wt: wt, e: e, shard: su.Shard, workers: su.Workers, cuts: su.Cuts,
		lo: lo, hi: hi,
		machines:  make([]Machine, n),
		status:    make([]StepStatus, n),
		ins:       make([]StepIn, n),
		active:    make([]*Ctx, 0, hi-lo),
		wakeStamp: make([]int, hi-lo),
		rec:       rec,
		collect:   su.Collect,
		output:    prog.Output,
	}
	for v := lo; v < hi; v++ {
		c := newCtx(e, v, su.Seed)
		e.ctxs[v] = c
		w.machines[v] = prog.Factory(c)
		w.ins[v] = StepIn{Start: true}
		w.active = append(w.active, c)
	}
	return w, nil
}

// run is the worker's protocol loop.
func (w *shardWorker) run() error {
	for {
		w.e.stepMachines(w.machines, w.status, w.ins, w.active)
		if w.e.abort != nil {
			return w.failRound(w.e.abort)
		}
		rf, err := w.classify()
		if err != nil {
			return w.failRound(err)
		}
		if err := w.wt.Send(&Frame{Type: FrameRound, Round: rf}); err != nil {
			return err
		}
		f, err := w.wt.Recv()
		if err != nil {
			return err
		}
		var in []RecBatch
		switch {
		case f.Type == FrameBatches && f.Batches != nil:
			in = f.Batches.In
		case f.Type == FrameDecision && f.Decision != nil && f.Decision.Kind == DecideAbort:
			w.discard()
			return w.sendAbortResult()
		default:
			return fmt.Errorf("%w: expected batches frame, got type %d", ErrTransport, f.Type)
		}
		if len(in) != w.workers {
			return fmt.Errorf("%w: batches frame with %d shards, want %d", ErrTransport, len(in), w.workers)
		}
		if err := w.wt.Send(&Frame{Type: FrameWake, Wake: w.wakeScan(in)}); err != nil {
			return err
		}
		f, err = w.wt.Recv()
		if err != nil {
			return err
		}
		if f.Type != FrameDecision || f.Decision == nil {
			return fmt.Errorf("%w: expected decision frame, got type %d", ErrTransport, f.Type)
		}
		switch d := f.Decision; d.Kind {
		case DecideCommit:
			w.commit(in, d.Round)
		case DecideQuiesce:
			w.applyDrop()
			w.e.quiesced = true
			var epErr error
			for v := w.lo; v < w.hi; v++ {
				c := w.e.ctxs[v]
				if !c.parked {
					continue
				}
				c.parked = false
				w.e.stepEpilogue(w.machines[v], c)
				if w.e.abort != nil {
					epErr = w.e.abort
					break
				}
			}
			w.parkedCnt = 0
			return w.sendResult(epErr)
		case DecideFinish:
			w.applyDrop()
			return w.sendResult(nil)
		case DecideAbort:
			w.discard()
			return w.sendAbortResult()
		default:
			return fmt.Errorf("%w: unknown decision kind %d", ErrTransport, d.Kind)
		}
	}
}

// failRound reports a local failure (machine panic, boxed send) on the
// current iteration's RoundFrame, drains to the abort decision, and
// ships the final ResultFrame carrying the same error.
func (w *shardWorker) failRound(cause error) error {
	rf := &RoundFrame{Err: cause.Error(), Meter: MeterReport{ViolSender: -1}}
	if err := w.wt.Send(&Frame{Type: FrameRound, Round: rf}); err != nil {
		return cause
	}
	drainToAbort(w.wt)
	w.discard()
	w.wt.Send(&Frame{Type: FrameResult, Result: &ResultFrame{Err: cause.Error()}})
	return cause
}

// classify mirrors runStep's post-step scan: sort the dirty senders,
// emit Park/Retire trace events with runStep's stamps, pre-meter every
// sender (meterSender is round-independent, so metering can happen
// before the coordinator assigns the round number), and pack the
// cross-shard batches.
func (w *shardWorker) classify() (*RoundFrame, error) {
	rf := &RoundFrame{Stepped: len(w.active)}
	w.yielded = w.yielded[:0]
	w.dirty = w.dirty[:0]
	for _, c := range w.active {
		switch w.status[c.id] {
		case StepYield:
			w.yielded = append(w.yielded, c)
			if c.hasSends() {
				w.dirty = append(w.dirty, c)
			}
		case StepPark:
			c.parked = true
			w.e.traceBlocked(TracePark, c.id)
			w.parkedCnt++
			if c.hasSends() {
				w.dirty = append(w.dirty, c)
			}
		case StepDone:
			c.done = true
			w.e.traceBlocked(TraceRetire, c.id)
			// Retire-flush: a retiring vertex's sends are committed by the
			// retirement itself (see engine.finish).
			if c.hasSends() {
				w.dirty = append(w.dirty, c)
			} else {
				c.clearSends()
			}
			w.doneCnt++
		}
	}
	sort.Slice(w.dirty, func(i, j int) bool { return w.dirty[i].id < w.dirty[j].id })
	rf.Yielded = len(w.yielded)
	rf.ParkedNow = w.parkedCnt
	rf.DoneTotal = w.doneCnt
	rf.Senders = len(w.dirty)
	rf.Meter = MeterReport{ViolSender: -1}
	rf.Out = make([]RecBatch, w.workers)
	for _, c := range w.dirty {
		if len(c.outbox) > 0 {
			return nil, fmt.Errorf("%w (vertex %d queued a boxed payload; use SendRec)", ErrBoxedSend, c.id)
		}
		rf.Meter.fold(c.id, w.e.meterSender(c))
		for ri := range c.outRecs {
			o := &c.outRecs[ri]
			dst := shardOf(w.cuts, int(o.to))
			if dst == w.shard {
				continue
			}
			var tail []int
			if o.n > 0 {
				tail = c.outInts[o.off : o.off+o.n]
			}
			rf.Out[dst].add(c.id, o, tail)
		}
	}
	return rf, nil
}

// wakeScan is the dry half of flushWakes plus the delivery
// counters: scan every pending delivery into this shard — own-local
// sends still sitting in the sender arenas plus the inbound batches —
// without applying anything.
func (w *shardWorker) wakeScan(in []RecBatch) *WakeFrame {
	w.iterNo++
	wf := &WakeFrame{}
	scan := func(to int, bits int64) {
		c := w.e.ctxs[to]
		if c.done {
			return
		}
		wf.WouldWake = true
		wf.Delivered++
		wf.DeliveredBits += bits
		if c.parked && w.wakeStamp[to-w.lo] != w.iterNo {
			w.wakeStamp[to-w.lo] = w.iterNo
			wf.Woken++
		}
	}
	for _, c := range w.dirty {
		for ri := range c.outRecs {
			o := &c.outRecs[ri]
			if w.owned(int(o.to)) {
				scan(int(o.to), o.bits)
			}
		}
	}
	for s := range in {
		if s == w.shard {
			continue
		}
		for ri := range in[s].Recs {
			scan(int(in[s].Recs[ri].To), in[s].Recs[ri].Bits)
		}
	}
	return wf
}

func (w *shardWorker) owned(v int) bool { return v >= w.lo && v < w.hi }

// commit applies a committed round r: advance the round counter (which
// stamps the trace events), deliver in global ascending-sender order,
// and rebuild the active set exactly like runStep's round epilogue.
func (w *shardWorker) commit(in []RecBatch, r int) {
	w.e.stats.Rounds = r
	w.woken = w.woken[:0]
	w.apply(in, false)
	w.parkedCnt -= len(w.woken)
	w.active = w.active[:0]
	for _, c := range w.yielded {
		w.ins[c.id] = StepIn{Recs: c.takeRecs(), Msgs: c.takeMessages()}
		w.active = append(w.active, c)
	}
	for _, c := range w.woken {
		w.ins[c.id] = StepIn{Recs: c.takeRecs(), Msgs: c.takeMessages()}
		w.active = append(w.active, c)
	}
	w.woken = w.woken[:0]
}

// applyDrop is the meter-and-drop pass of the Finish/Quiesce decisions:
// last words are metered (already, at classify) and traced as sends at
// the final uncharged round, but nothing is delivered — the coordinator
// only decides Finish/Quiesce when every pending target has retired.
func (w *shardWorker) applyDrop() {
	w.woken = w.woken[:0]
	w.apply(nil, true)
}

// apply walks the round's deliveries in global ascending-sender order:
// source shards in index order, with this shard's own dirty senders (in
// ascending id) at its own position. Every own record yields a
// TraceSend; a delivery to a live owned vertex yields TraceDeliver (and
// TraceWake when it unparks), exactly like route's serial loop.
func (w *shardWorker) apply(in []RecBatch, drop bool) {
	for s := 0; s < w.workers; s++ {
		if s == w.shard {
			for _, c := range w.dirty {
				for ri := range c.outRecs {
					o := &c.outRecs[ri]
					if w.e.tracer != nil {
						w.e.tracer.Event(TraceEvent{Kind: TraceSend, Round: w.e.stats.Rounds, V: c.id, Peer: int(o.to), Tag: o.tag, Bits: int(o.bits)})
					}
					if drop || !w.owned(int(o.to)) {
						continue
					}
					var tail []int
					if o.n > 0 {
						tail = c.outInts[o.off : o.off+o.n]
					}
					w.deliver(c.id, int(o.to), Rec{Tag: o.tag, Flag: o.flag, A: o.a, B: o.b, F0: o.f0, F1: o.f1, F2: o.f2}, o.bits, tail)
				}
			}
			continue
		}
		if drop || in == nil {
			continue
		}
		b := &in[s]
		for ri := range b.Recs {
			br := &b.Recs[ri]
			var tail []int
			if br.N > 0 {
				tail = b.Ints[br.Off : br.Off+br.N]
			}
			w.deliver(int(br.From), int(br.To), Rec{Tag: br.Tag, Flag: br.Flag, A: br.A, B: br.B, F0: br.F0, F1: br.F1, F2: br.F2}, br.Bits, tail)
		}
	}
	for _, c := range w.dirty {
		c.clearSends()
	}
	w.dirty = w.dirty[:0]
}

// deliver copies one record into the receiving vertex's arena, flipping
// a parked receiver awake — route's record-delivery body.
func (w *shardWorker) deliver(from, to int, rec Rec, bits int64, tail []int) {
	c := w.e.ctxs[to]
	if c.done {
		return
	}
	if w.e.tracer != nil {
		w.e.tracer.Event(TraceEvent{Kind: TraceDeliver, Round: w.e.stats.Rounds, V: to, Peer: from, Tag: rec.Tag, Bits: int(bits)})
	}
	off := int32(len(c.inInts))
	n := int32(len(tail))
	if n > 0 {
		c.inInts = append(c.inInts, tail...)
	}
	c.inRecs = append(c.inRecs, InRec{From: from, Rec: rec, off: off, n: n})
	if c.parked {
		c.parked = false
		w.woken = append(w.woken, c)
		if w.e.tracer != nil {
			w.e.tracer.Event(TraceEvent{Kind: TraceWake, Round: w.e.stats.Rounds, V: to, Peer: from})
		}
	}
}

// discard drops all pending sends on an abort: an aborted run delivers
// nothing further.
func (w *shardWorker) discard() {
	for _, c := range w.dirty {
		c.clearSends()
	}
	w.dirty = w.dirty[:0]
}

// sendAbortResult acknowledges a coordinator-initiated abort with an
// empty result frame: the run did not finish, so no outputs or events
// ship.
func (w *shardWorker) sendAbortResult() error {
	return w.wt.Send(&Frame{Type: FrameResult, Result: &ResultFrame{}})
}

// sendResult ships the shard's final frame: per-vertex outputs (when
// collecting), the buffered trace events, and any epilogue error.
func (w *shardWorker) sendResult(cause error) error {
	res := &ResultFrame{}
	if cause != nil {
		res.Err = cause.Error()
	} else {
		if w.collect && w.output != nil {
			res.Outputs = make([][]int, w.hi-w.lo)
			for v := w.lo; v < w.hi; v++ {
				res.Outputs[v-w.lo] = w.output(v)
			}
		}
		if w.rec != nil {
			res.Events = w.rec.events
		}
	}
	if err := w.wt.Send(&Frame{Type: FrameResult, Result: res}); err != nil {
		if cause != nil {
			return cause
		}
		return err
	}
	return cause
}
