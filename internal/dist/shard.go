package dist

import (
	"fmt"
	"runtime"
)

// The worker half of the sharded runner: ServeShard owns a contiguous
// vertex range and drives the round core (round.go) on it, while the
// round rule runs on the coordinator (coord.go). The loop is runStep with
// the rule replaced by protocol frames:
//
//	step actives, classify  → report counts, metering, batches (FrameRound)
//	receive inbound batches (FrameBatches)
//	dry-scan deliveries     → would anything wake? (FrameWake)
//	receive the verdict     (FrameDecision)
//	  Commit r  → deliver (trace-faithful), rebuild, step again
//	  Quiesce   → deliver last words, run the parked epilogue
//	  Finish    → deliver last words
//	  Abort     → stop
//
// Delivery order: deliver walks source shards in index order with this
// shard's own senders (ascending id) at its own position — with a
// contiguous partition, exactly the in-process global ascending-sender
// order, so per-vertex trace transcripts (and inbox order) come out
// identical to the in-process engine.

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

// shardWorker is the state of one ServeShard call: the engine over the
// shard's vertex range plus the protocol plumbing.
type shardWorker struct {
	wt      WorkerTransport
	e       *engine
	workers int
	cuts    []int

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
	if su.Workers < 1 || su.Shard < 0 || su.Shard >= su.Workers {
		return nil, fmt.Errorf("%w: shard %d of %d workers", ErrTransport, su.Shard, su.Workers)
	}
	prog, err := resolve(su.Algo, su.Seed)
	if err != nil {
		return nil, err
	}
	switch {
	case prog.Graph == nil:
		return nil, fmt.Errorf("dist: program %q resolved without a graph", su.Algo)
	case prog.Factory == nil:
		return nil, fmt.Errorf("dist: program %q resolved without a machine factory", su.Algo)
	}
	// A worker that rebuilt another instance would run another protocol
	// on its shard.
	if fp := prog.Graph.Fingerprint(); fp != su.Fingerprint {
		return nil, fmt.Errorf("dist: program graph fingerprint %016x, setup's %016x", fp, su.Fingerprint)
	}
	if prog.Bandwidth != su.Bandwidth {
		return nil, fmt.Errorf("dist: program budget %d bits, setup's %d", prog.Bandwidth, su.Bandwidth)
	}
	g := prog.Graph
	n := g.N()
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
	lo, hi := su.Cuts[su.Shard], su.Cuts[su.Shard+1]
	var rec *shardRecorder
	var tr Tracer
	if su.Trace {
		rec = &shardRecorder{lo: lo, events: make([][]TraceEvent, hi-lo)}
		tr = rec
	}
	e := &engine{
		ledger: ledger{bandwidth: prog.Bandwidth, tracer: tr},
		g:      g, n: n, lo: lo, hi: hi, shard: su.Shard,
		cut:      su.Cut,
		routePar: 1,
		stepPar:  runtime.GOMAXPROCS(0),
	}
	e.start(su.Seed, prog.Factory)
	return &shardWorker{
		wt: wt, e: e, workers: su.Workers, cuts: su.Cuts,
		wakeStamp: make([]int, hi-lo),
		rec:       rec,
		collect:   su.Collect,
		output:    prog.Output,
	}, nil
}

// run is the worker's protocol loop.
func (w *shardWorker) run() error {
	e := w.e
	for {
		e.stepMachines()
		if e.abort != nil {
			return w.failRound(e.abort)
		}
		e.classify()
		if err := w.wt.Send(&Frame{Type: FrameRound, Round: w.report()}); err != nil {
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
		d := f.Decision
		switch d.Kind {
		case DecideAbort:
			return w.sendAbortResult()
		case DecideCommit, DecideQuiesce, DecideFinish:
		default:
			return fmt.Errorf("%w: unknown decision kind %d", ErrTransport, d.Kind)
		}
		// The verdict's round stamps the deliveries: the committed round,
		// or the last one for the last words of a finish or quiesce.
		e.stats.Rounds = d.Round
		e.deliver(in)
		switch d.Kind {
		case DecideQuiesce:
			e.quiesce()
			return w.sendResult(e.abort)
		case DecideFinish:
			return w.sendResult(nil)
		}
		e.rebuild()
	}
}

// failRound reports a local failure (a machine panic) on the current
// iteration's RoundFrame, drains to the abort decision, and ships the
// final ResultFrame carrying the same error.
func (w *shardWorker) failRound(cause error) error {
	rf := &RoundFrame{Err: cause.Error(), Meter: MeterReport{ViolSender: -1}}
	if err := w.wt.Send(&Frame{Type: FrameRound, Round: rf}); err != nil {
		return cause
	}
	drainToAbort(w.wt)
	w.wt.Send(&Frame{Type: FrameResult, Result: &ResultFrame{Err: cause.Error()}})
	return cause
}

// report packs the iteration's RoundFrame after classify: the counts the
// round rule sums, the senders' metering (meterSender does not depend on
// the round number, so it runs before the verdict), and the records bound
// for other shards.
func (w *shardWorker) report() *RoundFrame {
	e := w.e
	rf := &RoundFrame{
		Stepped: len(e.active), Yielded: len(e.yielded), ParkedNow: e.parked,
		DoneTotal: e.retired, Senders: len(e.dirty),
		Meter: e.meter(),
		Out:   make([]RecBatch, w.workers),
	}
	for _, c := range e.dirty {
		for hi := range c.outHdrs {
			for _, p := range c.run(hi) {
				to := c.nbrs[p]
				if dst := shardOf(w.cuts, to); dst != e.shard {
					rf.Out[dst].add(c.id, to, &c.outHdrs[hi].recKey, c.outInts)
				}
			}
		}
	}
	return rf
}

// wakeScan is this shard's share of the round rule's wakes fact plus the
// delivery counters: scan every pending delivery into this shard —
// own-local sends still sitting in the sender arenas plus the inbound
// batches — without applying anything.
func (w *shardWorker) wakeScan(in []RecBatch) *WakeFrame {
	e := w.e
	w.iterNo++
	wf := &WakeFrame{}
	scan := func(to int, bits int64) {
		st := e.status[to]
		if st == StepDone {
			return
		}
		wf.WouldWake = true
		wf.Delivered++
		wf.DeliveredBits += bits
		if st == StepPark && w.wakeStamp[to-e.lo] != w.iterNo {
			w.wakeStamp[to-e.lo] = w.iterNo
			wf.Woken++
		}
	}
	for _, c := range e.dirty {
		for hi := range c.outHdrs {
			for _, p := range c.run(hi) {
				if to := c.nbrs[p]; to >= e.lo && to < e.hi {
					scan(to, c.outHdrs[hi].bits)
				}
			}
		}
	}
	for s := range in {
		if s == e.shard {
			continue
		}
		for ri := range in[s].Recs {
			scan(int(in[s].Recs[ri].To), in[s].Recs[ri].Bits)
		}
	}
	return wf
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
			lo, hi := w.e.lo, w.e.hi
			res.Outputs = make([][]int, hi-lo)
			for v := lo; v < hi; v++ {
				res.Outputs[v-lo] = w.output(v)
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
