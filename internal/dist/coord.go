package dist

import (
	"errors"
	"fmt"
	"sync"

	"distspanner/internal/graph"
)

// The coordinator half of the sharded runner. Coordinate owns exactly
// the global decisions of runStep — finish when every vertex retired,
// quiesce when nobody yielded and no pending delivery can wake anyone,
// abort on the round limit / cancellation / an enforced bandwidth
// violation — and the global accounting (Stats, RoundActivity, the
// OnRound hook, Phase snapshots). Everything per-vertex stays on the
// workers. The decisions are taken in runStep's exact order with
// runStep's exact error formats, which is what makes a distributed run
// indistinguishable from an in-process run: same Stats, same
// per-vertex trace digests, same errors.

// ShardError is a worker-side failure (machine panic, boxed send,
// program resolution) surfaced through the protocol; the coordinator
// aborts the run and returns it.
type ShardError struct {
	Shard int
	Msg   string
}

func (e *ShardError) Error() string { return fmt.Sprintf("dist: shard %d: %s", e.Shard, e.Msg) }

// CoordConfig configures a Coordinate run. The engine-semantics fields
// (Graph, Seed, Bandwidth, Enforce, MaxRounds, CutSide, OnRound, Cancel,
// Tracer) mean exactly what they mean on Config.
type CoordConfig struct {
	Graph     *graph.Graph
	Seed      int64
	Algo      string
	Bandwidth int
	Enforce   bool
	MaxRounds int
	CutSide   []bool
	OnRound   func(RoundActivity)
	Cancel    <-chan struct{}
	// Tracer receives the run's logical transcript: Phase snapshots live
	// at each committed round, per-vertex events replayed in vertex-major
	// order after the run completes (workers buffer them). The timing
	// channel (RoundTime) does not exist on the sharded path.
	Tracer Tracer
	// Collect asks workers to ship per-vertex program outputs, merged
	// into CoordResult.Outputs.
	Collect bool
}

// CoordResult is a completed distributed run.
type CoordResult struct {
	Stats Stats
	// Outputs is the per-vertex program output (Collect only; nil
	// entries for vertices whose program produced none).
	Outputs [][]int
}

// Coordinate drives one distributed run over the workers connected by
// ct: it partitions the graph contiguously, ships setup frames, runs
// the round/quiescence protocol, and merges Stats, activity, outputs,
// and trace events. On any abort — including a transport failure — it
// drains every worker's final frame (best effort) so no worker is left
// mid-protocol, and replays nothing into the tracer: a failed run's
// transcript contains no partial round.
func Coordinate(ct CoordTransport, cfg CoordConfig) (*CoordResult, error) {
	if cfg.Graph == nil {
		return nil, errors.New("dist: CoordConfig.Graph is nil")
	}
	n := cfg.Graph.N()
	if cfg.CutSide != nil && len(cfg.CutSide) != n {
		return nil, fmt.Errorf("dist: CutSide has %d entries for %d vertices", len(cfg.CutSide), n)
	}
	w := ct.Workers()
	if w < 1 {
		return nil, errors.New("dist: Coordinate needs at least one worker")
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	cuts := PartitionEven(n, w)
	trace := cfg.Tracer != nil
	meterDlv := cfg.OnRound != nil || trace
	for i := 0; i < w; i++ {
		su := &SetupFrame{
			Shard: i, Workers: w, Cuts: cuts, Graph: cfg.Graph,
			Algo: cfg.Algo, Seed: cfg.Seed, Bandwidth: cfg.Bandwidth,
			Cut: cfg.CutSide, Trace: trace, Collect: cfg.Collect,
		}
		if err := ct.Send(i, &Frame{Type: FrameSetup, Setup: su}); err != nil {
			return nil, fmt.Errorf("%w: setup to worker %d: %v", ErrTransport, i, err)
		}
	}

	var (
		stats   Stats
		rounds  int
		runErr  error
		reports = make([]*RoundFrame, w)
		wakes   = make([]*WakeFrame, w)
	)
	canceled := func() bool {
		if cfg.Cancel == nil {
			return false
		}
		select {
		case <-cfg.Cancel:
			return true
		default:
			return false
		}
	}
	// abortAll best-effort ships the abort decision to every worker so
	// they stop waiting for batches/decisions and send their final frame.
	abortAll := func() {
		d := &DecisionFrame{Kind: DecideAbort, Round: rounds}
		for i := 0; i < w; i++ {
			ct.Send(i, &Frame{Type: FrameDecision, Decision: d})
		}
	}
	fail := func(err error) {
		runErr = err
		abortAll()
	}

protocol:
	for {
		// Phase 1: gather every shard's classification/metering report.
		for i := 0; i < w; i++ {
			f, err := ct.Recv(i)
			if err != nil {
				runErr = fmt.Errorf("%w: round report from worker %d: %v", ErrTransport, i, err)
				abortAll()
				break protocol
			}
			if f.Type != FrameRound || f.Round == nil {
				runErr = fmt.Errorf("%w: expected round frame from worker %d, got type %d", ErrTransport, i, f.Type)
				abortAll()
				break protocol
			}
			reports[i] = f.Round
		}
		for i, r := range reports {
			if r.Err != "" {
				fail(&ShardError{Shard: i, Msg: r.Err})
				break protocol
			}
		}
		// Relay: worker d's inbound view is column d of the report matrix.
		for d := 0; d < w; d++ {
			bf := &BatchesFrame{In: make([]RecBatch, w)}
			for s := 0; s < w; s++ {
				if s == d || reports[s].Out == nil {
					continue
				}
				bf.In[s] = reports[s].Out[d]
			}
			if err := ct.Send(d, &Frame{Type: FrameBatches, Batches: bf}); err != nil {
				fail(fmt.Errorf("%w: batches to worker %d: %v", ErrTransport, d, err))
				break protocol
			}
		}
		// Phase 2: gather the dry wake scans.
		for i := 0; i < w; i++ {
			f, err := ct.Recv(i)
			if err != nil {
				fail(fmt.Errorf("%w: wake report from worker %d: %v", ErrTransport, i, err))
				break protocol
			}
			if f.Type != FrameWake || f.Wake == nil {
				fail(fmt.Errorf("%w: expected wake frame from worker %d, got type %d", ErrTransport, i, f.Type))
				break protocol
			}
			wakes[i] = f.Wake
		}

		// Decision, in runStep's order.
		var (
			sumStepped, sumYielded, sumParked, sumDone, sumSenders int
			sumWoken, sumDeliv                                     int
			sumDelivBits                                           int64
			anyWake                                                bool
			meter                                                  MeterReport
		)
		meter.ViolSender = -1
		for i := 0; i < w; i++ {
			r, wk := reports[i], wakes[i]
			sumStepped += r.Stepped
			sumYielded += r.Yielded
			sumParked += r.ParkedNow
			sumDone += r.DoneTotal
			sumSenders += r.Senders
			meter.Msgs += r.Meter.Msgs
			meter.Bits += r.Meter.Bits
			meter.CutBits += r.Meter.CutBits
			if r.Meter.MaxMsg > meter.MaxMsg {
				meter.MaxMsg = r.Meter.MaxMsg
			}
			if r.Meter.MaxEdge > meter.MaxEdge {
				meter.MaxEdge = r.Meter.MaxEdge
			}
			meter.Violations += r.Meter.Violations
			if r.Meter.ViolSender >= 0 && meter.ViolSender < 0 {
				// Shards are ascending vertex ranges gathered in index order,
				// so the first shard's first violator is the global first.
				meter.ViolSender, meter.ViolTo, meter.ViolBits = r.Meter.ViolSender, r.Meter.ViolTo, r.Meter.ViolBits
			}
			anyWake = anyWake || wk.WouldWake
			sumWoken += wk.Woken
			sumDeliv += wk.Delivered
			sumDelivBits += wk.DeliveredBits
		}
		foldMeter := func() {
			stats.Messages += meter.Msgs
			stats.TotalBits += meter.Bits
			stats.CutBits += meter.CutBits
			if meter.MaxMsg > stats.MaxMessageBits {
				stats.MaxMessageBits = meter.MaxMsg
			}
			if meter.MaxEdge > stats.MaxEdgeRoundBits {
				stats.MaxEdgeRoundBits = meter.MaxEdge
			}
			stats.BandwidthViolations += meter.Violations
		}
		bwErr := func(round int) error {
			return fmt.Errorf("%w: vertex %d sent %d bits to %d in round %d (budget %d)",
				ErrBandwidth, meter.ViolSender, meter.ViolBits, meter.ViolTo, round, cfg.Bandwidth)
		}
		decide := func(kind DecisionKind, round int) error {
			d := &DecisionFrame{Kind: kind, Round: round}
			for i := 0; i < w; i++ {
				if err := ct.Send(i, &Frame{Type: FrameDecision, Decision: d}); err != nil {
					return fmt.Errorf("%w: decision to worker %d: %v", ErrTransport, i, err)
				}
			}
			return nil
		}

		if sumDone == n {
			// Everyone retired: meter-and-drop last words without charging a
			// round — but an enforced violation in them still aborts, like
			// route would.
			if cfg.Enforce && meter.ViolSender >= 0 {
				fail(bwErr(rounds))
				break protocol
			}
			foldMeter()
			stats.Rounds = rounds
			if err := decide(DecideFinish, rounds); err != nil {
				fail(err)
			}
			break protocol
		}
		if sumYielded == 0 && !anyWake {
			// Nobody asked for another round and no pending delivery can wake
			// anyone: meter-and-drop, then quiesce the parked population.
			if cfg.Enforce && meter.ViolSender >= 0 {
				fail(bwErr(rounds))
				break protocol
			}
			foldMeter()
			stats.Rounds = rounds
			if err := decide(DecideQuiesce, rounds); err != nil {
				fail(err)
			}
			break protocol
		}
		r := rounds + 1
		if r > maxRounds {
			fail(fmt.Errorf("%w: %d rounds executed (MaxRounds %d)", ErrRoundLimit, r, maxRounds))
			break protocol
		}
		if canceled() {
			fail(fmt.Errorf("%w after %d rounds", ErrCanceled, r))
			break protocol
		}
		if cfg.Enforce && meter.ViolSender >= 0 {
			fail(bwErr(r))
			break protocol
		}
		rounds = r
		foldMeter()
		act := RoundActivity{Round: r, Active: sumStepped, Parked: sumParked - sumWoken, Senders: sumSenders}
		if meterDlv {
			act.Delivered, act.DeliveredBits = sumDeliv, sumDelivBits
		}
		stats.ActiveSteps += int64(act.Active)
		stats.ParkedSteps += int64(act.Parked)
		if act.Active > stats.PeakActive {
			stats.PeakActive = act.Active
		}
		if trace {
			cfg.Tracer.Phase(act)
		}
		if cfg.OnRound != nil {
			cfg.OnRound(act)
		}
		if err := decide(DecideCommit, r); err != nil {
			fail(err)
			break protocol
		}
	}

	// Drain one final frame per worker — on success and on abort alike —
	// so no worker is ever left blocked mid-send.
	var outputs [][]int
	if cfg.Collect {
		outputs = make([][]int, n)
	}
	var events [][]TraceEvent
	if trace {
		events = make([][]TraceEvent, n)
	}
	for i := 0; i < w; i++ {
		f, err := ct.Recv(i)
		if err != nil {
			if runErr == nil {
				runErr = fmt.Errorf("%w: result from worker %d: %v", ErrTransport, i, err)
			}
			continue
		}
		if f.Type != FrameResult || f.Result == nil {
			if runErr == nil {
				runErr = fmt.Errorf("%w: expected result frame from worker %d, got type %d", ErrTransport, i, f.Type)
			}
			continue
		}
		res := f.Result
		if res.Err != "" && runErr == nil {
			runErr = &ShardError{Shard: i, Msg: res.Err}
		}
		lo, hi := cuts[i], cuts[i+1]
		if outputs != nil && len(res.Outputs) == hi-lo {
			copy(outputs[lo:hi], res.Outputs)
		}
		if events != nil && len(res.Events) == hi-lo {
			copy(events[lo:hi], res.Events)
		}
	}
	if runErr != nil {
		return nil, runErr
	}
	if trace {
		// Replay the buffered per-vertex transcripts vertex-major. Each
		// vertex's order is exactly what the worker emitted; cross-vertex
		// interleaving is unobservable by contract (trace.go).
		for v := 0; v < n; v++ {
			for _, ev := range events[v] {
				cfg.Tracer.Event(ev)
			}
		}
	}
	return &CoordResult{Stats: stats, Outputs: outputs}, nil
}

// runSharded is RunMachines' Config.Shards path: the same machines, run
// distributed over an in-process channel transport — Coordinate on the
// calling goroutine, one ServeShard goroutine per shard, all sharing the
// caller's factory through a resolver closure. cfg is already validated.
func runSharded(cfg Config, factory func(*Ctx) Machine) (*Stats, error) {
	resolver := func(string, *graph.Graph, int64) (ShardProgram, error) {
		return ShardProgram{Factory: factory}, nil
	}
	ct, wts := NewChanCluster(cfg.Shards)
	var wg sync.WaitGroup
	for i := range wts {
		wg.Add(1)
		go func(wt WorkerTransport) {
			defer wg.Done()
			ServeShard(wt, resolver)
		}(wts[i])
	}
	res, err := Coordinate(ct, CoordConfig{
		Graph: cfg.Graph, Seed: cfg.Seed,
		Bandwidth: cfg.Bandwidth, Enforce: cfg.Enforce,
		MaxRounds: cfg.MaxRounds, CutSide: cfg.CutSide,
		OnRound: cfg.OnRound, Cancel: cfg.Cancel, Tracer: cfg.Tracer,
	})
	ct.Close()
	wg.Wait()
	if err != nil {
		return nil, err
	}
	s := res.Stats
	return &s, nil
}
