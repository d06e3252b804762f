package dist

import (
	"errors"
	"fmt"
	"sync"
)

// The coordinator half of the sharded runner. Coordinate owns the global
// half of the round core (round.go): it sums the workers' reports into
// the round rule's facts, asks the same rule runStep asks
// (ledger.decide), and folds each committed round into Stats, the
// OnRound hook, and the Phase snapshots (ledger.record). Everything
// per-vertex stays on the workers. One rule with one set of error
// formats is what makes a distributed run indistinguishable from an
// in-process run: same Stats, same per-vertex trace digests, same
// errors.

// ShardError is a worker-side failure (machine panic, program
// resolution) surfaced through the protocol; the coordinator aborts the
// run and returns it.
type ShardError struct {
	Shard int
	Msg   string
}

func (e *ShardError) Error() string { return fmt.Sprintf("dist: shard %d: %s", e.Shard, e.Msg) }

// CoordConfig configures a Coordinate run. The engine-semantics fields
// (Seed, MaxRounds, CutSide, OnRound, Cancel, Tracer) mean exactly what
// they mean on Config; the topology and budget are the program's.
type CoordConfig struct {
	Seed      int64
	Algo      string
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

// Coordinate drives one distributed run of prog over the workers
// connected by ct, each of which rebuilds prog from cfg.Algo and
// cfg.Seed: it partitions prog.Graph contiguously, ships setup frames
// carrying the graph's fingerprint and prog.Bandwidth, runs the
// round/quiescence protocol, and merges Stats, activity, outputs, and
// trace events. Only prog's Graph and Bandwidth are read here. On any
// abort — including a transport failure — it drains every worker's
// final frame (best effort) so no worker is left mid-protocol, and
// replays nothing into the tracer: a failed run's transcript contains
// no partial round.
func Coordinate(ct CoordTransport, prog ShardProgram, cfg CoordConfig) (*CoordResult, error) {
	if prog.Graph == nil {
		return nil, errors.New("dist: ShardProgram.Graph is nil")
	}
	n := prog.Graph.N()
	if cfg.CutSide != nil && len(cfg.CutSide) != n {
		return nil, fmt.Errorf("dist: CutSide has %d entries for %d vertices", len(cfg.CutSide), n)
	}
	w := ct.Workers()
	if w < 1 {
		return nil, errors.New("dist: Coordinate needs at least one worker")
	}
	cuts := PartitionEven(n, w)
	trace := cfg.Tracer != nil
	fp := prog.Graph.Fingerprint()
	for i := 0; i < w; i++ {
		su := &SetupFrame{
			Shard: i, Workers: w, Cuts: cuts, Algo: cfg.Algo, Seed: cfg.Seed,
			Fingerprint: fp, Bandwidth: prog.Bandwidth,
			Cut: cfg.CutSide, Trace: trace, Collect: cfg.Collect,
		}
		if err := ct.Send(i, &Frame{Type: FrameSetup, Setup: su}); err != nil {
			return nil, fmt.Errorf("%w: setup to worker %d: %v", ErrTransport, i, err)
		}
	}

	l := &ledger{
		maxRounds: cfg.MaxRounds, bandwidth: prog.Bandwidth,
		cancel: cfg.Cancel, onRound: cfg.OnRound, tracer: cfg.Tracer,
	}
	var (
		runErr  error
		reports = make([]*RoundFrame, w)
		wakes   = make([]*WakeFrame, w)
	)
	// abortAll best-effort ships the abort decision to every worker so
	// they stop waiting for batches/decisions and send their final frame.
	abortAll := func() {
		d := &DecisionFrame{Kind: DecideAbort, Round: l.stats.Rounds}
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

		// The round rule's facts, summed over the shards in index order.
		var (
			sumStepped, sumYielded, sumParked, sumDone, sumSenders int
			sumWoken, sumDeliv                                     int
			sumDelivBits                                           int64
			anyWake                                                bool
			meter                                                  = MeterReport{ViolSender: -1}
		)
		for i := 0; i < w; i++ {
			r, wk := reports[i], wakes[i]
			sumStepped += r.Stepped
			sumYielded += r.Yielded
			sumParked += r.ParkedNow
			sumDone += r.DoneTotal
			sumSenders += r.Senders
			meter.merge(&r.Meter)
			anyWake = anyWake || wk.WouldWake
			sumWoken += wk.Woken
			sumDeliv += wk.Delivered
			sumDelivBits += wk.DeliveredBits
		}
		kind, err := l.decide(sumDone == n, sumYielded > 0, anyWake, &meter)
		if err != nil {
			fail(err)
			break protocol
		}
		if kind == DecideCommit {
			l.record(RoundActivity{
				Round: l.stats.Rounds, Active: sumStepped, Parked: sumParked - sumWoken, Senders: sumSenders,
				Delivered: sumDeliv, DeliveredBits: sumDelivBits,
			})
		}
		d := &DecisionFrame{Kind: kind, Round: l.stats.Rounds}
		for i := 0; i < w; i++ {
			if err := ct.Send(i, &Frame{Type: FrameDecision, Decision: d}); err != nil {
				fail(fmt.Errorf("%w: decision to worker %d: %v", ErrTransport, i, err))
				break protocol
			}
		}
		if kind != DecideCommit {
			break
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
	return &CoordResult{Stats: l.stats, Outputs: outputs}, nil
}

// runSharded is RunMachines' Config.Shards path: the same machines, run
// distributed over an in-process channel transport — Coordinate on the
// calling goroutine, one ServeShard goroutine per shard, all sharing the
// caller's graph, budget and factory through a resolver closure. cfg is
// already validated.
func runSharded(cfg Config, factory func(*Ctx) Machine) (*Stats, error) {
	prog := ShardProgram{Graph: cfg.Graph, Bandwidth: cfg.Bandwidth, Factory: factory}
	resolver := func(string, int64) (ShardProgram, error) { return prog, nil }
	ct, wts := NewChanCluster(cfg.Shards)
	var wg sync.WaitGroup
	for i := range wts {
		wg.Add(1)
		go func(wt WorkerTransport) {
			defer wg.Done()
			ServeShard(wt, resolver)
		}(wts[i])
	}
	res, err := Coordinate(ct, prog, CoordConfig{
		Seed: cfg.Seed, MaxRounds: cfg.MaxRounds, CutSide: cfg.CutSide,
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
