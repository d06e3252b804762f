// Package dist is the synchronous round-based message-passing simulator
// the distributed algorithms run on. It implements the classic LOCAL /
// CONGEST execution model of the paper: computation proceeds in global
// rounds, in each round every vertex sends payloads to neighbors, and all
// payloads sent in round r are delivered at the start of round r+1.
//
// A protocol is one explicit state machine per vertex (see Machine),
// executed by RunMachines. The engine meters every payload's Bits() size,
// so the same protocol can be classified as LOCAL (unbounded messages) or
// CONGEST (O(log n) bits per edge per round) from its measured Stats —
// and with Config.Enforce set, exceeding the bandwidth budget is a
// runtime error, making CONGEST legality a checked property rather than
// an assumption.
//
// # Accounting model
//
//   - A "round" is one synchronous boundary: it completes when every
//     live vertex has either yielded (StepYield), parked (StepPark), or
//     retired (StepDone). Stats.Rounds counts completed rounds; for
//     protocols whose vertices only yield this equals the maximum number
//     of yields made by any vertex.
//   - Each payload is metered at its Bits() size. Stats.TotalBits and
//     Stats.Messages aggregate over the whole run; Stats.MaxMessageBits is
//     the largest single payload.
//   - Stats.MaxEdgeRoundBits is the maximum, over every directed edge and
//     round, of the bits sent across that edge in that round. A protocol
//     is CONGEST-legal for budget B iff MaxEdgeRoundBits <= B; that is
//     what Stats.CongestCompatible reports and Config.Enforce enforces.
//   - With Config.CutSide set, Stats.CutBits additionally totals the bits
//     crossing the two-party cut, which is what converts runs on the
//     lower-bound constructions into communication-complexity arguments.
//   - Stats.ActiveSteps, Stats.ParkedSteps, and Stats.PeakActive record
//     the run's activity profile: how many vertices each completed round
//     actually ran, and how many sat parked. Config.OnRound exposes the
//     full per-round curve.
//
// Executions are deterministic functions of (Config.Graph, Config.Seed):
// each vertex gets a private RNG derived from the seed, and inboxes are
// delivered sorted by sender id, so neither the step-shard width
// (Config.Workers) nor the shard count (Config.Shards) leaks into
// results, statistics, or trace digests.
//
// # Execution
//
// The engine is a run-to-completion loop on the caller's goroutine (see
// step.go): a round steps exactly the active machines — those holding a
// freshly delivered inbox or an explicit self-wakeup (StepYield) — then
// meters and delivers their sends. Parked machines cost nothing, so a
// round costs O(#active + #senders) rather than O(n), the regime the
// paper's algorithms live in, where most vertices are idle in most
// rounds. A machine is a struct, not a goroutine, which is what lets runs
// scale to millions of vertices on one box. Large active sets are stepped
// in parallel across Config.Workers goroutines; Config.Shards runs the
// same loop partitioned across shard workers behind a transport
// (transport.go).
//
// # Quiescence
//
// A vertex that has nothing to do until it hears from a neighbor parks
// (StepPark) instead of yielding every round. If every live vertex is
// parked and no messages are in flight, no round could ever change
// anything: the run has quiesced. The engine then steps every parked
// machine with StepIn.Quiesced set, letting it finalize and retire.
// Quiescence is itself deterministic: it happens at the same round in
// every run of the same (Graph, Seed).
package dist

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"distspanner/internal/graph"
)

// Payload is a message body. Bits reports its encoded size in bits — the
// quantity the engine meters and (optionally) enforces.
type Payload interface {
	Bits() int
}

// Message is one delivered payload together with its sender.
type Message struct {
	From    int
	Payload Payload
}

// Config configures a RunMachines call.
type Config struct {
	// Graph is the communication topology; vertices are 0..N()-1 and
	// messages travel only along its edges.
	Graph *graph.Graph
	// Seed drives all per-vertex randomness. Runs are deterministic
	// functions of (Graph, Seed).
	Seed int64
	// Mode must be ModeAuto (the zero value) or ModeStep; both select
	// the step engine, the only scheduler. Any other value is an error.
	Mode Mode
	// Bandwidth is the per-directed-edge per-round bit budget. Zero means
	// unlimited (pure LOCAL); a positive value defines what counts as a
	// bandwidth violation.
	Bandwidth int
	// Enforce makes a bandwidth violation abort the run with an error
	// wrapping ErrBandwidth. Without it, violations are only counted in
	// Stats.BandwidthViolations.
	Enforce bool
	// MaxRounds aborts runaway executions with an error wrapping
	// ErrRoundLimit; zero uses DefaultMaxRounds.
	MaxRounds int
	// CutSide, when non-nil, partitions the vertices into a two-party cut
	// (Alice = false, Bob = true); the engine then meters the bits
	// crossing the cut in Stats.CutBits. Length must equal Graph.N().
	CutSide []bool
	// Shards, when positive, runs RunMachines distributed: the graph is
	// partitioned into that many contiguous vertex ranges, each stepped
	// by its own worker over the in-process channel transport, with the
	// round/quiescence protocol run by a coordinator (see transport.go,
	// coord.go). Results, Stats, and trace digests are bit-identical to
	// the in-process run — the transport conformance suite asserts
	// exactly that. Only the record path (SendRec) may cross shards.
	// Zero means off; the wire transports (internal/dist/wire) use
	// Coordinate/ServeShard directly.
	Shards int
	// Workers is the step-shard width: how many goroutines step one
	// round's active machines in parallel once the active set is large
	// enough to pay for it. Zero or negative picks GOMAXPROCS; 1 steps
	// serially. Results are identical at every width.
	Workers int
	// OnRound, when non-nil, is called after every completed round with
	// that round's activity snapshot, in round order, on the caller's
	// goroutine while no machine is being stepped. It must not call back
	// into the engine or block; it is the hook behind per-scenario
	// activity curves.
	OnRound func(RoundActivity)
	// Cancel, when non-nil, aborts the run with an error wrapping
	// ErrCanceled once the channel is closed (or receives). It is checked
	// at every round boundary — the same points as the MaxRounds check —
	// so a canceled run stops within one round; timed-out sweep runs use
	// it to stop consuming CPU.
	Cancel <-chan struct{}
	// Tracer, when non-nil, receives the run's execution narration: the
	// deterministic logical transcript (per-vertex send/deliver/wake/
	// park/retire events plus per-round Phase snapshots) and the
	// separate wall-clock timing channel. See trace.go for the contract.
	// Tracer calls are made like OnRound calls and must not call back
	// into the engine or block. A nil Tracer costs nothing: no timestamps
	// are taken and the hot path performs zero extra allocations.
	Tracer Tracer
}

// DefaultMaxRounds is the round limit used when Config.MaxRounds is zero.
const DefaultMaxRounds = 1 << 20

// ErrRoundLimit is wrapped by RunMachines' error when MaxRounds is
// exceeded.
var ErrRoundLimit = errors.New("dist: round limit exceeded")

// ErrBandwidth is wrapped by RunMachines' error when an enforced
// bandwidth budget is violated.
var ErrBandwidth = errors.New("dist: bandwidth exceeded")

// ErrCanceled is wrapped by RunMachines' error when Config.Cancel fires.
var ErrCanceled = errors.New("dist: run canceled")

// outMsg is one queued send.
type outMsg struct {
	to int
	p  Payload
}

// engine is the shared state of one run. Only the step loop's goroutine
// touches it between machine steps, so it takes no locks.
type engine struct {
	g         *graph.Graph
	n         int
	bandwidth int
	enforce   bool
	maxRounds int
	cut       []bool
	cancel    <-chan struct{} // nil: never canceled
	routePar  int             // goroutines for sharded metering
	stepPar   int             // goroutines for sharded machine stepping
	tracer    Tracer          // nil: tracing disabled (zero cost)
	timed     bool            // tracer != nil: take round timestamps
	meterDlv  bool            // compute per-round delivery counts (OnRound or Tracer set)

	parked   int // vertices parked awaiting delivery
	stepped  int // vertices that yielded, parked, or retired since the last completed round
	senders  int // senders routed in the current round (set by route)
	onRound  func(RoundActivity)
	quiesced bool // the network went permanently silent
	abort    error
	dirty    []*Ctx // vertices that ended their step with sends queued
	woken    []*Ctx // parked vertices receiving messages this round

	// Timing-channel scratch (tracer installed only): the previous round
	// boundary and the current round's accumulated routing/stepping time.
	lastTick time.Time
	routeNs  int64
	stepNs   int64
	// Delivery counters of the current round (meterDlv only), folded into
	// RoundActivity by recordRound.
	deliv     int
	delivBits int64

	ctxs  []*Ctx
	stats Stats
}

// validate checks the configuration fields every execution path shares.
func validate(cfg Config) error {
	if cfg.Graph == nil {
		return errors.New("dist: Config.Graph is nil")
	}
	if cfg.CutSide != nil && len(cfg.CutSide) != cfg.Graph.N() {
		return fmt.Errorf("dist: CutSide has %d entries for %d vertices", len(cfg.CutSide), cfg.Graph.N())
	}
	if cfg.Mode != ModeAuto && cfg.Mode != ModeStep {
		return fmt.Errorf("dist: invalid Config.Mode %d", int(cfg.Mode))
	}
	return nil
}

// newEngine builds the shared engine state for a validated cfg with at
// least one vertex.
func newEngine(cfg Config) *engine {
	n := cfg.Graph.N()
	e := &engine{
		g:         cfg.Graph,
		n:         n,
		bandwidth: cfg.Bandwidth,
		enforce:   cfg.Enforce,
		maxRounds: cfg.MaxRounds,
		cut:       cfg.CutSide,
		cancel:    cfg.Cancel,
		routePar:  runtime.GOMAXPROCS(0),
		stepPar:   stepWorkers(cfg),
		onRound:   cfg.OnRound,
		tracer:    cfg.Tracer,
		timed:     cfg.Tracer != nil,
		meterDlv:  cfg.OnRound != nil || cfg.Tracer != nil,
	}
	if e.maxRounds <= 0 {
		e.maxRounds = DefaultMaxRounds
	}
	e.ctxs = make([]*Ctx, n)
	for v := 0; v < n; v++ {
		e.ctxs[v] = newCtx(e, v, cfg.Seed)
	}
	return e
}

// result packages the finished engine's statistics and abort state.
func (e *engine) result() (*Stats, error) {
	if e.abort != nil {
		return nil, e.abort
	}
	s := e.stats
	return &s, nil
}

// RunMachines executes one Machine per vertex of cfg.Graph as a
// synchronous message-passing protocol and returns the metered
// statistics. factory is called once per vertex, sequentially in id
// order, before the first round. It returns an error when a machine
// panics, when the round limit is exceeded, when cfg.Cancel fires, or,
// with cfg.Enforce set, when any directed edge carries more than
// cfg.Bandwidth bits in one round.
func RunMachines(cfg Config, factory func(*Ctx) Machine) (*Stats, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	if cfg.Shards > 0 {
		return runSharded(cfg, factory)
	}
	if cfg.Graph.N() == 0 {
		return &Stats{}, nil
	}
	e := newEngine(cfg)
	machines := make([]Machine, e.n)
	for v := 0; v < e.n; v++ {
		machines[v] = factory(e.ctxs[v])
	}
	if e.timed {
		// Machine construction is setup, not round 1.
		e.lastTick = time.Now()
	}
	e.runStep(machines)
	return e.result()
}

// vertexPanicError converts a recovered machine panic into the run
// error.
func vertexPanicError(id int, r any) error {
	return fmt.Errorf("dist: vertex %d panicked: %v\n%s", id, r, debug.Stack())
}

// roundLimitError builds the ErrRoundLimit abort.
func (e *engine) roundLimitError() error {
	return fmt.Errorf("%w: %d rounds executed (MaxRounds %d)", ErrRoundLimit, e.stats.Rounds, e.maxRounds)
}

// canceled reports whether Config.Cancel has fired. Non-blocking and
// nil-safe; checked at round boundaries like the round limit.
func (e *engine) canceled() bool {
	if e.cancel == nil {
		return false
	}
	select {
	case <-e.cancel:
		return true
	default:
		return false
	}
}

// cancelError builds the ErrCanceled abort.
func (e *engine) cancelError() error {
	return fmt.Errorf("%w after %d rounds", ErrCanceled, e.stats.Rounds)
}

// flushWakes reports whether any pending (dirty) send targets a
// vertex that is still alive — i.e. whether flushing would be observable
// as a round. Parked receivers count: a delivery would wake them.
func (e *engine) flushWakes() bool {
	for _, c := range e.dirty {
		for _, m := range c.outbox {
			if !e.ctxs[m.to].done {
				return true
			}
		}
		for ri := range c.outRecs {
			if !e.ctxs[c.outRecs[ri].to].done {
				return true
			}
		}
	}
	return false
}

// recordRound folds the completed round's activity into Stats and fires
// the OnRound hook and the tracer's Phase/RoundTime calls. Active counts
// the vertices that yielded, parked, or retired since the previous
// completion, Parked the vertices still parked after this round's
// deliveries, Delivered/DeliveredBits the payloads routing just placed
// in live inboxes (computed only when OnRound or Tracer is set).
func (e *engine) recordRound() {
	act := RoundActivity{
		Round: e.stats.Rounds, Active: e.stepped, Parked: e.parked, Senders: e.senders,
		Delivered: e.deliv, DeliveredBits: e.delivBits,
	}
	e.stats.ActiveSteps += int64(act.Active)
	e.stats.ParkedSteps += int64(act.Parked)
	if act.Active > e.stats.PeakActive {
		e.stats.PeakActive = act.Active
	}
	e.stepped = 0
	e.senders = 0
	e.deliv, e.delivBits = 0, 0
	if e.tracer != nil {
		e.tracer.Phase(act)
		e.traceRoundTime(act.Round)
	}
	if e.onRound != nil {
		e.onRound(act)
	}
	if e.timed {
		// Hook and tracer time belongs to neither round: re-arm the
		// boundary timestamp after the callbacks return.
		e.lastTick = time.Now()
	}
}

// meterResult is the per-sender accounting of one round, computed
// independently per sender so the work can be sharded.
type meterResult struct {
	msgs, bits, cut int64
	maxMsg, maxEdge int
	viol            int64
	violTo          int // receiver of this sender's first violation, -1 if none
	violBits        int
}

// routeTimed aggregates statistics and delivers all outboxes, timing
// the pass for the tracer's timing channel when one is installed. The
// logical work lives in route.
func (e *engine) routeTimed() {
	if !e.timed {
		e.route()
		return
	}
	t0 := time.Now()
	e.route()
	e.routeNs += int64(time.Since(t0))
}

// route aggregates statistics and delivers all outboxes. The dirty
// list holds exactly the vertices that queued sends this round, in the
// order their steps were classified; it is re-sorted by vertex id so
// inboxes arrive sorted by sender and every statistic is deterministic.
// Senders are metered independently (in parallel for large rounds).
// Parked receivers of a delivery are flipped awake and collected in
// e.woken for the step loop. With a tracer installed, the serial
// delivery loop is also where Send/Deliver/Wake events are emitted —
// senders in ascending id, a sender's payloads in send order, boxed
// before record sends — which is what makes the logical transcript
// deterministic.
func (e *engine) route() {
	senders := e.dirty
	e.dirty = e.dirty[:0]
	e.senders = len(senders)
	if len(senders) == 0 {
		return
	}
	sort.Slice(senders, func(i, j int) bool { return senders[i].id < senders[j].id })
	results := make([]meterResult, len(senders))
	if e.routePar > 1 && len(senders) >= 64 {
		var wg sync.WaitGroup
		shard := (len(senders) + e.routePar - 1) / e.routePar
		for lo := 0; lo < len(senders); lo += shard {
			hi := lo + shard
			if hi > len(senders) {
				hi = len(senders)
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					results[i] = e.meterSender(senders[i])
				}
			}(lo, hi)
		}
		wg.Wait()
	} else {
		for i, c := range senders {
			results[i] = e.meterSender(c)
		}
	}
	for i, c := range senders {
		r := &results[i]
		e.stats.Messages += r.msgs
		e.stats.TotalBits += r.bits
		e.stats.CutBits += r.cut
		if r.maxMsg > e.stats.MaxMessageBits {
			e.stats.MaxMessageBits = r.maxMsg
		}
		if r.maxEdge > e.stats.MaxEdgeRoundBits {
			e.stats.MaxEdgeRoundBits = r.maxEdge
		}
		if r.viol > 0 {
			e.stats.BandwidthViolations += r.viol
			if e.enforce && e.abort == nil {
				e.abort = fmt.Errorf("%w: vertex %d sent %d bits to %d in round %d (budget %d)",
					ErrBandwidth, c.id, r.violBits, r.violTo, e.stats.Rounds, e.bandwidth)
			}
		}
		for _, m := range c.outbox {
			to := e.ctxs[m.to]
			var b int
			if e.meterDlv {
				// Delivery accounting re-sizes the payload (senders meter in
				// the parallel shards above); only paid with OnRound/Tracer.
				if b = m.p.Bits(); b < 0 {
					b = 0
				}
				if e.tracer != nil {
					e.tracer.Event(TraceEvent{Kind: TraceSend, Round: e.stats.Rounds, V: c.id, Peer: m.to, Boxed: true, Bits: b})
				}
			}
			if to.done {
				continue
			}
			if e.meterDlv {
				e.deliv++
				e.delivBits += int64(b)
				if e.tracer != nil {
					e.tracer.Event(TraceEvent{Kind: TraceDeliver, Round: e.stats.Rounds, V: m.to, Peer: c.id, Boxed: true, Bits: b})
				}
			}
			to.inbox = append(to.inbox, Message{From: c.id, Payload: m.p})
			if to.parked {
				to.parked = false
				e.woken = append(e.woken, to)
				if e.tracer != nil {
					e.tracer.Event(TraceEvent{Kind: TraceWake, Round: e.stats.Rounds, V: m.to, Peer: c.id})
				}
			}
		}
		// Record deliveries: copy the header and the packed int tail into
		// the receiver's arena. Senders are visited in ascending id and a
		// sender's records in send order, so the arena is sorted exactly
		// like the boxed inbox.
		for ri := range c.outRecs {
			o := &c.outRecs[ri]
			to := e.ctxs[o.to]
			if e.tracer != nil {
				e.tracer.Event(TraceEvent{Kind: TraceSend, Round: e.stats.Rounds, V: c.id, Peer: int(o.to), Tag: o.tag, Bits: int(o.bits)})
			}
			if to.done {
				continue
			}
			if e.meterDlv {
				e.deliv++
				e.delivBits += int64(o.bits)
				if e.tracer != nil {
					e.tracer.Event(TraceEvent{Kind: TraceDeliver, Round: e.stats.Rounds, V: int(o.to), Peer: c.id, Tag: o.tag, Bits: int(o.bits)})
				}
			}
			off := int32(len(to.inInts))
			if o.n > 0 {
				to.inInts = append(to.inInts, c.outInts[o.off:o.off+o.n]...)
			}
			to.inRecs = append(to.inRecs, InRec{
				From: c.id,
				Rec:  Rec{Tag: o.tag, Flag: o.flag, A: o.a, B: o.b, F0: o.f0, F1: o.f1, F2: o.f2},
				off:  off, n: o.n,
			})
			if to.parked {
				to.parked = false
				e.woken = append(e.woken, to)
				if e.tracer != nil {
					e.tracer.Event(TraceEvent{Kind: TraceWake, Round: e.stats.Rounds, V: int(o.to), Peer: c.id})
				}
			}
		}
		c.clearSends()
	}
}

// meterSender sizes one sender's round of messages: global aggregates plus
// the per-directed-edge accumulation behind MaxEdgeRoundBits and the
// bandwidth check. It touches only the sender's own state. Only the edge
// slots actually written this round are revisited (and re-zeroed), so the
// cost is O(#messages) rather than O(degree) — a vertex of degree Δ that
// pings one neighbor no longer pays a Δ-wide scan.
func (e *engine) meterSender(c *Ctx) meterResult {
	r := meterResult{violTo: -1}
	for _, m := range c.outbox {
		b := m.p.Bits()
		if b < 0 {
			b = 0
		}
		r.msgs++
		r.bits += int64(b)
		if b > r.maxMsg {
			r.maxMsg = b
		}
		if e.cut != nil && e.cut[c.id] != e.cut[m.to] {
			r.cut += int64(b)
		}
		i := c.nbrIndex(m.to)
		if b > 0 && c.edgeBits[i] == 0 {
			c.touched = append(c.touched, i)
		}
		c.edgeBits[i] += b
	}
	// Record sends carry their size from SendRec and their neighbor slot
	// from validation time: no interface call, no binary search.
	for ri := range c.outRecs {
		o := &c.outRecs[ri]
		b := int(o.bits)
		if b < 0 {
			b = 0
		}
		r.msgs++
		r.bits += int64(b)
		if b > r.maxMsg {
			r.maxMsg = b
		}
		if e.cut != nil && e.cut[c.id] != e.cut[o.to] {
			r.cut += int64(b)
		}
		i := int(o.nbrIdx)
		if b > 0 && c.edgeBits[i] == 0 {
			c.touched = append(c.touched, i)
		}
		c.edgeBits[i] += b
	}
	for _, i := range c.touched {
		eb := c.edgeBits[i]
		c.edgeBits[i] = 0
		if eb > r.maxEdge {
			r.maxEdge = eb
		}
		if e.bandwidth > 0 && eb > e.bandwidth {
			r.viol++
			if r.violTo < 0 {
				r.violTo = c.nbrs[i]
				r.violBits = eb
			}
		}
	}
	c.touched = c.touched[:0]
	return r
}
