// Package dist is the synchronous round-based message-passing simulator
// the distributed algorithms run on. It implements the classic LOCAL /
// CONGEST execution model of the paper: computation proceeds in global
// rounds, in each round every vertex sends records to neighbors, and all
// records sent in round r are delivered at the start of round r+1.
//
// A protocol is one explicit state machine per vertex (see Machine),
// executed by RunMachines. Messages are flat typed records (Rec, sent
// with Ctx.SendRec) metered at the bit size their sender declares, so
// the same protocol can be classified as LOCAL (unbounded messages) or
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
//   - Each record is metered at its declared size. Stats.TotalBits and
//     Stats.Messages aggregate over the whole run; Stats.MaxMessageBits is
//     the largest single record.
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
// same round core (round.go) partitioned across shard workers behind a
// transport (transport.go).
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
	"time"

	"distspanner/internal/graph"
)

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
	// exactly that. Every protocol can run sharded. Zero means off; the
	// wire transports (internal/dist/wire) use Coordinate/ServeShard
	// directly.
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

// engine is the per-vertex half of one run — all vertices in-process,
// one shard's contiguous range [lo, hi) on a shard worker — plus the
// embedded ledger (round.go). Only the driving goroutine touches it
// between machine steps, so it takes no locks.
type engine struct {
	ledger
	g        *graph.Graph
	n        int
	lo, hi   int // the vertices this engine steps
	shard    int // its position among a round's source shards (0 in-process)
	cut      []bool
	routePar int  // goroutines for sharded metering
	stepPar  int  // goroutines for sharded machine stepping
	meterDlv bool // count deliveries for RoundActivity (OnRound or Tracer set)

	ctxs     []*Ctx // indexed by vertex id; nil outside [lo, hi)
	machines []Machine
	// status is each vertex's scheduling state: what its last step
	// returned, flipped from StepPark to StepYield by the delivery that
	// wakes it. StepPark marks a parked vertex and StepDone a retired one.
	status  []StepStatus
	ins     []StepIn // each vertex's next step input; deliver carves its Recs
	active  []*Ctx   // vertices stepped this iteration
	yielded []*Ctx   // active vertices that asked for the next round
	dirty   []*Ctx   // the iteration's senders, ascending id
	woken   []*Ctx   // parked vertices the last delivery woke
	parked  int      // vertices parked awaiting a delivery
	retired int      // vertices whose machine returned StepDone
	abort   error

	// Delivery scratch (deliver): each vertex's delivery count in the
	// round being delivered (zero between rounds), the receivers in
	// first-delivery order, the arena every inbox is carved from, and the
	// round's table of delivered records, one row per record however many
	// receivers it has, that the inbox entries point at.
	inCnt []int32
	recv  []int32
	inbox []InRec
	table []Rec

	// Delivery counters of the last deliver call (meterDlv only), folded
	// into RoundActivity.
	deliv     int
	delivBits int64
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

// newEngine builds the in-process engine state for a validated cfg: one
// engine owning every vertex, with the run's ledger.
func newEngine(cfg Config) *engine {
	n := cfg.Graph.N()
	return &engine{
		ledger: ledger{
			maxRounds: cfg.MaxRounds,
			bandwidth: cfg.Bandwidth,
			enforce:   cfg.Enforce,
			cancel:    cfg.Cancel,
			onRound:   cfg.OnRound,
			tracer:    cfg.Tracer,
			timed:     cfg.Tracer != nil,
		},
		g:        cfg.Graph,
		n:        n,
		hi:       n,
		cut:      cfg.CutSide,
		routePar: runtime.GOMAXPROCS(0),
		stepPar:  stepWorkers(cfg),
		meterDlv: cfg.OnRound != nil || cfg.Tracer != nil,
	}
}

// start builds the machines of vertices [lo, hi) — factory is called once
// per vertex, sequentially in id order — and makes them all active for
// the first step.
func (e *engine) start(seed int64, factory func(*Ctx) Machine) {
	e.ctxs = make([]*Ctx, e.n)
	e.machines = make([]Machine, e.n)
	e.status = make([]StepStatus, e.n)
	e.ins = make([]StepIn, e.n)
	e.inCnt = make([]int32, e.n)
	e.active = make([]*Ctx, 0, e.hi-e.lo)
	for v := e.lo; v < e.hi; v++ {
		c := newCtx(e, v, seed)
		e.ctxs[v] = c
		e.machines[v] = factory(c)
		e.ins[v] = StepIn{Start: true}
		e.active = append(e.active, c)
	}
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
	e.start(cfg.Seed, factory)
	if e.timed {
		// Machine construction is setup, not round 1.
		e.lastTick = time.Now()
	}
	e.runStep()
	return e.result()
}

// VertexPanicError is the run error of a machine that panicked. Its text
// names the vertex and the panic value only, so it can be handed to a
// client or shipped in a shard frame; Stack keeps the panicking
// goroutine's stack for a command to print to its own stderr.
type VertexPanicError struct {
	Vertex int
	Value  any
	Stack  []byte
}

func (e *VertexPanicError) Error() string {
	return fmt.Sprintf("dist: vertex %d panicked: %v", e.Vertex, e.Value)
}

// PanicStack returns the stack of the machine panic behind err, or nil
// when err is not one.
func PanicStack(err error) []byte {
	var perr *VertexPanicError
	if errors.As(err, &perr) {
		return perr.Stack
	}
	return nil
}

// vertexPanicError converts a recovered machine panic into the run
// error.
func vertexPanicError(id int, r any) error {
	return &VertexPanicError{Vertex: id, Value: r, Stack: debug.Stack()}
}

// meterSender sizes one sender's round of records: global aggregates plus
// the per-directed-edge accumulation behind MaxEdgeRoundBits and the
// bandwidth check. Every destination counts as one message of its
// record's size. It touches only the sender's own state and does not
// depend on the round number, so a round can be metered before it is
// decided. Records carry their size and destination neighbor positions
// from SendRec, and only the edge slots actually written this round are
// revisited (and re-zeroed), so the cost is O(#destinations) rather than
// O(degree) — a vertex of degree Δ that pings one neighbor does not pay a
// Δ-wide scan.
func (e *engine) meterSender(c *Ctx) MeterReport {
	r := MeterReport{ViolSender: -1}
	for hi := range c.outHdrs {
		b := int(max(c.outHdrs[hi].bits, 0))
		run := c.run(hi)
		r.Msgs += int64(len(run))
		r.Bits += int64(b) * int64(len(run))
		r.MaxMsg = max(r.MaxMsg, b)
		for _, p := range run {
			if e.cut != nil && e.cut[c.id] != e.cut[c.nbrs[p]] {
				r.CutBits += int64(b)
			}
			if b > 0 && c.edgeBits[p] == 0 {
				c.touched = append(c.touched, int(p))
			}
			c.edgeBits[p] += b
		}
	}
	for _, i := range c.touched {
		eb := c.edgeBits[i]
		c.edgeBits[i] = 0
		r.MaxEdge = max(r.MaxEdge, eb)
		if e.bandwidth > 0 && eb > e.bandwidth {
			r.Violations++
			if r.ViolSender < 0 {
				r.ViolSender, r.ViolTo, r.ViolBits = c.id, c.nbrs[i], eb
			}
		}
	}
	c.touched = c.touched[:0]
	return r
}
