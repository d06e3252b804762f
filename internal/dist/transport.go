package dist

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"distspanner/internal/graph"
)

// The pluggable transport seam. A run can execute on a single engine
// (RunMachines in-process) or be sharded across workers, each owning a
// contiguous vertex range and stepping its machines with the step
// loop, with a coordinator driving the round/quiescence
// protocol. What moves between the processes is exactly the engine's
// serialization points: a round's record batches, the per-shard
// activity/metering reports, and the coordinator's round decisions.
//
// The protocol is a pure re-partitioning of runStep (step.go): every
// decision the coordinator takes — commit a round, quiesce, finish,
// abort — is the decision runStep would have taken with the same global
// information, and every worker-side effect (classification, metering,
// delivery, trace emission) happens in the same order as the in-process
// engine. A transport is correct iff a distributed run reproduces the
// in-process per-vertex trace digests and Stats bit-for-bit; the
// conformance suite (internal/dist/transportconf) checks exactly that.
//
// Partitions must be contiguous ascending vertex ranges: shard order
// then equals global sender-id order, which is what lets a worker apply
// inbound batches in shard order and reproduce the in-process
// per-vertex event interleaving (route visits senders ascending).
//
// Only the record path (SendRec) crosses shards: the Rec wire format is
// the serialization. A machine that queues a boxed Send on the sharded
// path aborts the run with ErrBoxedSend.

// ErrTransport is wrapped by coordinator/worker errors when the
// transport itself fails (connection dropped, peer closed, codec
// error) — as opposed to a protocol-level abort like ErrCanceled.
var ErrTransport = errors.New("dist: transport failure")

// ErrBoxedSend is wrapped by the run error when a machine queues a
// boxed Send on the sharded path; only records (SendRec) cross shards.
var ErrBoxedSend = errors.New("dist: boxed Send is not supported on the sharded path")

// FrameType discriminates transport frames.
type FrameType uint8

const (
	// FrameSetup (coordinator → worker, once): graph, partition, shard
	// identity, and run parameters.
	FrameSetup FrameType = iota + 1
	// FrameRound (worker → coordinator, each iteration): the shard's
	// classification/metering report plus its outbound record batches.
	FrameRound
	// FrameBatches (coordinator → worker, each iteration): the record
	// batches inbound to this shard, indexed by source shard.
	FrameBatches
	// FrameWake (worker → coordinator, each iteration): what this
	// shard's pending deliveries would do — the distributed half of
	// flushWakes and the delivery counters.
	FrameWake
	// FrameDecision (coordinator → worker, each iteration): commit,
	// quiesce, finish, or abort.
	FrameDecision
	// FrameResult (worker → coordinator, once): per-vertex outputs and
	// buffered trace events.
	FrameResult
)

// Frame is one transport message; exactly the field matching Type is
// non-nil. In-process transports pass frames by pointer; wire
// transports serialize them (internal/dist/wire).
type Frame struct {
	Type     FrameType
	Setup    *SetupFrame
	Round    *RoundFrame
	Batches  *BatchesFrame
	Wake     *WakeFrame
	Decision *DecisionFrame
	Result   *ResultFrame
}

// SetupFrame hands a worker its shard of the run.
type SetupFrame struct {
	// Shard is this worker's index; Workers the total count.
	Shard, Workers int
	// Cuts is the contiguous partition: shard i owns [Cuts[i], Cuts[i+1]).
	Cuts []int
	// Graph is the communication topology (the full graph — workers need
	// every vertex's neighborhood to validate sends and meter edges).
	Graph *graph.Graph
	// Algo names the program for the worker's resolver; the in-process
	// sharded path leaves it empty (the resolver closes over the factory).
	Algo string
	// Seed is the run seed; all per-vertex randomness and any auxiliary
	// inputs (orientations, weights, splits) derive from (Graph, Seed).
	Seed int64
	// Bandwidth is the per-edge per-round bit budget metered by the
	// worker (violations are decided by the coordinator).
	Bandwidth int
	// Cut is Config.CutSide (nil when unset).
	Cut []bool
	// Trace asks the worker to buffer per-vertex trace events and ship
	// them in its ResultFrame.
	Trace bool
	// Collect asks the worker to ship per-vertex outputs in its
	// ResultFrame (requires the program to define Output).
	Collect bool
}

// MeterReport aggregates one shard's meterSender results for one
// iteration — the same quantities route folds into Stats.
type MeterReport struct {
	Msgs, Bits, CutBits int64
	MaxMsg, MaxEdge     int
	// Violations counts budget violations; ViolSender/ViolTo/ViolBits
	// describe the first violation by ascending sender id (ViolSender is
	// -1 when none), which is what the enforced abort reports.
	Violations int64
	ViolSender int
	ViolTo     int
	ViolBits   int
}

// fold merges a per-sender meterResult into the report, keeping the
// first violation by the (ascending) sender order of the caller.
func (m *MeterReport) fold(senderID int, r meterResult) {
	m.Msgs += r.msgs
	m.Bits += r.bits
	m.CutBits += r.cut
	if r.maxMsg > m.MaxMsg {
		m.MaxMsg = r.maxMsg
	}
	if r.maxEdge > m.MaxEdge {
		m.MaxEdge = r.maxEdge
	}
	if r.viol > 0 {
		m.Violations += r.viol
		if m.ViolSender < 0 {
			m.ViolSender, m.ViolTo, m.ViolBits = senderID, r.violTo, r.violBits
		}
	}
}

// BatchRec is one record send crossing a shard boundary: the flat Rec
// header plus sender/receiver ids, the metered size, and the tail span
// in the enclosing batch's Ints arena.
type BatchRec struct {
	From, To  int32
	Tag, Flag uint8
	Bits      int64
	A, B      int64
	F0        float64
	F1        float64
	F2        float64
	Off, N    int32
}

// RecBatch is the records one shard sends to one other shard in one
// round, ordered by (ascending sender id, send order) — the same order
// route delivers in. Ints is the packed tail arena.
type RecBatch struct {
	Recs []BatchRec
	Ints []int
}

// add appends one record, copying its tail into the batch arena.
func (b *RecBatch) add(from int, o *outRec, tail []int) {
	off := int32(len(b.Ints))
	b.Ints = append(b.Ints, tail...)
	b.Recs = append(b.Recs, BatchRec{
		From: int32(from), To: o.to, Tag: o.tag, Flag: o.flag, Bits: o.bits,
		A: o.a, B: o.b, F0: o.f0, F1: o.f1, F2: o.f2,
		Off: off, N: o.n,
	})
}

// RoundFrame is a worker's phase-1 report for one iteration.
type RoundFrame struct {
	// Stepped is the number of machines stepped this iteration;
	// Yielded/ParkedNow/DoneTotal the classification counts (ParkedNow
	// and DoneTotal are the shard's running totals, before this round's
	// wake-ups); Senders the shard's dirty-sender count.
	Stepped, Yielded, ParkedNow, DoneTotal, Senders int
	// Meter aggregates the shard's sender metering for the iteration.
	Meter MeterReport
	// Out holds the outbound batches, indexed by destination shard (the
	// worker's own index stays empty — local deliveries never leave the
	// worker). Nil when Err is set.
	Out []RecBatch
	// Err reports a worker-side abort (machine panic, boxed send); the
	// coordinator aborts the run.
	Err string
}

// BatchesFrame relays to one worker its inbound batches, indexed by
// source shard (the worker's own index stays empty).
type BatchesFrame struct {
	In []RecBatch
}

// WakeFrame is a worker's phase-2 report: what the round's pending
// deliveries into this shard would do, computed without applying them.
type WakeFrame struct {
	// WouldWake reports whether any pending delivery targets a non-done
	// vertex of this shard — the distributed half of flushWakes.
	WouldWake bool
	// Woken counts the distinct parked vertices that would be woken.
	Woken int
	// Delivered/DeliveredBits count payloads that would land in live
	// inboxes — the RoundActivity delivery counters.
	Delivered     int
	DeliveredBits int64
}

// DecisionKind is the coordinator's per-iteration verdict.
type DecisionKind uint8

const (
	// DecideCommit: the round is charged; apply deliveries and continue.
	DecideCommit DecisionKind = iota + 1
	// DecideQuiesce: no vertex yielded and no delivery can wake anyone;
	// meter-and-drop pending sends, run the parked epilogue, finish.
	DecideQuiesce
	// DecideFinish: every vertex retired; meter-and-drop last words.
	DecideFinish
	// DecideAbort: the run aborted (round limit, cancellation, enforced
	// bandwidth violation, worker error); discard and shut down.
	DecideAbort
)

// DecisionFrame carries the verdict and the resulting round count.
type DecisionFrame struct {
	Kind DecisionKind
	// Round is the committed round number on DecideCommit, and the
	// final (uncharged) round count otherwise.
	Round int
}

// ResultFrame is a worker's final frame.
type ResultFrame struct {
	// Outputs holds the program's per-vertex outputs for the shard's
	// range, index 0 = the shard's first vertex (Collect only).
	Outputs [][]int
	// Events holds the buffered per-vertex trace events for the shard's
	// range (Trace only).
	Events [][]TraceEvent
	// Err reports a worker-side abort during the epilogue.
	Err string
}

// WorkerTransport is one worker's connection to the coordinator.
// Implementations must be safe for the strict alternation the protocol
// performs (no concurrent calls are made).
type WorkerTransport interface {
	Send(f *Frame) error
	Recv() (*Frame, error)
	Close() error
}

// CoordTransport is the coordinator's view of all workers. Recv blocks
// on one worker's next frame; the protocol gathers workers in index
// order, which is safe because workers progress independently.
type CoordTransport interface {
	Workers() int
	Send(worker int, f *Frame) error
	Recv(worker int) (*Frame, error)
	Close() error
}

// PartitionEven cuts n vertices into w contiguous ranges of near-equal
// size: shard i owns [cuts[i], cuts[i+1]). Shards may be empty when
// w > n. The contiguous-ascending shape is load-bearing — see the
// package section above.
func PartitionEven(n, w int) []int {
	if w < 1 {
		w = 1
	}
	cuts := make([]int, w+1)
	for i := 0; i <= w; i++ {
		cuts[i] = i * n / w
	}
	return cuts
}

// shardOf locates v's shard in a contiguous partition.
func shardOf(cuts []int, v int) int {
	return sort.SearchInts(cuts, v+1) - 1
}

// ShardProgram is what a worker runs: a machine factory over the
// shard's vertices plus an optional per-vertex output reader.
type ShardProgram struct {
	// Graph, when non-nil, overrides the engine's communication topology
	// (e.g. a derived underlying graph); it must have the same vertex
	// count as the setup graph.
	Graph *graph.Graph
	// Factory builds the machine for one vertex, exactly like the
	// RunMachines factory.
	Factory func(*Ctx) Machine
	// Output reads one vertex's result after the run (nil when the
	// program produces no per-vertex outputs).
	Output func(v int) []int
}

// ProgramResolver maps a SetupFrame's algorithm name to the shard
// program, deriving any auxiliary inputs deterministically from
// (g, seed) so every worker reconstructs the same instance.
type ProgramResolver func(algo string, g *graph.Graph, seed int64) (ShardProgram, error)

// chanEndpoint is one direction of an in-process transport: a buffered
// frame channel with idempotent close and panic-safe send.
type chanEndpoint struct {
	ch     chan *Frame
	closed chan struct{}
	once   sync.Once
}

func newChanEndpoint() *chanEndpoint {
	return &chanEndpoint{ch: make(chan *Frame, 2), closed: make(chan struct{})}
}

func (p *chanEndpoint) close() { p.once.Do(func() { close(p.closed) }) }

func (p *chanEndpoint) send(f *Frame) error {
	select {
	case <-p.closed:
		return fmt.Errorf("%w: endpoint closed", ErrTransport)
	case p.ch <- f:
		return nil
	}
}

func (p *chanEndpoint) recv() (*Frame, error) {
	select {
	case <-p.closed:
		// Drain anything already queued before reporting the close, so a
		// close racing the final frame does not lose it.
		select {
		case f := <-p.ch:
			return f, nil
		default:
			return nil, fmt.Errorf("%w: endpoint closed", ErrTransport)
		}
	case f := <-p.ch:
		return f, nil
	}
}

// chanWorker / chanCoord are the reference in-process transport: frames
// move by pointer over buffered channels. Frame payloads are built
// fresh each iteration (batches copy record tails out of the sender
// arenas), so sharing pointers across goroutines is safe.
type chanWorker struct {
	down *chanEndpoint // coordinator → worker
	up   *chanEndpoint // worker → coordinator
}

func (w *chanWorker) Send(f *Frame) error   { return w.up.send(f) }
func (w *chanWorker) Recv() (*Frame, error) { return w.down.recv() }
func (w *chanWorker) Close() error          { w.up.close(); w.down.close(); return nil }

type chanCoord struct {
	down []*chanEndpoint
	up   []*chanEndpoint
}

func (c *chanCoord) Workers() int { return len(c.down) }

func (c *chanCoord) Send(worker int, f *Frame) error { return c.down[worker].send(f) }

func (c *chanCoord) Recv(worker int) (*Frame, error) { return c.up[worker].recv() }

func (c *chanCoord) Close() error {
	for i := range c.down {
		c.down[i].close()
		c.up[i].close()
	}
	return nil
}

// NewChanCluster builds the in-process reference transport: a connected
// coordinator endpoint plus w worker endpoints.
func NewChanCluster(w int) (CoordTransport, []WorkerTransport) {
	c := &chanCoord{down: make([]*chanEndpoint, w), up: make([]*chanEndpoint, w)}
	workers := make([]WorkerTransport, w)
	for i := 0; i < w; i++ {
		c.down[i] = newChanEndpoint()
		c.up[i] = newChanEndpoint()
		workers[i] = &chanWorker{down: c.down[i], up: c.up[i]}
	}
	return c, workers
}
