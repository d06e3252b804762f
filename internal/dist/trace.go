package dist

import "time"

// Execution tracing: the engine can narrate a run to a Tracer as it
// happens. The narration has two strictly separated channels:
//
//   - The logical transcript — Event and Phase calls — is a pure function
//     of (Config.Graph, Config.Seed, protocol), like every other output
//     of the engine. For a successful run, every step-shard width and
//     every shard count produce the same per-vertex event sequences and
//     the same phase sequence (cross-vertex interleaving may differ;
//     within one vertex the order is fixed). internal/trace hashes this
//     channel into the canonical run digest.
//   - The timing channel — RoundTime calls — carries wall-clock
//     measurements. It is nondeterministic by nature and never
//     contaminates the logical transcript: no logical event carries a
//     timestamp, and no timing value feeds back into scheduling.
//
// All Tracer methods are invoked from the step loop's goroutine between
// machine steps (the coordinator's, on the sharded path), so
// implementations need no internal locking for a single run — but a
// Tracer must not be shared by concurrent runs. Tracer calls must not call back into the engine or
// block, exactly like Config.OnRound.
//
// A nil Config.Tracer costs nothing: every emission site is behind a nil
// check, timestamps are only taken when a tracer is installed, and the
// disabled path performs zero allocations (asserted by
// TestNilTracerZeroAllocs and the Traced benchmark pairs).

// TraceKind classifies one logical transcript event.
type TraceKind uint8

const (
	// TraceSend: vertex V committed a payload to Peer. Emitted when the
	// round's sends are routed, whether or not the receiver is still
	// alive (a retired receiver yields a Send with no matching Deliver).
	TraceSend TraceKind = iota + 1
	// TraceDeliver: vertex V's inbox received a payload from Peer,
	// consumable at the start of round Round+1.
	TraceDeliver
	// TraceWake: a delivery from Peer unparked vertex V.
	TraceWake
	// TracePark: vertex V parked (StepPark), committing its queued sends.
	TracePark
	// TraceRetire: vertex V's machine retired (StepDone).
	TraceRetire
)

// String returns the kind's JSONL spelling.
func (k TraceKind) String() string {
	switch k {
	case TraceSend:
		return "send"
	case TraceDeliver:
		return "deliver"
	case TraceWake:
		return "wake"
	case TracePark:
		return "park"
	case TraceRetire:
		return "retire"
	}
	return "invalid"
}

// ParseTraceKind parses the JSONL spelling of a TraceKind.
func ParseTraceKind(s string) (TraceKind, bool) {
	switch s {
	case "send":
		return TraceSend, true
	case "deliver":
		return TraceDeliver, true
	case "wake":
		return TraceWake, true
	case "park":
		return TracePark, true
	case "retire":
		return TraceRetire, true
	}
	return 0, false
}

// TraceEvent is one logical transcript event, attributed to exactly one
// vertex (V). Round stamps follow the accounting model: Send, Deliver,
// and Wake carry the number of the completed round whose routing emitted
// them (the payload is consumable in round Round+1); Park and Retire
// carry the round the vertex was executing when it blocked or returned,
// i.e. one past the last completed round at that moment. The stamps are
// part of the digest contract.
type TraceEvent struct {
	// Kind classifies the event.
	Kind TraceKind
	// Round is the event's round stamp (see above).
	Round int
	// V is the vertex whose transcript the event belongs to.
	V int
	// Peer is the counterparty: the receiver for Send, the sender for
	// Deliver and Wake, -1 for Park and Retire.
	Peer int
	// Tag is the record type tag for record-path payloads (see SendRec);
	// zero for boxed payloads and for Park/Retire/Wake.
	Tag uint8
	// Boxed marks boxed Payload messages (Send/Deliver via Ctx.Send),
	// distinguishing them from flat-buffer records at Tag zero.
	Boxed bool
	// Bits is the metered payload size for Send and Deliver; zero
	// otherwise.
	Bits int
}

// RoundTiming is one completed round's wall-clock measurement — the
// timing channel. Unlike every other engine output it is NOT
// deterministic: values change run to run and machine to machine, and
// they never appear in the logical transcript or its digest.
type RoundTiming struct {
	// Round is the 1-based completed round the measurement covers.
	Round int
	// Wall is the boundary-to-boundary wall time of the round: from the
	// end of the previous round's bookkeeping (hooks excluded) to the
	// moment this round's deliveries were out.
	Wall time.Duration
	// Step is the vertex-execution share: the machine-stepping scan.
	Step time.Duration
	// Route is the metering + delivery share (the routing pass).
	Route time.Duration
	// Sync is the scheduler-bookkeeping remainder: Wall - Step - Route,
	// clamped at zero.
	Sync time.Duration
}

// Tracer receives a run's execution narration. See the package section
// above for the logical-vs-timing separation, the serialization
// guarantees, and the determinism contract; internal/trace provides the
// standard implementations (Recorder, TimingRecorder).
type Tracer interface {
	// Event receives one logical transcript event. Events for one vertex
	// arrive in a deterministic order; events for different vertices may
	// interleave differently across execution paths (the sharded runner
	// replays them vertex-major).
	Event(ev TraceEvent)
	// Phase receives the completed round's activity snapshot — the same
	// value Config.OnRound gets, part of the logical transcript.
	Phase(act RoundActivity)
	// RoundTime receives the completed round's wall-clock measurement —
	// the timing channel, excluded from the logical transcript.
	RoundTime(t RoundTiming)
}

// traceBlocked emits a Park or Retire event for vertex v, stamped one
// past the last completed round. The nil check lives here so every
// parking/retiring site pays one predictable branch and zero
// allocations when tracing is disabled.
func (e *engine) traceBlocked(kind TraceKind, v int) {
	if e.tracer == nil {
		return
	}
	e.tracer.Event(TraceEvent{Kind: kind, Round: e.stats.Rounds + 1, V: v, Peer: -1})
}

// traceRoundTime computes and emits the completed round's RoundTiming
// and arms the next round's boundary timestamp. Called from
// recordRound only when a tracer is installed (e.timed).
func (e *engine) traceRoundTime(round int) {
	wall := time.Since(e.lastTick)
	route := time.Duration(e.routeNs)
	step := time.Duration(e.stepNs)
	syn := wall - step - route
	if syn < 0 {
		syn = 0
	}
	e.tracer.RoundTime(RoundTiming{Round: round, Wall: wall, Step: step, Route: route, Sync: syn})
	e.routeNs, e.stepNs = 0, 0
}
