package dist

// The state-machine protocol surface. A Machine expresses one vertex as
// an explicit resume point: the engine calls Step with the round's
// deliveries, the machine runs to completion (queuing sends on its Ctx)
// and returns how it wants to be scheduled next. Per-vertex state lives
// in the machine value, so a vertex costs a struct, not a goroutine.
//
// The resume-point contract:
//
//   - StepYield: sends are committed, and the next Step carries the
//     completed round's inbox (possibly empty) — an explicit self-wakeup.
//   - StepPark: sends are committed, and the next Step happens only when
//     a round delivers to this vertex (an inbox non-empty) — or when the
//     network quiesces, reported as StepIn.Quiesced.
//   - StepDone: the vertex retires. Sends queued by the final step are
//     its last words: they are committed by the retirement itself and
//     delivered with the round in flight — no extra flush round needed.
//
// Inbox views (StepIn.Recs and each record's Ints tail) alias the
// vertex's inbox arena and are valid only during the Step call.
// After quiescence, a machine that yields anyway is stepped with an
// empty inbox and one that parks is stepped with Quiesced again, and
// every send is discarded — the inert post-quiescence epilogue.

// StepStatus is a Machine's scheduling request after one step.
type StepStatus uint8

const (
	// StepYield ends the round for this vertex and requests the next
	// one — an explicit self-wakeup.
	StepYield StepStatus = iota
	// StepPark parks the vertex until a delivery (or quiescence).
	StepPark
	// StepDone retires the vertex; it is never stepped again.
	StepDone
)

// StepIn is the input of one machine step.
type StepIn struct {
	// Start marks the first step of the run (no round has completed yet;
	// the inbox is empty).
	Start bool
	// Msgs is the completed round's boxed-payload inbox, sorted by
	// sender id (ties in send order).
	Msgs []Message
	// Recs is the record-path inbox, in the same order. It aliases the
	// vertex's inbox arena: valid only during this Step call. A protocol
	// uses one family (see rec.go).
	Recs []InRec
	// Quiesced reports that the network went permanently silent while
	// this machine was parked: finalize and StepDone.
	Quiesced bool
}

// Machine is one vertex as an explicit state machine. Step must not
// block: it queues sends via c (SendRec/Send), consumes in, and returns
// its scheduling request. Exactly one Step runs at a time per machine;
// different machines may be stepped concurrently, so state shared between
// machines must be written only at per-vertex slots (or synchronized).
type Machine interface {
	Step(c *Ctx, in StepIn) StepStatus
}

// PhasedProgram is the shape shared by the paper's algorithms: an
// unbounded loop of fixed iterations, each a grid of phases (one phase =
// one round), with parking between iterations, tag-classified wake-ups,
// and three distinct exits (halt mid-iteration, terminal announcement
// plus flush round, quiescence release). phasedMachine turns any such
// program into a Machine, so the iteration-grid control flow is encoded
// exactly once and every algorithm states only its per-phase logic.
type PhasedProgram interface {
	// Phases returns the first and last phase index of one iteration.
	Phases() (first, last int)
	// Begin starts a new iteration: bump counters, reset per-iteration
	// scratch. Called before the first phase of every iteration,
	// including one entered by a wake-up.
	Begin()
	// Emit queues phase ph's sends. Returning true announces termination:
	// the machine spends one more round committing the announcement (the
	// flush round every peer observes), then calls Terminal and retires.
	Emit(ph int) bool
	// Process consumes phase ph's inbox. Returning true halts the vertex
	// mid-iteration: Halt runs and the machine retires, its final sends
	// riding the retirement (no flush round).
	Process(ph int, recs []InRec) bool
	// Parkable reports whether the vertex owes the network nothing this
	// iteration and may park instead of running it.
	Parkable() bool
	// ParkReset adjusts state for a skipped (parked) iteration, e.g.
	// resetting the monotone star-choice continuation.
	ParkReset()
	// Classify maps a wake inbox to the phase whose round delivered it.
	Classify(recs []InRec) int
	// Halt finalizes after Process returned true (queue last words here).
	Halt()
	// Terminal finalizes after the post-Emit flush round.
	Terminal()
	// Quiesce finalizes after the network quiesced while parked.
	Quiesce()
}

// pmState is phasedMachine's resume point between steps.
type pmState uint8

const (
	pmStart  pmState = iota // no step taken yet
	pmAwait                 // yielded for phase ph's inbox
	pmParked                // parked between iterations
	pmFlush                 // terminal announced; flush round in flight
)

// phasedMachine drives a PhasedProgram through the iteration grid.
type phasedMachine struct {
	p           PhasedProgram
	first, last int
	ph          int // phase awaiting its inbox (pmAwait)
	state       pmState
	started     bool // at least one iteration begun
}

// NewPhasedMachine wraps a PhasedProgram as a Machine.
func NewPhasedMachine(p PhasedProgram) Machine {
	first, last := p.Phases()
	return &phasedMachine{p: p, first: first, last: last}
}

func (m *phasedMachine) Step(c *Ctx, in StepIn) StepStatus {
	switch m.state {
	case pmStart:
		return m.loopTop()
	case pmAwait:
		return m.afterInbox(m.ph, in.Recs)
	case pmParked:
		if in.Quiesced {
			m.p.Quiesce()
			return StepDone
		}
		m.p.Begin()
		return m.afterInbox(m.p.Classify(in.Recs), in.Recs)
	case pmFlush:
		m.p.Terminal()
		return StepDone
	}
	panic("dist: phased machine stepped after StepDone")
}

// loopTop is the head of the iteration loop: park if nothing is owed,
// otherwise begin an iteration at its first phase.
func (m *phasedMachine) loopTop() StepStatus {
	if m.started && m.p.Parkable() {
		m.p.ParkReset()
		m.state = pmParked
		return StepPark
	}
	m.started = true
	m.p.Begin()
	return m.emitFrom(m.first)
}

// emitFrom emits phase ph and yields for its inbox — or, on a terminal
// announcement, yields for the flush round.
func (m *phasedMachine) emitFrom(ph int) StepStatus {
	if m.p.Emit(ph) {
		m.state = pmFlush
		return StepYield
	}
	m.ph = ph
	m.state = pmAwait
	return StepYield
}

// afterInbox consumes phase ph's inbox and advances the grid.
func (m *phasedMachine) afterInbox(ph int, recs []InRec) StepStatus {
	if m.p.Process(ph, recs) {
		m.p.Halt()
		return StepDone
	}
	if ph == m.last {
		return m.loopTop()
	}
	return m.emitFrom(ph + 1)
}
