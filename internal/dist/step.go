package dist

import (
	"runtime"
	"time"
)

// The scheduler: vertices are explicit state machines stepped by a
// run-to-completion loop on the caller's goroutine. There is no
// per-vertex goroutine and no channel hand-off — vertex resume state
// lives in the Machine values and the flat Ctx arenas, and a round is one
// scan over the active set followed by the round core (round.go):
// classify, meter, the round rule, deliver, record, rebuild. The sharded
// runner (shard.go, coord.go) drives the same core across workers.
//
// Concurrency: only the loop's goroutine touches engine state, so no
// locks are taken. Machine steps themselves are sharded across worker
// goroutines when the active set is large — safe because a step only
// writes its own vertex's Ctx arenas, status slot and input slot, and
// only reads the inbox arena and record table deliver filled.

// runStep drives the machines to completion. On return e.stats and
// e.abort hold the result; the caller (RunMachines) packages them.
func (e *engine) runStep() {
	for {
		e.timeInto(&e.stepNs, e.stepMachines)
		if e.abort != nil {
			return
		}
		e.classify()
		var m MeterReport
		e.timeInto(&e.routeNs, func() { m = e.meter() })
		kind, err := e.decide(e.retired == e.n, len(e.yielded) > 0, e.flushWakes(), &m)
		if err != nil {
			e.abort = err
			return
		}
		e.timeInto(&e.routeNs, func() { e.deliver(nil) })
		switch kind {
		case DecideQuiesce:
			e.quiesce()
			return
		case DecideFinish:
			return
		}
		e.record(RoundActivity{
			Round: e.stats.Rounds, Active: len(e.active), Parked: e.parked, Senders: len(e.dirty),
			Delivered: e.deliv, DeliveredBits: e.delivBits,
		})
		e.rebuild()
	}
}

// timeInto runs f and, when the timing channel is on, adds its wall time
// to *ns.
func (e *engine) timeInto(ns *int64, f func()) {
	if !e.timed {
		f()
		return
	}
	t0 := time.Now()
	f()
	*ns += int64(time.Since(t0))
}

// stepMachines steps every active machine, serially for small active
// sets and sharded across workers for large ones. Each shard writes
// only its own vertices' status and input slots and Ctx arenas, so no
// locking is needed; the first panic in active-set order becomes e.abort.
func (e *engine) stepMachines() {
	if e.stepPar <= 1 || len(e.active) < parallelThreshold {
		for _, c := range e.active {
			if err := e.stepOne(c, &e.rands[0]); err != nil {
				e.abort = err
				return
			}
		}
		return
	}
	errs := make([]error, e.stepPar)
	inParallel(len(e.active), e.stepPar, func(p, lo, hi int) {
		for _, c := range e.active[lo:hi] {
			if err := e.stepOne(c, &e.rands[p]); err != nil && errs[p] == nil {
				errs[p] = err
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			e.abort = err
			return
		}
	}
}

// stepOne steps vertex c's machine with its prepared input and the
// stepper's random source rs, recording the returned status and clearing
// the input: a later round hands the vertex an inbox only if it delivers
// to it.
func (e *engine) stepOne(c *Ctx, rs *stepRand) error {
	st, err := stepSafe(e.machines[c.id], c, e.ins[c.id], rs)
	e.status[c.id] = st
	e.ins[c.id] = StepIn{}
	return err
}

// stepSafe runs one machine step drawing from rs, converting a panic
// into the run's abort error. c holds rs only during the step.
func stepSafe(m Machine, c *Ctx, in StepIn, rs *stepRand) (st StepStatus, err error) {
	c.rs = rs
	defer func() {
		c.rs = nil
		if r := recover(); r != nil {
			st, err = StepDone, vertexPanicError(c.id, r)
		}
	}()
	return m.Step(c, in), nil
}

// stepEpilogue drains a parked machine after quiescence: it is stepped
// with Quiesced until it retires. Rounds no longer advance, so a yield
// is answered with an empty inbox, a park with Quiesced again, and every
// send is discarded.
func (e *engine) stepEpilogue(m Machine, c *Ctx) {
	in := StepIn{Quiesced: true}
	for {
		st, err := stepSafe(m, c, in, &e.rands[0])
		c.clearSends()
		if err != nil {
			if e.abort == nil {
				e.abort = err
			}
			return
		}
		switch st {
		case StepDone:
			e.status[c.id] = StepDone
			e.traceBlocked(TraceRetire, c.id)
			return
		case StepYield:
			in = StepIn{}
		case StepPark:
			in = StepIn{Quiesced: true}
		}
	}
}

// stepWorkers resolves the step-shard width for a config: Workers if
// positive, else GOMAXPROCS.
func stepWorkers(cfg Config) int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}
