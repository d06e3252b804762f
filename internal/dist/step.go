package dist

import (
	"runtime"
	"sync"
	"time"
)

// The scheduler: vertices are explicit state machines stepped by a
// run-to-completion loop on the caller's goroutine. There is no
// per-vertex goroutine and no channel hand-off — vertex resume state
// lives in the Machine values and the flat Ctx arenas, and a round is one
// scan over the active set followed by routing (routeTimed), activity
// accounting (recordRound), and the quiescence/retire-flush rules
// (flushWakes). The sharded runner (shard.go, coord.go) re-partitions
// exactly this loop.
//
// Concurrency: only the loop's goroutine touches engine state, so no
// locks are taken. Machine steps themselves are sharded across worker
// goroutines when the active set is large — safe because a step only
// writes its own vertex's Ctx arenas and status slot.

// runStep drives machines to completion. On return e.stats and e.abort
// hold the result; the caller (RunMachines) packages them.
func (e *engine) runStep(machines []Machine) {
	n := e.n
	status := make([]StepStatus, n)
	ins := make([]StepIn, n)
	active := make([]*Ctx, 0, n)
	for _, c := range e.ctxs {
		ins[c.id] = StepIn{Start: true}
		active = append(active, c)
	}
	done := 0
	var yielded []*Ctx
	for {
		if e.timed {
			t0 := time.Now()
			e.stepMachines(machines, status, ins, active)
			e.stepNs += int64(time.Since(t0))
		} else {
			e.stepMachines(machines, status, ins, active)
		}
		if e.abort != nil {
			return
		}
		yielded = yielded[:0]
		for _, c := range active {
			e.stepped++
			switch status[c.id] {
			case StepYield:
				yielded = append(yielded, c)
				if c.hasSends() {
					e.dirty = append(e.dirty, c)
				}
			case StepPark:
				c.parked = true
				e.traceBlocked(TracePark, c.id)
				e.parked++
				if c.hasSends() {
					e.dirty = append(e.dirty, c)
				}
			case StepDone:
				c.done = true
				e.traceBlocked(TraceRetire, c.id)
				// Retire-flush: a retiring vertex's sends are committed by
				// the retirement itself, unless the run has quiesced.
				if !e.quiesced && c.hasSends() {
					e.dirty = append(e.dirty, c)
				} else {
					c.clearSends()
				}
				done++
			}
		}
		if done == n {
			// Everyone retired. Any last words can only be going to done
			// vertices: meter and drop them without charging a round.
			if len(e.dirty) > 0 {
				e.routeTimed()
			}
			return
		}
		if len(yielded) == 0 {
			// No vertex asked for another round. If pending retirement
			// sends cannot wake anybody, route them silently (meter+drop)
			// and quiesce the parked set.
			wakes := len(e.dirty) > 0 && e.flushWakes()
			if !wakes {
				if len(e.dirty) > 0 {
					e.routeTimed()
					if e.abort != nil {
						return
					}
				}
				e.quiesced = true
				for _, c := range e.ctxs {
					if !c.parked {
						continue
					}
					c.parked = false
					e.stepEpilogue(machines[c.id], c)
					if e.abort != nil {
						return
					}
				}
				e.parked = 0
				return
			}
		}
		e.stats.Rounds++
		if e.stats.Rounds > e.maxRounds {
			e.abort = e.roundLimitError()
			return
		}
		if e.canceled() {
			e.abort = e.cancelError()
			return
		}
		e.routeTimed()
		if e.abort != nil {
			return
		}
		e.parked -= len(e.woken)
		e.recordRound()
		active = active[:0]
		for _, c := range yielded {
			ins[c.id] = StepIn{Recs: c.takeRecs(), Msgs: c.takeMessages()}
			active = append(active, c)
		}
		for _, c := range e.woken {
			c.parked = false
			ins[c.id] = StepIn{Recs: c.takeRecs(), Msgs: c.takeMessages()}
			active = append(active, c)
		}
		e.woken = e.woken[:0]
	}
}

// stepParallelThreshold is the active-set size below which machines are
// stepped serially: sharding overhead dominates under it. Mirrors the
// routing shard threshold in route.
const stepParallelThreshold = 64

// stepMachines steps every active machine, serially for small active
// sets and sharded across workers for large ones. Each shard writes
// only its own vertices' status slots and Ctx arenas, so no locking is
// needed; the first panic (by vertex id order) becomes e.abort.
func (e *engine) stepMachines(machines []Machine, status []StepStatus, ins []StepIn, active []*Ctx) {
	if e.stepPar <= 1 || len(active) < stepParallelThreshold {
		for _, c := range active {
			st, err := stepSafe(machines[c.id], c, ins[c.id])
			status[c.id] = st
			if err != nil {
				e.abort = err
				return
			}
		}
		return
	}
	workers := e.stepPar
	if workers > len(active) {
		workers = len(active)
	}
	errs := make([]error, len(active))
	var wg sync.WaitGroup
	chunk := (len(active) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= len(active) {
			break
		}
		hi := lo + chunk
		if hi > len(active) {
			hi = len(active)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				c := active[i]
				st, err := stepSafe(machines[c.id], c, ins[c.id])
				status[c.id] = st
				errs[i] = err
			}
		}(lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			e.abort = err
			return
		}
	}
}

// stepSafe runs one machine step, converting a panic into the run's
// abort error.
func stepSafe(m Machine, c *Ctx, in StepIn) (st StepStatus, err error) {
	defer func() {
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
		st, err := stepSafe(m, c, in)
		c.clearSends()
		if err != nil {
			if e.abort == nil {
				e.abort = err
			}
			return
		}
		switch st {
		case StepDone:
			c.done = true
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
