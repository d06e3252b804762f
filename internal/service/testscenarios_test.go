package service

import (
	"errors"
	"sync"

	"distspanner/internal/dist"
	"distspanner/internal/graph"
	"distspanner/internal/scenario"
)

// blockCtl coordinates one svc-test-block run with its test: the run
// closes started when it begins, then holds until the test closes
// release or the executor's cancel channel fires (closing canceled).
type blockCtl struct {
	started   chan struct{}
	release   chan struct{}
	canceled  chan struct{}
	startOnce sync.Once
	stopOnce  sync.Once
}

var (
	ctlMu sync.Mutex
	ctls  = map[string]*blockCtl{}
)

// newBlockCtl registers a controller under name; runs select it with
// the "ctl" parameter (part of instance identity, so distinct
// controllers are distinct jobs and identical ctl params coalesce).
func newBlockCtl(name string) *blockCtl {
	c := &blockCtl{
		started:  make(chan struct{}),
		release:  make(chan struct{}),
		canceled: make(chan struct{}),
	}
	ctlMu.Lock()
	ctls[name] = c
	ctlMu.Unlock()
	return c
}

// svc-test-block: a synthetic scenario for exercising the service's
// queueing, coalescing, and cancellation paths deterministically. It is
// registered only in this test binary.
func init() {
	scenario.Register(&scenario.Scenario{
		Name:  "svc-test-block",
		Title: "service test: run until released or canceled",
		Model: "sequential",
		Run: func(p scenario.Params, seed int64, cancel <-chan struct{}) (scenario.Metrics, error) {
			ctlMu.Lock()
			c := ctls[p.Str("ctl", "")]
			ctlMu.Unlock()
			if c == nil {
				return scenario.Metrics{"valid": 1, "seed": float64(seed)}, nil
			}
			c.startOnce.Do(func() { close(c.started) })
			select {
			case <-c.release:
				return scenario.Metrics{"valid": 1, "seed": float64(seed)}, nil
			case <-cancel:
				c.stopOnce.Do(func() { close(c.canceled) })
				return nil, errors.New("svc-test-block: canceled")
			}
		},
	})
}

// panicMachine panics in its first step.
type panicMachine struct{}

func (panicMachine) Step(*dist.Ctx, dist.StepIn) dist.StepStatus {
	panic("svc-test-panic: boom")
}

// svc-test-panic: a synthetic scenario whose machines panic, for
// exercising how a vertex panic reaches clients. It is registered only
// in this test binary.
func init() {
	scenario.Register(&scenario.Scenario{
		Name:  "svc-test-panic",
		Title: "service test: every machine panics",
		Model: "LOCAL",
		Run: func(p scenario.Params, seed int64, cancel <-chan struct{}) (scenario.Metrics, error) {
			g := graph.New(2)
			g.AddEdge(0, 1)
			_, err := dist.RunMachines(dist.Config{Graph: g, Seed: seed, Cancel: cancel},
				func(*dist.Ctx) dist.Machine { return panicMachine{} })
			return nil, err
		},
	})
}
