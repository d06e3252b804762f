package dist

import (
	"fmt"
	"reflect"
	"testing"

	"distspanner/internal/graph"
)

// Tests for the tracing hooks (trace.go): the exact transcript of small
// exchanges, the logical transcript's determinism — per-vertex event
// buffers and Phase snapshots must be bit-identical across step widths
// and shard counts, with and without faults — and the nil-tracer
// contract (zero allocations, no timestamps) on the disabled path.

// memTracer is the in-package test recorder: per-vertex append-only
// event buffers plus the phase and timing channels. Tracer calls are
// serialized by the engine (the same discipline as OnRound), so no
// locking is needed.
type memTracer struct {
	events  [][]TraceEvent
	phases  []RoundActivity
	timings []RoundTiming
}

func newMemTracer(n int) *memTracer {
	return &memTracer{events: make([][]TraceEvent, n)}
}

func (m *memTracer) Event(ev TraceEvent)     { m.events[ev.V] = append(m.events[ev.V], ev) }
func (m *memTracer) Phase(act RoundActivity) { m.phases = append(m.phases, act) }
func (m *memTracer) RoundTime(t RoundTiming) { m.timings = append(m.timings, t) }

func TestTraceKindStringRoundTrip(t *testing.T) {
	for _, k := range []TraceKind{TraceSend, TraceDeliver, TraceWake, TracePark, TraceRetire} {
		got, ok := ParseTraceKind(k.String())
		if !ok || got != k {
			t.Errorf("ParseTraceKind(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := ParseTraceKind("bogus"); ok {
		t.Error("ParseTraceKind accepted bogus kind")
	}
}

// TestTraceEventSequence pins the exact transcript of a two-vertex
// exchange — the worked example of the round-stamping rules: sends and
// deliveries carry the routed round, routing visits senders in
// ascending id (so v1's delivery from v0 lands before v1's own send is
// routed), a yield is not a park (no park/wake events), and retirements
// carry the round after the last completed one.
func TestTraceEventSequence(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1)
	tr := newMemTracer(2)
	_, err := RunMachines(Config{Graph: g, Seed: 1, Tracer: tr}, each(func(ctx *Ctx, in StepIn) StepStatus {
		if in.Start {
			blob{val: ctx.ID(), size: 8}.send(ctx, 1-ctx.ID())
			return StepYield
		}
		if len(in.Recs) != 1 {
			t.Errorf("vertex %d: got %d messages", ctx.ID(), len(in.Recs))
		}
		return StepDone
	}))
	if err != nil {
		t.Fatal(err)
	}
	want := [][]TraceEvent{
		{
			{Kind: TraceSend, Round: 1, V: 0, Peer: 1, Bits: 8},
			{Kind: TraceDeliver, Round: 1, V: 0, Peer: 1, Bits: 8},
			{Kind: TraceRetire, Round: 2, V: 0, Peer: -1},
		},
		{
			{Kind: TraceDeliver, Round: 1, V: 1, Peer: 0, Bits: 8},
			{Kind: TraceSend, Round: 1, V: 1, Peer: 0, Bits: 8},
			{Kind: TraceRetire, Round: 2, V: 1, Peer: -1},
		},
	}
	if !reflect.DeepEqual(tr.events, want) {
		t.Errorf("transcript mismatch:\ngot:  %+v\nwant: %+v", tr.events, want)
	}
	wantPhases := []RoundActivity{
		{Round: 1, Active: 2, Senders: 2, Delivered: 2, DeliveredBits: 16},
	}
	if !reflect.DeepEqual(tr.phases, wantPhases) {
		t.Errorf("phases mismatch:\ngot:  %+v\nwant: %+v", tr.phases, wantPhases)
	}
	if len(tr.timings) != len(tr.phases) {
		t.Errorf("timings: got %d entries, want %d", len(tr.timings), len(tr.phases))
	}
}

// TestTraceParkWakeSequence pins the park/wake half of the lifecycle:
// a parking vertex is stamped with the round it parks into, a later
// delivery wakes it (stamped with the routed round), and quiescence
// retires the still-parked listener.
func TestTraceParkWakeSequence(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1)
	tr := newMemTracer(2)
	_, err := RunMachines(Config{Graph: g, Seed: 1, Tracer: tr}, func(*Ctx) Machine {
		step := 0
		return machineFunc(func(ctx *Ctx, in StepIn) StepStatus {
			step++
			if ctx.ID() != 0 {
				if in.Quiesced {
					return StepDone // released by quiescence
				}
				return StepPark
			}
			switch step {
			case 1:
				return StepYield // idle round 1
			case 2:
				blob{val: 7, size: 8}.send(ctx, 1)
				return StepYield
			}
			return StepDone
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]TraceEvent{
		{
			{Kind: TraceSend, Round: 2, V: 0, Peer: 1, Bits: 8},
			{Kind: TraceRetire, Round: 3, V: 0, Peer: -1},
		},
		{
			{Kind: TracePark, Round: 1, V: 1, Peer: -1},
			{Kind: TraceDeliver, Round: 2, V: 1, Peer: 0, Bits: 8},
			{Kind: TraceWake, Round: 2, V: 1, Peer: 0},
			{Kind: TracePark, Round: 3, V: 1, Peer: -1},
			{Kind: TraceRetire, Round: 3, V: 1, Peer: -1},
		},
	}
	if !reflect.DeepEqual(tr.events, want) {
		t.Errorf("transcript mismatch:\ngot:  %+v\nwant: %+v", tr.events, want)
	}
}

// traceSameRuns runs the record chaos machine with a tracer under every
// config and requires the full logical transcript — every per-vertex
// event buffer and every Phase snapshot — to be bit-identical.
func traceSameRuns(t *testing.T, g *graph.Graph, cfgs []Config) {
	t.Helper()
	var ref *memTracer
	for i, cfg := range cfgs {
		tr := newMemTracer(g.N())
		cfg.Tracer = tr
		out := make([]int64, g.N())
		if _, err := RunMachines(cfg, func(c *Ctx) Machine {
			return &chaosMachine{out: out, rounds: 12}
		}); err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if i == 0 {
			ref = tr
			continue
		}
		if !reflect.DeepEqual(ref.events, tr.events) {
			t.Fatalf("config %d (workers=%d shards=%d): event transcript diverged", i, cfg.Workers, cfg.Shards)
		}
		if !reflect.DeepEqual(ref.phases, tr.phases) {
			t.Fatalf("config %d (workers=%d shards=%d): phases diverged:\nref: %+v\ngot: %+v",
				i, cfg.Workers, cfg.Shards, ref.phases, tr.phases)
		}
	}
}

// TestTraceCrossModeChaosEquivalence reruns the fault-injecting chaos
// protocol (random parks, broadcasts, early retirements) with a tracer
// installed, across step widths and against the 3-shard coordinator
// run.
func TestTraceCrossModeChaosEquivalence(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"clique16":   clique(16),
		"path33":     path(33),
		"sparse2x40": func() *graph.Graph { g := graph.New(80); g.AddEdge(0, 79); return g }(),
	}
	for name, g := range graphs {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				traceSameRuns(t, g, recConfigs(g, seed))
			})
		}
	}
}

// TestTraceMachineCrossModeEquivalence is the step-width version: the
// chaos machine's transcript must not depend on how many goroutines
// step a round.
func TestTraceMachineCrossModeEquivalence(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"clique16": clique(16),
		"ring64":   benchGraph(64),
	}
	for name, g := range graphs {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				traceSameRuns(t, g, widthConfigs(g, seed))
			})
		}
	}
}

// TestTraceDeliveredMatchesStats cross-checks the Phase channel against
// the engine's own metering on a fully-busy run, where every sent
// payload is also delivered: summed Delivered must equal
// Stats.Messages, summed DeliveredBits must equal Stats.TotalBits.
func TestTraceDeliveredMatchesStats(t *testing.T) {
	g := clique(8)
	tr := newMemTracer(g.N())
	stats, err := RunMachines(Config{Graph: g, Seed: 3, Tracer: tr}, fourRounds(func(ctx *Ctx, r int) {
		blob{val: r, size: 16}.broadcast(ctx)
	}))
	if err != nil {
		t.Fatal(err)
	}
	var deliv, bits int64
	for _, act := range tr.phases {
		deliv += int64(act.Delivered)
		bits += act.DeliveredBits
	}
	if deliv != stats.Messages {
		t.Errorf("summed Delivered = %d, Stats.Messages = %d", deliv, stats.Messages)
	}
	if bits != stats.TotalBits {
		t.Errorf("summed DeliveredBits = %d, Stats.TotalBits = %d", bits, stats.TotalBits)
	}
}

// TestNilTracerZeroAllocs pins the disabled path's cost: with no tracer
// installed, the per-event emission helpers must not allocate, and the
// engine must not arm the timing clock or delivery metering.
func TestNilTracerZeroAllocs(t *testing.T) {
	g := clique(4)
	e := newEngine(Config{Graph: g, Seed: 1})
	if e.timed {
		t.Error("nil tracer armed the timing clock")
	}
	if e.meterDlv {
		t.Error("nil tracer (and nil OnRound) armed delivery metering")
	}
	if n := testing.AllocsPerRun(100, func() {
		e.traceBlocked(TracePark, 2)
		e.traceBlocked(TraceRetire, 3)
	}); n != 0 {
		t.Errorf("traceBlocked with nil tracer allocated %v times per run", n)
	}
}
