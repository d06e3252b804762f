package dist

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"distspanner/internal/graph"
)

// Tests for the state-machine surface (machine.go), the step engine
// (step.go), the retire-flush delivery rule, and run cancellation. The
// chaos matrices compare execution configurations that must be
// observationally identical: serial stepping, a 3-wide step shard, the
// defaults, and — for record-only protocols — a 3-shard run of the
// sharded coordinator.

// chaosMachine is a randomized record protocol mixing yields, parks,
// broadcasts with shared tails, targeted sends, and early retirement
// (faults): vertices whose RNG rolls a fault retire mid-run while peers
// keep sending to them. Every delivered record folds into a per-vertex
// hash, so any divergence in content, order, or lifecycle shows up.
type chaosMachine struct {
	out    []int64
	h      int64
	r      int
	rounds int
}

func (m *chaosMachine) Step(c *Ctx, in StepIn) StepStatus {
	if in.Quiesced {
		m.h = m.h*31 + 7
		m.out[c.ID()] = m.h
		return StepDone
	}
	if in.Start {
		m.h = int64(c.ID())
	} else {
		for i := range in.Recs {
			rec := &in.Recs[i]
			m.h = m.h*31 + int64(rec.From)<<2 + int64(rec.Tag) + rec.A + rec.B
			for _, x := range rec.Ints {
				m.h = m.h*33 + int64(x)
			}
		}
		m.r++
	}
	if m.r >= m.rounds {
		m.out[c.ID()] = m.h
		return StepDone
	}
	if c.Rand().Intn(16) == 0 {
		m.h = m.h*31 + 13 // fault: retire early
		m.out[c.ID()] = m.h
		return StepDone
	}
	roll := c.Rand().Intn(8)
	switch {
	case roll == 0 && c.Degree() > 0:
		c.BroadcastRec(Rec{Tag: 2, A: int64(m.r), Ints: []int{m.r, c.ID()}}, 32)
	case roll < 3 && c.Degree() > 0:
		to := c.Neighbors()[c.Rand().Intn(c.Degree())]
		c.SendRec(to, Rec{Tag: 1, B: int64(to), F1: float64(m.r)}, 16)
	}
	if roll >= 6 {
		return StepPark
	}
	return StepYield
}

// widthConfigs is the in-process execution matrix every protocol must
// be invariant under: serial stepping, a 3-wide step shard, explicit
// ModeStep, and the defaults.
func widthConfigs(g *graph.Graph, seed int64) []Config {
	return []Config{
		{Graph: g, Seed: seed, Workers: 1},
		{Graph: g, Seed: seed, Workers: 3},
		{Graph: g, Seed: seed, Mode: ModeStep},
		{Graph: g, Seed: seed},
	}
}

// recConfigs extends widthConfigs for record-only protocols, which may
// also run sharded: the 3-shard coordinator run is the second oracle.
func recConfigs(g *graph.Graph, seed int64) []Config {
	return append(widthConfigs(g, seed), Config{Graph: g, Seed: seed, Shards: 3})
}

// chaosGraphs are the topologies of the chaos matrices: dense, long and
// thin, a degree-4 ring large enough for parallel stepping, and a
// mostly isolated set whose vertices all park or retire at once.
func chaosGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"clique16":   clique(16),
		"path33":     path(33),
		"ring64":     benchGraph(64),
		"sparse2x40": func() *graph.Graph { g := graph.New(80); g.AddEdge(0, 79); return g }(),
	}
}

// checkSameRuns runs factory(out) under every config and requires
// identical per-vertex outputs and Stats.
func checkSameRuns(t *testing.T, g *graph.Graph, cfgs []Config, factory func(out []int64) func(*Ctx) Machine) {
	t.Helper()
	var ref []int64
	var refStats Stats
	for i, cfg := range cfgs {
		out := make([]int64, g.N())
		stats, err := RunMachines(cfg, factory(out))
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if i == 0 {
			ref, refStats = out, *stats
			continue
		}
		if !reflect.DeepEqual(ref, out) {
			t.Fatalf("config %d (workers=%d shards=%d) diverged from serial stepping", i, cfg.Workers, cfg.Shards)
		}
		if refStats != *stats {
			t.Fatalf("config %d stats diverged:\nref: %+v\ngot: %+v", i, refStats, *stats)
		}
	}
}

func TestMachineCrossModeChaosEquivalence(t *testing.T) {
	for name, g := range chaosGraphs() {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				checkSameRuns(t, g, widthConfigs(g, seed), func(out []int64) func(*Ctx) Machine {
					return func(*Ctx) Machine { return &chaosMachine{out: out, rounds: 12} }
				})
			})
		}
	}
}

// lastWordsMachine: vertex 0 sends one record and immediately retires;
// every other vertex parks and must still receive the delivery — the
// retire-flush contract.
type lastWordsMachine struct {
	got []int64
}

func (m *lastWordsMachine) Step(c *Ctx, in StepIn) StepStatus {
	if c.ID() == 0 {
		c.SendRec(1, Rec{Tag: 1, A: 9}, 8)
		return StepDone // last words ride the retirement
	}
	if in.Quiesced {
		return StepDone
	}
	if in.Start {
		return StepPark
	}
	for i := range in.Recs {
		m.got = append(m.got, in.Recs[i].A)
	}
	return StepPark
}

func TestRetireFlushDeliversLastWords(t *testing.T) {
	// A vertex that retires with sends queued commits them with the
	// retirement: parked receivers wake on the delivery, and the round
	// counts because somebody observed it.
	g := path(3)
	for i, cfg := range recConfigs(g, 1) {
		var m1 lastWordsMachine
		stats, err := RunMachines(cfg, func(c *Ctx) Machine {
			if c.ID() == 1 {
				return &m1
			}
			return &lastWordsMachine{}
		})
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if !reflect.DeepEqual(m1.got, []int64{9}) {
			t.Fatalf("config %d: receiver saw %v, want [9]", i, m1.got)
		}
		if stats.Rounds != 1 || stats.Messages != 1 {
			t.Fatalf("config %d: stats = %+v, want Rounds=1 Messages=1", i, stats)
		}
	}

	// The same contract holds for boxed payloads.
	for i, cfg := range widthConfigs(g, 1) {
		var got []int
		stats, err := RunMachines(cfg, each(func(ctx *Ctx, in StepIn) StepStatus {
			switch {
			case ctx.ID() == 0:
				ctx.Send(1, blob{val: 9, size: 8})
				return StepDone // no trailing yield
			case in.Quiesced:
				return StepDone
			case ctx.ID() == 1:
				for _, m := range in.Msgs {
					got = append(got, m.Payload.(blob).val)
				}
			}
			return StepPark
		}))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, []int{9}) {
			t.Fatalf("config %d: receiver saw %v, want [9]", i, got)
		}
		if stats.Rounds != 1 || stats.Messages != 1 {
			t.Fatalf("config %d: stats = %+v, want Rounds=1 Messages=1", i, stats)
		}
	}
}

func TestRetireFlushSilentDrop(t *testing.T) {
	// Last words that can only reach already-retired vertices are metered
	// (the bits were sent) but dropped without charging a round: no
	// receiver could observe that boundary. Vertex 1 retires instantly,
	// and the survivor's final words go to the corpse after one observed
	// round.
	for i, cfg := range recConfigs(path(2), 1) {
		stats, err := RunMachines(cfg, each(func(ctx *Ctx, in StepIn) StepStatus {
			if ctx.ID() == 1 {
				return StepDone
			}
			if in.Start {
				return StepYield
			}
			ctx.SendRec(1, Rec{Tag: 1}, 8)
			return StepDone
		}))
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if stats.Rounds != 1 || stats.Messages != 1 || stats.TotalBits != 8 {
			t.Fatalf("config %d: stats = %+v, want Rounds=1 Messages=1 TotalBits=8", i, stats)
		}
	}
	// Boxed flavor, two payloads, to check the metering adds up.
	for i, cfg := range widthConfigs(path(2), 1) {
		stats, err := RunMachines(cfg, each(func(ctx *Ctx, in StepIn) StepStatus {
			if ctx.ID() == 1 {
				return StepDone // retires instantly
			}
			if in.Start {
				return StepYield // round 1: vertex 1 already gone
			}
			ctx.Send(1, blob{size: 8}) // addressed to the departed
			ctx.Send(1, blob{size: 8})
			return StepDone
		}))
		if err != nil {
			t.Fatal(err)
		}
		if stats.Rounds != 1 {
			t.Fatalf("config %d: Rounds = %d, want 1 (silent drop must not count a round)", i, stats.Rounds)
		}
		if stats.Messages != 2 || stats.TotalBits != 16 {
			t.Fatalf("config %d: dropped last words not metered: %+v", i, stats)
		}
	}
}

func TestCancelAbortsRun(t *testing.T) {
	// A canceled run aborts at the next round boundary with ErrCanceled;
	// RunMachines returns only once no step is running, so -race verifies
	// no writer outlives the call.
	g := clique(8)
	for i, cfg := range widthConfigs(g, 1) {
		cancel := make(chan struct{})
		var canceledAt int
		cfg.Cancel = cancel
		cfg.OnRound = func(a RoundActivity) {
			if a.Round == 5 {
				canceledAt = a.Round
				close(cancel)
			}
		}
		_, err := RunMachines(cfg, each(busyBoxed))
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("config %d: err = %v, want ErrCanceled", i, err)
		}
		if canceledAt != 5 {
			t.Fatalf("config %d: cancel fired at round %d", i, canceledAt)
		}
	}
	// A pre-closed cancel aborts before any traffic is delivered.
	pre := make(chan struct{})
	close(pre)
	_, err := RunMachines(Config{Graph: g, Seed: 1, Cancel: pre}, each(func(ctx *Ctx, in StepIn) StepStatus {
		ctx.BroadcastRec(Rec{Tag: 1}, 4)
		return StepYield
	}))
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-closed cancel: err = %v, want ErrCanceled", err)
	}
}

func TestModeStepValidation(t *testing.T) {
	if _, err := RunMachines(Config{}, func(c *Ctx) Machine { return nil }); err == nil {
		t.Fatal("nil graph must error")
	}
	if _, err := RunMachines(Config{Graph: path(2), Mode: Mode(99)}, func(c *Ctx) Machine { return nil }); err == nil {
		t.Fatal("invalid mode must error")
	}
	stats, err := RunMachines(Config{Graph: graph.New(0)}, func(c *Ctx) Machine { return nil })
	if err != nil || *stats != (Stats{}) {
		t.Fatalf("empty graph: %+v, %v", stats, err)
	}
}

func TestMachineActivityAccounting(t *testing.T) {
	// The activity fold must be identical across execution
	// configurations, including the OnRound curve.
	g := benchGraph(32)
	var ref []RoundActivity
	for i, cfg := range recConfigs(g, 3) {
		var curve []RoundActivity
		cfg.OnRound = func(a RoundActivity) { curve = append(curve, a) }
		out := make([]int64, g.N())
		if _, err := RunMachines(cfg, func(c *Ctx) Machine {
			return &chaosMachine{out: out, rounds: 8}
		}); err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if i == 0 {
			ref = curve
			continue
		}
		if !reflect.DeepEqual(ref, curve) {
			t.Fatalf("config %d activity curve diverged:\nref: %+v\ngot: %+v", i, ref, curve)
		}
	}
}
