package dist

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"distspanner/internal/graph"
)

// blob is a test message of a declared size with an integer body: val
// rides in the record's A word, and size is the metered size.
type blob struct {
	val  int
	size int
}

func (b blob) Bits() int { return b.size }
func (b blob) rec() Rec  { return Rec{A: int64(b.val)} }

// send queues b for the neighbor to; broadcast queues it for every
// neighbor.
func (b blob) send(c *Ctx, to int) { c.SendRec(to, b.rec(), b.Bits()) }
func (b blob) broadcast(c *Ctx)    { c.BroadcastRec(b.rec(), b.Bits()) }

func path(n int) *graph.Graph {
	g := graph.New(n)
	for v := 0; v+1 < n; v++ {
		g.AddEdge(v, v+1)
	}
	return g
}

func clique(n int) *graph.Graph {
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(u, v)
		}
	}
	return g
}

// machineFunc adapts a function to the Machine interface.
type machineFunc func(*Ctx, StepIn) StepStatus

func (f machineFunc) Step(c *Ctx, in StepIn) StepStatus { return f(c, in) }

// each builds the same function machine for every vertex: a factory for
// protocols whose per-vertex state fits in the closure's own variables.
func each(step func(*Ctx, StepIn) StepStatus) func(*Ctx) Machine {
	return func(*Ctx) Machine { return machineFunc(step) }
}

// gossipMachines is a deterministic-but-randomized protocol used by the
// determinism tests: for rounds iterations every vertex broadcasts a
// random word and accumulates what it hears into out[me].
func gossipMachines(rounds int, out []int64) func(*Ctx) Machine {
	return func(c *Ctx) Machine {
		acc, r := int64(c.ID()), 0
		return machineFunc(func(ctx *Ctx, in StepIn) StepStatus {
			if !in.Start {
				for _, m := range in.Recs {
					acc = acc*31 + int64(m.From) + m.A
				}
				r++
			}
			if r == rounds {
				out[ctx.ID()] = acc
				return StepDone
			}
			blob{val: ctx.Intn(1 << 20), size: 32}.broadcast(ctx)
			return StepYield
		})
	}
}

func TestFixedSeedDeterminism(t *testing.T) {
	g := clique(12)
	run := func(workers int) ([]int64, Stats) {
		out := make([]int64, g.N())
		stats, err := RunMachines(Config{Graph: g, Seed: 42, Workers: workers}, gossipMachines(8, out))
		if err != nil {
			t.Fatal(err)
		}
		return out, *stats
	}
	out1, st1 := run(0)
	out2, st2 := run(0)
	if !reflect.DeepEqual(out1, out2) {
		t.Fatal("two runs with the same seed produced different per-vertex outputs")
	}
	if st1 != st2 {
		t.Fatalf("two runs with the same seed produced different Stats:\n%+v\n%+v", st1, st2)
	}
	if st1.Rounds != 8 {
		t.Fatalf("Rounds = %d, want 8", st1.Rounds)
	}
	// The step-shard width must be observationally invisible.
	out3, st3 := run(1)
	if !reflect.DeepEqual(out1, out3) || st1 != st3 {
		t.Fatal("serial stepping diverged from the default step-shard width")
	}
	// A different seed must actually change the random stream.
	out4 := make([]int64, g.N())
	if _, err := RunMachines(Config{Graph: g, Seed: 43}, gossipMachines(8, out4)); err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(out1, out4) {
		t.Fatal("different seeds produced identical outputs")
	}
}

func TestRoundCounting(t *testing.T) {
	// Vertex v stays for v+1 rounds; Rounds is the maximum.
	n := 7
	g := clique(n)
	stats, err := RunMachines(Config{Graph: g, Seed: 1}, func(*Ctx) Machine {
		r := 0
		return machineFunc(func(ctx *Ctx, in StepIn) StepStatus {
			if !in.Start {
				r++
			}
			if r > ctx.ID() {
				return StepDone
			}
			return StepYield
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != n {
		t.Fatalf("Rounds = %d, want %d (max yields over vertices)", stats.Rounds, n)
	}
	if stats.Messages != 0 || stats.TotalBits != 0 {
		t.Fatalf("silent protocol metered traffic: %+v", stats)
	}
}

func TestMessageDeliveryAndOrdering(t *testing.T) {
	// On a path, each vertex broadcasts its id once; everyone must receive
	// exactly its neighbors' messages, sorted by sender.
	g := path(5)
	got := make([][]int, g.N())
	stats, err := RunMachines(Config{Graph: g, Seed: 1}, func(*Ctx) Machine {
		step := 0
		return machineFunc(func(ctx *Ctx, in StepIn) StepStatus {
			step++
			switch step {
			case 1:
				blob{val: ctx.ID(), size: IDBits(ctx.N())}.broadcast(ctx)
				return StepYield
			case 2:
				var from []int
				for _, m := range in.Recs {
					if int(m.A) != m.From {
						t.Errorf("payload %d does not match sender %d", m.A, m.From)
					}
					from = append(from, m.From)
				}
				got[ctx.ID()] = from
				return StepYield
			}
			// No cross-round leakage: the next round is silent.
			if len(in.Recs) != 0 {
				t.Errorf("vertex %d received %d stale messages", ctx.ID(), len(in.Recs))
			}
			return StepDone
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{1}, {0, 2}, {1, 3}, {2, 4}, {3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("inboxes = %v, want %v", got, want)
	}
	if stats.Messages != 8 { // 2*(n-1) directed endpoints
		t.Fatalf("Messages = %d, want 8", stats.Messages)
	}
	if stats.Rounds != 2 {
		t.Fatalf("Rounds = %d, want 2", stats.Rounds)
	}
}

// sendOnceThenDone is a factory for the one-round protocols below: every
// vertex runs send on its first step, yields, and retires.
func sendOnceThenDone(send func(*Ctx)) func(*Ctx) Machine {
	return each(func(ctx *Ctx, in StepIn) StepStatus {
		if !in.Start {
			return StepDone
		}
		send(ctx)
		return StepYield
	})
}

func TestBitsAccounting(t *testing.T) {
	// Vertex 0 sends 10 bits then 30 bits to vertex 1 in one round: the
	// edge carries 40 bits that round, and MaxMessageBits is 30.
	g := path(2)
	stats, err := RunMachines(Config{Graph: g, Seed: 1}, sendOnceThenDone(func(ctx *Ctx) {
		if ctx.ID() == 0 {
			blob{size: 10}.send(ctx, 1)
			blob{size: 30}.send(ctx, 1)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalBits != 40 || stats.MaxMessageBits != 30 || stats.MaxEdgeRoundBits != 40 {
		t.Fatalf("accounting wrong: %+v", stats)
	}
	if !stats.CongestCompatible(40) || stats.CongestCompatible(39) {
		t.Fatalf("CongestCompatible inconsistent with MaxEdgeRoundBits: %+v", stats)
	}
}

func TestEnforceRejectsOversizedPayload(t *testing.T) {
	g := path(2)
	// Vertex 0 sends an oversized payload, then everyone idles one more
	// round before retiring.
	factory := func(*Ctx) Machine {
		step := 0
		return machineFunc(func(ctx *Ctx, in StepIn) StepStatus {
			step++
			if step == 1 && ctx.ID() == 0 {
				blob{size: 100}.send(ctx, 1)
			}
			if step == 3 {
				return StepDone
			}
			return StepYield
		})
	}
	_, err := RunMachines(Config{Graph: g, Seed: 1, Bandwidth: 64}, factory)
	if !errors.Is(err, ErrBandwidth) {
		t.Fatalf("oversized payload: err = %v, want ErrBandwidth", err)
	}
	// Two payloads within budget individually but not together also
	// violate: the budget is per edge per round, not per message.
	_, err = RunMachines(Config{Graph: g, Seed: 1, Bandwidth: 64}, sendOnceThenDone(func(ctx *Ctx) {
		if ctx.ID() == 0 {
			blob{size: 40}.send(ctx, 1)
			blob{size: 40}.send(ctx, 1)
		}
	}))
	if !errors.Is(err, ErrBandwidth) {
		t.Fatalf("accumulated edge traffic not enforced: err = %v", err)
	}
}

// busyBoxed broadcasts a one-bit blob record and yields, forever.
func busyBoxed(ctx *Ctx, in StepIn) StepStatus {
	blob{size: 1}.broadcast(ctx)
	return StepYield
}

func TestRoundLimit(t *testing.T) {
	_, err := RunMachines(Config{Graph: path(3), Seed: 1, MaxRounds: 10}, each(busyBoxed))
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("runaway protocol: err = %v, want ErrRoundLimit", err)
	}
}

func TestCutBits(t *testing.T) {
	// Path 0-1-2-3 cut between 1 and 2: only traffic on edge (1,2) counts.
	g := path(4)
	cut := []bool{false, false, true, true}
	stats, err := RunMachines(Config{Graph: g, Seed: 1, CutSide: cut}, sendOnceThenDone(func(ctx *Ctx) {
		blob{size: 7}.broadcast(ctx)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if stats.CutBits != 14 { // 1->2 and 2->1
		t.Fatalf("CutBits = %d, want 14", stats.CutBits)
	}
}

func TestTopologyAccessors(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	g.AddEdge(2, 1)
	_, err := RunMachines(Config{Graph: g, Seed: 1}, each(func(ctx *Ctx, in StepIn) StepStatus {
		if ctx.N() != 4 {
			t.Errorf("N() = %d", ctx.N())
		}
		if ctx.ID() == 2 {
			if !reflect.DeepEqual(ctx.Neighbors(), []int{0, 1, 3}) {
				t.Errorf("Neighbors() = %v, want sorted {0,1,3}", ctx.Neighbors())
			}
			if ctx.Degree() != 3 {
				t.Errorf("Degree() = %d", ctx.Degree())
			}
		}
		return StepDone
	}))
	if err != nil {
		t.Fatal(err)
	}
}

// staggeredMachines: vertex 0 retires immediately; the other vertices
// broadcast for three rounds, each expecting exactly inboxes from the
// other survivors.
func staggeredMachines(t *testing.T) func(*Ctx) Machine {
	return func(*Ctx) Machine {
		r := 0
		return machineFunc(func(ctx *Ctx, in StepIn) StepStatus {
			if ctx.ID() == 0 {
				return StepDone // leaves immediately
			}
			if !in.Start {
				for _, m := range in.Recs {
					if m.From == 0 {
						t.Error("received a message the retired vertex never sent")
					}
				}
				if len(in.Recs) != 2 { // the other two survivors
					t.Errorf("vertex %d round %d: %d messages, want 2", ctx.ID(), r, len(in.Recs))
				}
				r++
			}
			if r == 3 {
				return StepDone
			}
			blob{size: 4}.broadcast(ctx)
			return StepYield
		})
	}
}

func TestVertexTerminationStaggered(t *testing.T) {
	// Messages sent to a vertex that already retired are metered but
	// dropped; the engine must not deadlock or misdeliver.
	stats, err := RunMachines(Config{Graph: clique(4), Seed: 1}, staggeredMachines(t))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 3 {
		t.Fatalf("Rounds = %d, want 3", stats.Rounds)
	}
	if stats.Messages != 27 { // 3 rounds x 3 senders x 3 neighbors
		t.Fatalf("Messages = %d, want 27", stats.Messages)
	}
}

func TestSendToNonNeighborFails(t *testing.T) {
	g := path(3) // 0-1-2: 0 and 2 are not adjacent
	_, err := RunMachines(Config{Graph: g, Seed: 1}, sendOnceThenDone(func(ctx *Ctx) {
		if ctx.ID() == 0 {
			blob{size: 1}.send(ctx, 2)
		}
	}))
	if err == nil || !strings.Contains(err.Error(), "not a neighbor") {
		t.Fatalf("send to non-neighbor: err = %v", err)
	}
}

func TestVertexPanicBecomesError(t *testing.T) {
	_, err := RunMachines(Config{Graph: clique(5), Seed: 1}, each(func(ctx *Ctx, in StepIn) StepStatus {
		if !in.Start && ctx.ID() == 3 {
			panic("protocol bug")
		}
		return busyBoxed(ctx, in)
	}))
	if err == nil || !strings.Contains(err.Error(), "protocol bug") {
		t.Fatalf("vertex panic: err = %v", err)
	}
}

func TestDegenerateGraphs(t *testing.T) {
	stats, err := RunMachines(Config{Graph: graph.New(0), Seed: 1}, func(*Ctx) Machine {
		t.Error("factory invoked on empty graph")
		return nil
	})
	if err != nil || *stats != (Stats{}) {
		t.Fatalf("empty graph: %+v, %v", stats, err)
	}
	// A single isolated vertex can run rounds against nobody.
	ran := false
	stats, err = RunMachines(Config{Graph: graph.New(1), Seed: 1}, each(func(ctx *Ctx, in StepIn) StepStatus {
		if in.Start {
			ran = true
			blob{size: 9}.broadcast(ctx) // no neighbors: a no-op
			return StepYield
		}
		if len(in.Recs) != 0 {
			t.Error("isolated vertex received messages")
		}
		return StepDone
	}))
	if err != nil || !ran {
		t.Fatalf("singleton run failed: %v", err)
	}
	if stats.Rounds != 1 || stats.Messages != 0 {
		t.Fatalf("singleton stats: %+v", stats)
	}
	// Disconnected components run independently.
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	out := make([]int64, 4)
	if _, err := RunMachines(Config{Graph: g, Seed: 5}, gossipMachines(4, out)); err != nil {
		t.Fatal(err)
	}
}

func TestIDBits(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 16: 4, 17: 5, 20: 5, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := IDBits(n); got != want {
			t.Errorf("IDBits(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	done := each(func(*Ctx, StepIn) StepStatus { return StepDone })
	if _, err := RunMachines(Config{}, done); err == nil {
		t.Fatal("nil graph must error")
	}
	if _, err := RunMachines(Config{Graph: path(3), CutSide: []bool{true}}, done); err == nil {
		t.Fatal("mis-sized CutSide must error")
	}
}
