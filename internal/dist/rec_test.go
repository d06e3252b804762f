package dist

import (
	"fmt"
	"reflect"
	"testing"
)

// Tests for the flat-buffer typed inbox path (rec.go): delivery order,
// metering, arena reuse, quiescence, mixed-family runs, and randomized
// equivalence across execution configurations over tail-heavy and fault
// (early-retirement) workloads. These all run under the CI -race job.

func TestRecDeliveryAndOrdering(t *testing.T) {
	// Each vertex broadcasts one record naming itself; everyone must
	// receive exactly its neighbors' records sorted by sender, with the
	// scalar and tail fields intact, and the next round must be empty.
	g := path(5)
	got := make([][]int, g.N())
	stats, err := RunMachines(Config{Graph: g, Seed: 1}, func(*Ctx) Machine {
		step := 0
		return machineFunc(func(ctx *Ctx, in StepIn) StepStatus {
			step++
			switch step {
			case 1:
				ctx.BroadcastRec(Rec{Tag: 3, Flag: 1, A: int64(ctx.ID()), F0: 0.5, Ints: []int{ctx.ID(), 99}}, 10)
				return StepYield
			case 2:
				var from []int
				for _, r := range in.Recs {
					if r.Tag != 3 || r.Flag != 1 || r.A != int64(r.From) || r.F0 != 0.5 {
						t.Errorf("scalar fields corrupted: %+v", r)
					}
					if len(r.Ints) != 2 || r.Ints[0] != r.From || r.Ints[1] != 99 {
						t.Errorf("tail corrupted: %+v", r)
					}
					from = append(from, r.From)
				}
				got[ctx.ID()] = from
				return StepYield
			}
			if len(in.Recs) != 0 {
				t.Errorf("vertex %d received %d stale records", ctx.ID(), len(in.Recs))
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
	if stats.Messages != 8 || stats.TotalBits != 80 || stats.MaxMessageBits != 10 {
		t.Fatalf("metering wrong: %+v", stats)
	}
}

// fourRounds runs send for rounds 0..3, yielding after each, then
// retires.
func fourRounds(send func(ctx *Ctx, r int)) func(*Ctx) Machine {
	return func(*Ctx) Machine {
		r := 0
		return machineFunc(func(ctx *Ctx, in StepIn) StepStatus {
			if !in.Start {
				r++
			}
			if r == 4 {
				return StepDone
			}
			send(ctx, r)
			return StepYield
		})
	}
}

func TestRecMeteringMatchesBoxed(t *testing.T) {
	// A record-path run and a boxed run of the same traffic shape must
	// meter identically: bits are sender-declared either way.
	g := clique(6)
	sb, err := RunMachines(Config{Graph: g, Seed: 1}, fourRounds(func(ctx *Ctx, r int) {
		ctx.Broadcast(blob{val: r, size: 17})
	}))
	if err != nil {
		t.Fatal(err)
	}
	sr, err := RunMachines(Config{Graph: g, Seed: 1}, fourRounds(func(ctx *Ctx, r int) {
		ctx.BroadcastRec(Rec{Tag: 1, A: int64(r)}, 17)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if *sb != *sr {
		t.Fatalf("record metering diverged from boxed:\nboxed: %+v\nrecs:  %+v", sb, sr)
	}
}

func TestRecBandwidthEnforced(t *testing.T) {
	// Record bits count against the per-edge budget exactly like payload
	// bits, including accumulation across records on one edge.
	_, err := RunMachines(Config{Graph: path(2), Seed: 1, Bandwidth: 64, Enforce: true}, sendOnceThenDone(func(ctx *Ctx) {
		if ctx.ID() == 0 {
			ctx.SendRec(1, Rec{Tag: 1}, 40)
			ctx.SendRec(1, Rec{Tag: 2}, 40)
		}
	}))
	if err == nil {
		t.Fatal("accumulated record traffic not enforced")
	}
}

func TestRecCutBits(t *testing.T) {
	cut := []bool{false, false, true, true}
	stats, err := RunMachines(Config{Graph: path(4), Seed: 1, CutSide: cut}, sendOnceThenDone(func(ctx *Ctx) {
		ctx.BroadcastRec(Rec{Tag: 1}, 7)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if stats.CutBits != 14 { // 1->2 and 2->1
		t.Fatalf("CutBits = %d, want 14", stats.CutBits)
	}
}

func TestRecArenaReusedAcrossRounds(t *testing.T) {
	// The whole point of the arena: after warm-up, steady-state rounds
	// append into retained buffers. Assert the delivered views stay
	// correct round over round while the backing arrays are reused
	// (record contents must never bleed between rounds).
	_, err := RunMachines(Config{Graph: clique(4), Seed: 1}, func(*Ctx) Machine {
		r := 0
		return machineFunc(func(ctx *Ctx, in StepIn) StepStatus {
			if !in.Start {
				for _, rec := range in.Recs {
					if rec.Tag != uint8(r+1) || rec.A != int64(r) {
						t.Errorf("round %d: stale header %+v", r, rec)
					}
					for _, x := range rec.Ints {
						if x != r {
							t.Errorf("round %d: stale tail %v", r, rec.Ints)
						}
					}
				}
				r++
			}
			if r == 8 {
				return StepDone
			}
			ctx.BroadcastRec(Rec{Tag: uint8(r + 1), A: int64(r), Ints: []int{r, r, r}}, 5)
			return StepYield
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecRecvParksAndQuiesces(t *testing.T) {
	// Vertex 0 drives three waves, then everyone quiesces: parked
	// vertices must be woken by each wave and then released by
	// quiescence everywhere.
	g := path(8)
	for i, cfg := range recConfigs(g, 1) {
		waves := make([]int, g.N())
		stats, err := RunMachines(cfg, func(*Ctx) Machine {
			r := 0
			return machineFunc(func(ctx *Ctx, in StepIn) StepStatus {
				if ctx.ID() == 0 {
					if r == 3 {
						return StepDone
					}
					ctx.SendRec(1, Rec{Tag: 1, A: int64(r)}, 8)
					r++
					return StepYield
				}
				if in.Quiesced {
					return StepDone
				}
				if in.Start {
					return StepPark
				}
				if len(in.Recs) == 0 {
					t.Errorf("vertex %d woken with an empty record inbox", ctx.ID())
					return StepPark
				}
				waves[ctx.ID()] += len(in.Recs)
				// Relay one hop down the path.
				if next := ctx.ID() + 1; next < ctx.N() {
					ctx.SendRec(next, Rec{Tag: 1, A: in.Recs[0].A}, 8)
				}
				return StepPark
			})
		})
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		for v := 1; v < g.N(); v++ {
			if waves[v] != 3 {
				t.Fatalf("config %d: vertex %d saw %d waves, want 3", i, v, waves[v])
			}
		}
		if stats.Messages != 3*7 {
			t.Fatalf("config %d: Messages = %d, want 21", i, stats.Messages)
		}
	}
}

func TestRecMixedFamiliesInOneRun(t *testing.T) {
	// The engine delivers both families in one round, either one waking
	// a parked receiver. Vertex 1 receives a boxed message and a record
	// in the same round and must see both, in StepIn.Msgs and
	// StepIn.Recs.
	_, err := RunMachines(Config{Graph: path(3), Seed: 1}, each(func(ctx *Ctx, in StepIn) StepStatus {
		switch ctx.ID() {
		case 0:
			if !in.Start {
				return StepDone
			}
			ctx.Send(1, blob{val: 5, size: 8})
			return StepYield
		case 2:
			if !in.Start {
				return StepDone
			}
			ctx.SendRec(1, Rec{Tag: 9, A: 6}, 8)
			return StepYield
		}
		if in.Start {
			return StepPark
		}
		if in.Quiesced {
			t.Error("vertex 1 quiesced before delivery")
			return StepDone
		}
		if len(in.Msgs) != 1 || in.Msgs[0].Payload.(blob).val != 5 {
			t.Errorf("boxed half wrong: %+v", in.Msgs)
		}
		if len(in.Recs) != 1 || in.Recs[0].Tag != 9 || in.Recs[0].A != 6 {
			t.Errorf("record half wrong: %+v", in.Recs)
		}
		return StepDone
	}))
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecCrossModeChaosEquivalence: outputs and the full Stats of the
// record chaos protocol must be bit-identical across step widths and
// against the 3-shard coordinator run, on topologies covering
// tail-heavy (sparse, mostly parked) and fault-prone (random early
// retirement) executions.
func TestRecCrossModeChaosEquivalence(t *testing.T) {
	for name, g := range chaosGraphs() {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				checkSameRuns(t, g, recConfigs(g, seed), func(out []int64) func(*Ctx) Machine {
					return func(*Ctx) Machine { return &chaosMachine{out: out, rounds: 12} }
				})
			})
		}
	}
}

// TestRecTailHeavyCrossMode drives a tail-heavy record workload — one
// active core, a long parked fringe woken in waves — and asserts Stats
// equality across execution configurations, the regime the spanner
// tails live in.
func TestRecTailHeavyCrossMode(t *testing.T) {
	g := benchGraph(96)
	factory := func(*Ctx) Machine {
		r := 0
		return machineFunc(func(ctx *Ctx, in StepIn) StepStatus {
			if ctx.ID() < 4 {
				if r == 24 {
					return StepDone
				}
				to := ctx.Neighbors()[r%ctx.Degree()]
				ctx.SendRec(to, Rec{Tag: 1, A: int64(r), Ints: []int{r}}, 12)
				r++
				return StepYield
			}
			if in.Quiesced {
				return StepDone
			}
			// Occasionally ripple one record outward.
			if !in.Start && in.Recs[0].A%5 == 0 {
				ctx.SendRec(ctx.Neighbors()[0], Rec{Tag: 1, A: in.Recs[0].A + 100}, 12)
			}
			return StepPark
		})
	}
	var ref Stats
	for i, cfg := range recConfigs(g, 9) {
		stats, err := RunMachines(cfg, factory)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = *stats
			if ref.ParkedSteps == 0 {
				t.Fatal("tail-heavy workload recorded no parked steps")
			}
			continue
		}
		if ref != *stats {
			t.Fatalf("config %d: tail-heavy stats diverged:\nref: %+v\ngot: %+v", i, ref, stats)
		}
	}
}
