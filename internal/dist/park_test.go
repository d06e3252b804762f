package dist

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// Tests for parking and quiescence (StepPark, StepIn.Quiesced), the
// abort paths with parked vertices waiting, and the boxed-payload chaos
// matrix.

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
	}{{"", ModeAuto}, {"auto", ModeAuto}, {"step", ModeStep}} {
		got, err := ParseMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseMode(%q) = %v, %v", tc.in, got, err)
		}
		if tc.in != "" && got.String() != tc.in {
			t.Errorf("Mode.String() = %q, want %q", got.String(), tc.in)
		}
	}
	for _, bad := range []string{"bogus", "barrier", "event"} {
		if _, err := ParseMode(bad); err == nil {
			t.Errorf("ParseMode accepted %q", bad)
		}
	}
}

func TestRecvParksUntilDelivery(t *testing.T) {
	// Vertex 0 stays silent for 5 rounds, then pings vertex 1, which is
	// parked the whole time. The receiver must see exactly the round-6
	// delivery; the skipped rounds still count globally.
	for i, cfg := range widthConfigs(path(3), 1) {
		var got []int
		stats, err := RunMachines(cfg, func(*Ctx) Machine {
			step := 0
			return machineFunc(func(ctx *Ctx, in StepIn) StepStatus {
				step++
				switch ctx.ID() {
				case 0:
					if step == 6 {
						ctx.Send(1, blob{val: 77, size: 8})
					}
					if step == 7 {
						return StepDone
					}
					return StepYield
				case 1:
					if in.Start {
						return StepPark
					}
					if in.Quiesced || len(in.Msgs) != 1 {
						t.Errorf("config %d: vertex 1 stepped with %+v", i, in)
						return StepDone
					}
					got = append(got, in.Msgs[0].Payload.(blob).val)
					return StepDone
				}
				// Vertex 2 parks for good: released only by quiescence.
				if !in.Start && !in.Quiesced {
					t.Errorf("config %d: vertex 2 woke without a delivery", i)
				}
				if in.Quiesced {
					return StepDone
				}
				return StepPark
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, []int{77}) {
			t.Fatalf("config %d: received %v", i, got)
		}
		if stats.Rounds != 6 {
			t.Fatalf("config %d: Rounds = %d, want 6", i, stats.Rounds)
		}
	}
}

func TestQuiesceImmediate(t *testing.T) {
	// Every vertex parks with nothing in flight: the run quiesces without
	// completing a single round.
	released := make([]bool, 4)
	stats, err := RunMachines(Config{Graph: clique(4), Seed: 1}, each(func(ctx *Ctx, in StepIn) StepStatus {
		if in.Start {
			return StepPark
		}
		if !in.Quiesced || in.Msgs != nil || in.Recs != nil {
			t.Errorf("parked vertex on a silent network stepped with %+v", in)
		}
		released[ctx.ID()] = true
		return StepDone
	}))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 0 {
		t.Fatalf("Rounds = %d, want 0", stats.Rounds)
	}
	for v, ok := range released {
		if !ok {
			t.Fatalf("vertex %d never released by quiescence", v)
		}
	}
}

func TestQuiesceAfterTraffic(t *testing.T) {
	// Each vertex forwards a token a fixed number of hops, then parks; the
	// run must flush all traffic, then quiesce deterministically.
	g := benchGraph(8)
	for i, cfg := range widthConfigs(g, 1) {
		stats, err := RunMachines(cfg, each(func(ctx *Ctx, in StepIn) StepStatus {
			if in.Quiesced {
				return StepDone
			}
			if in.Start && ctx.ID() == 0 {
				ctx.Send(ctx.Neighbors()[0], blob{val: 3, size: 8})
			}
			for _, m := range in.Msgs {
				if hops := m.Payload.(blob).val; hops > 0 {
					ctx.Send(ctx.Neighbors()[0], blob{val: hops - 1, size: 8})
				}
			}
			return StepPark
		}))
		if err != nil {
			t.Fatal(err)
		}
		// Token travels 4 hops (rounds 1-4); the last forward commits in
		// round 4 and quiescence follows.
		if stats.Rounds != 4 || stats.Messages != 4 {
			t.Fatalf("config %d: stats = %+v", i, stats)
		}
	}
}

func TestQuiesceEpilogueIsInert(t *testing.T) {
	// After quiescence, a yielding machine is stepped again at once with
	// an empty inbox, a parking one is told Quiesced again, and its sends
	// are discarded.
	stats, err := RunMachines(Config{Graph: path(2), Seed: 1}, func(*Ctx) Machine {
		step := 0
		return machineFunc(func(ctx *Ctx, in StepIn) StepStatus {
			step++
			switch step {
			case 1:
				return StepPark
			case 2:
				if !in.Quiesced {
					t.Errorf("expected quiescence, got %+v", in)
				}
				ctx.Broadcast(blob{val: 1, size: 8})
				return StepYield
			case 3:
				if in.Quiesced || in.Start || in.Msgs != nil || in.Recs != nil {
					t.Errorf("post-quiescence yield stepped with %+v", in)
				}
				ctx.Broadcast(blob{val: 1, size: 8})
				return StepPark
			}
			if !in.Quiesced {
				t.Errorf("post-quiescence park stepped with %+v", in)
			}
			return StepDone
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 0 || stats.Messages != 0 {
		t.Fatalf("post-quiescence traffic metered: %+v", stats)
	}
}

func TestEventModeErrors(t *testing.T) {
	// The failure paths with parked vertices waiting: a machine panic
	// becomes the run error, round limits abort, enforced bandwidth
	// aborts.
	g := clique(5)
	_, err := RunMachines(Config{Graph: g, Seed: 1}, each(func(ctx *Ctx, in StepIn) StepStatus {
		if ctx.ID() == 3 {
			panic("protocol bug")
		}
		if !in.Start && !in.Quiesced {
			t.Error("parked vertex woke without delivery")
		}
		return StepPark
	}))
	if err == nil || !strings.Contains(err.Error(), "protocol bug") {
		t.Fatalf("vertex panic: err = %v", err)
	}

	_, err = RunMachines(Config{Graph: g, Seed: 1, MaxRounds: 10}, each(busyBoxed))
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("round limit: err = %v", err)
	}

	_, err = RunMachines(Config{Graph: path(3), Seed: 1, Bandwidth: 8, Enforce: true}, each(func(ctx *Ctx, in StepIn) StepStatus {
		if ctx.ID() == 0 {
			if !in.Start {
				return StepDone
			}
			ctx.Send(1, blob{size: 100})
			return StepYield
		}
		if in.Quiesced {
			return StepDone
		}
		return StepPark
	}))
	if !errors.Is(err, ErrBandwidth) {
		t.Fatalf("enforced bandwidth: err = %v", err)
	}
}

func TestEventModeStaggeredTermination(t *testing.T) {
	// The staggered-termination scenario on the record path, which may
	// also run sharded: records to retired vertices are metered but
	// dropped, in every execution configuration.
	g := clique(4)
	for i, cfg := range recConfigs(g, 1) {
		stats, err := RunMachines(cfg, func(*Ctx) Machine {
			r := 0
			return machineFunc(func(ctx *Ctx, in StepIn) StepStatus {
				if ctx.ID() == 0 {
					return StepDone
				}
				if !in.Start {
					if len(in.Recs) != 2 {
						t.Errorf("config %d: vertex %d round %d: %d records, want 2", i, ctx.ID(), r, len(in.Recs))
					}
					r++
				}
				if r == 3 {
					return StepDone
				}
				ctx.BroadcastRec(Rec{Tag: 1, A: int64(r)}, 4)
				return StepYield
			})
		})
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if stats.Rounds != 3 || stats.Messages != 27 {
			t.Fatalf("config %d: stats = %+v", i, stats)
		}
	}
}

// boxedChaosMachine is a randomized boxed-payload protocol mixing every
// engine primitive: each step the vertex flips its private coin to
// decide between sending to random neighbors, yielding, and parking,
// folding everything it hears into a per-vertex hash. Because each
// vertex's RNG is a pure function of (seed, id), the whole transcript
// must be a pure function of (graph, seed).
type boxedChaosMachine struct {
	out      []int64
	h        int64
	s, steps int
}

func (m *boxedChaosMachine) Step(ctx *Ctx, in StepIn) StepStatus {
	if in.Quiesced {
		m.h = m.h*31 + 7
		m.out[ctx.ID()] = m.h
		return StepDone
	}
	if in.Start {
		m.h = int64(ctx.ID()) + 1
	} else {
		for _, msg := range in.Msgs {
			m.h = m.h*31 + int64(msg.From) + int64(msg.Payload.(blob).val)<<1
		}
		m.s++
	}
	if m.s == m.steps {
		m.out[ctx.ID()] = m.h
		return StepDone
	}
	if deg := ctx.Degree(); deg > 0 && ctx.Rand().Intn(3) > 0 {
		for k := ctx.Rand().Intn(3); k > 0; k-- {
			to := ctx.Neighbors()[ctx.Rand().Intn(deg)]
			v := ctx.Rand().Intn(1 << 16)
			ctx.Send(to, blob{val: v, size: 8 + v%9})
			m.h = m.h*31 + int64(v)
		}
	}
	if ctx.Rand().Intn(4) == 0 {
		return StepPark
	}
	return StepYield
}

func TestCrossModeChaosEquivalence(t *testing.T) {
	for name, g := range chaosGraphs() {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				checkSameRuns(t, g, widthConfigs(g, seed), func(out []int64) func(*Ctx) Machine {
					return func(*Ctx) Machine { return &boxedChaosMachine{out: out, steps: 10} }
				})
			})
		}
	}
}
