package dist

import (
	"reflect"
	"testing"
)

// The activity-metering contract: Stats.ActiveSteps / ParkedSteps /
// PeakActive and the Config.OnRound per-round curve are exact,
// deterministic, and identical across execution configurations. These
// tests pin the semantics on hand-built protocols where the curve can be
// derived by hand.

// collectActivity runs the machines under cfg and returns the stats plus
// the OnRound curve.
func collectActivity(t *testing.T, cfg Config, factory func(*Ctx) Machine) (*Stats, []RoundActivity) {
	t.Helper()
	var curve []RoundActivity
	cfg.OnRound = func(a RoundActivity) { curve = append(curve, a) }
	stats, err := RunMachines(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	return stats, curve
}

func TestActivityAllBusy(t *testing.T) {
	// Every vertex broadcasts every round: Active is n in every round,
	// nobody ever parks.
	const rounds = 5
	g := clique(6)
	stats, curve := collectActivity(t, Config{Graph: g, Seed: 1}, func(*Ctx) Machine {
		r := 0
		return machineFunc(func(ctx *Ctx, in StepIn) StepStatus {
			if !in.Start {
				r++
			}
			if r == rounds {
				return StepDone
			}
			ctx.Broadcast(blob{val: r, size: 8})
			return StepYield
		})
	})
	if stats.ActiveSteps != int64(rounds*g.N()) || stats.ParkedSteps != 0 || stats.PeakActive != g.N() {
		t.Fatalf("busy protocol activity = %+v", stats)
	}
	if len(curve) != rounds {
		t.Fatalf("OnRound fired %d times, want %d", len(curve), rounds)
	}
	for i, a := range curve {
		// Every broadcast is delivered: n senders × (n-1) receivers of an
		// 8-bit payload per round.
		want := RoundActivity{
			Round: i + 1, Active: g.N(), Parked: 0, Senders: g.N(),
			Delivered: g.N() * (g.N() - 1), DeliveredBits: int64(8 * g.N() * (g.N() - 1)),
		}
		if a != want {
			t.Fatalf("round %d: activity = %+v, want %+v", i+1, a, want)
		}
	}
}

func TestActivityCurveWithParkedVertices(t *testing.T) {
	// Path 0-1-2. Vertex 0 idles for 3 rounds, then pings vertex 1 and
	// retires; vertices 1 and 2 park immediately. The hand-derived curve:
	// round 1 is the initial step of all three vertices (two of them
	// park); rounds 2-3 only the driver runs; round 4 carries the ping,
	// whose delivery unparks vertex 1. The finalization steps after the
	// last completed round (retirements, quiescence release of vertex 2)
	// belong to no round and are not counted.
	want := []RoundActivity{
		{Round: 1, Active: 3, Parked: 2, Senders: 0},
		{Round: 2, Active: 1, Parked: 2, Senders: 0},
		{Round: 3, Active: 1, Parked: 2, Senders: 0},
		{Round: 4, Active: 1, Parked: 1, Senders: 1, Delivered: 1, DeliveredBits: 8},
	}
	g := path(3)
	stats, curve := collectActivity(t, Config{Graph: g, Seed: 1}, func(*Ctx) Machine {
		step := 0
		return machineFunc(func(ctx *Ctx, in StepIn) StepStatus {
			step++
			if ctx.ID() != 0 {
				if in.Quiesced {
					return StepDone
				}
				return StepPark
			}
			switch step {
			case 4:
				ctx.Send(1, blob{val: 9, size: 8})
			case 5:
				return StepDone
			}
			return StepYield
		})
	})
	if !reflect.DeepEqual(curve, want) {
		t.Fatalf("curve = %+v, want %+v", curve, want)
	}
	if stats.ActiveSteps != 6 || stats.ParkedSteps != 7 || stats.PeakActive != 3 {
		t.Fatalf("aggregates = %+v", stats)
	}
}

func TestActivityIdenticalAcrossModes(t *testing.T) {
	// The boxed chaos protocol mixes yields, parks, sends, and
	// retirement; the activity curve must be bit-identical across step
	// widths, like every other statistic.
	g := benchGraph(96)
	var ref []RoundActivity
	var refStats Stats
	for i, cfg := range widthConfigs(g, 7) {
		out := make([]int64, g.N())
		stats, curve := collectActivity(t, cfg, func(*Ctx) Machine {
			return &boxedChaosMachine{out: out, steps: 12}
		})
		if i == 0 {
			ref, refStats = curve, *stats
			continue
		}
		if !reflect.DeepEqual(ref, curve) {
			t.Fatalf("config %d: activity curve diverged", i)
		}
		if refStats != *stats {
			t.Fatalf("config %d: stats diverged:\nref: %+v\ngot: %+v", i, refStats, *stats)
		}
	}
	// Sanity: the aggregates are the curve's sums.
	var active, parked int64
	peak := 0
	for _, a := range ref {
		active += int64(a.Active)
		parked += int64(a.Parked)
		if a.Active > peak {
			peak = a.Active
		}
	}
	if refStats.ActiveSteps != active || refStats.ParkedSteps != parked || refStats.PeakActive != peak {
		t.Fatalf("aggregates %+v do not match curve sums (active=%d parked=%d peak=%d)",
			refStats, active, parked, peak)
	}
}
