package main

import (
	"fmt"

	"distspanner/internal/baseline"
	"distspanner/internal/core"
	"distspanner/internal/dist"
	"distspanner/internal/graph"
	"distspanner/internal/mds"
	"distspanner/internal/scenario"
	"distspanner/internal/span"
	"distspanner/internal/trace"
)

// fingerprint is the exact model outcome of one op: what the pins hold
// and what every run must reproduce.
type fingerprint struct {
	Size, Rounds, Messages, TotalBits int64
}

func fingerprintOf(m scenario.Metrics) fingerprint {
	return fingerprint{
		Size:      int64(m["size"]),
		Rounds:    int64(m["rounds"]),
		Messages:  int64(m["messages"]),
		TotalBits: int64(m["total_bits"]),
	}
}

// replayScenario runs one op of a registered scenario as that scenario's
// own steps, in order, each call inside a span: GraphSpec.Build, the
// engine (core.TwoSpanner or mds.Run, with a trace.TimingRecorder as its
// tracer for the step/route/sync split), span.IsKSpanner, span.Stretch
// and the reference solver. It mirrors the Run bodies of the twospanner,
// twospanner-weighted and mds scenarios and returns their fingerprint, so
// the caller can check that the breakdown measured the same program that
// sweep.Single runs. replay marks the spans as replays of their parent.
func replayScenario(l *spanLog, op, parent int, replay bool, name string, p scenario.Params, seed int64) (fingerprint, error) {
	var g *graph.Graph
	var err error
	l.call("gen", op, parent, replay, func(int) { g, err = scenario.GraphSpec{}.Build(p, seed) })
	if err != nil {
		return fingerprint{}, err
	}
	mode, err := dist.ParseMode(p.Str("engine", "auto"))
	if err != nil {
		return fingerprint{}, err
	}
	tim := &trace.TimingRecorder{}
	var stats dist.Stats
	var size int64
	switch name {
	case "twospanner", "twospanner-weighted":
		var res *core.Result
		engine(l, op, parent, replay, func() {
			res, err = core.TwoSpanner(g, core.Options{
				Seed: seed, ExecMode: mode, Tracer: tim,
				VoteDenominator: p.Int("votden", 0), FreshStars: p.Bool("fresh", false), NoRounding: p.Bool("noround", false),
			})
		})
		if err != nil {
			return fingerprint{}, err
		}
		stats, size = res.Stats, int64(res.Spanner.Len())
		if err := verify(l, op, parent, replay, g, res.Spanner); err != nil {
			return fingerprint{}, err
		}
		if res.Fallbacks != 0 {
			return fingerprint{}, fmt.Errorf("Claim 4.4 fallback taken %d times", res.Fallbacks)
		}
		def := map[string]string{"twospanner": "lb", "twospanner-weighted": "kp"}[name]
		l.call("ref", op, parent, replay, func(int) { err = spannerRef(g, p.Str("ref", def)) })
	case "mds":
		var res *mds.Result
		engine(l, op, parent, replay, func() {
			res, err = mds.Run(g, mds.Options{Seed: seed, Bandwidth: p.Int("bandwidth", 0), ExecMode: mode, Tracer: tim})
		})
		if err != nil {
			return fingerprint{}, err
		}
		stats, size = res.Stats, int64(len(res.DominatingSet))
		l.call("ref", op, parent, replay, func(int) {
			if r := p.Str("ref", "greedy"); r != "greedy" {
				err = fmt.Errorf("replay supports ref=greedy for mds, not %q", r)
				return
			}
			_ = baseline.GreedyMDS(g)
		})
	default:
		return fingerprint{}, fmt.Errorf("replay does not know scenario %q", name)
	}
	if err != nil {
		return fingerprint{}, err
	}
	l.sample("ref.calls", 1)
	s := trace.SummarizeTimings(tim.Timings())
	l.sample("engine.step_ms", ms(int64(s.StepShare*float64(s.TotalWallNs))))
	l.sample("engine.route_ms", ms(int64(s.RouteShare*float64(s.TotalWallNs))))
	l.sample("engine.sync_ms", ms(int64(s.SyncShare*float64(s.TotalWallNs))))
	if stats.Rounds > 0 {
		l.sample("engine.active_share", float64(stats.ActiveSteps)/(float64(stats.Rounds)*float64(g.N())))
	}
	l.sample("engine.peak_active", float64(stats.PeakActive))
	l.sample("engine.rounds", float64(stats.Rounds))
	l.sample("engine.messages", float64(stats.Messages))
	l.sample("engine.bits", float64(stats.TotalBits))
	return fingerprint{Size: size, Rounds: int64(stats.Rounds), Messages: stats.Messages, TotalBits: stats.TotalBits}, nil
}

// engine records the engine call's span and the heap bytes it allocated.
func engine(l *spanLog, op, parent int, replay bool, run func()) {
	before := allocated()
	l.call("engine", op, parent, replay, func(int) { run() })
	l.sample("engine.alloc_bytes", float64(allocated()-before))
}

// verify runs both verification passes the scenario runs, IsKSpanner and
// Stretch, with stretch bound 2.
func verify(l *spanLog, op, parent int, replay bool, g *graph.Graph, h *graph.EdgeSet) error {
	before := allocated()
	ok := false
	l.call("verify", op, parent, replay, func(int) { ok = span.IsKSpanner(g, h, 2) })
	if !ok {
		return fmt.Errorf("output is not a 2-spanner")
	}
	l.call("stretch", op, parent, replay, func(int) { _ = span.Stretch(g, h, 2) })
	l.sample("verify.alloc_bytes", float64(allocated()-before))
	// IsKSpanner searches from every edge outside H, Stretch from every edge.
	l.sample("verify.searches", float64(g.M()-h.Len()+g.M()))
	return nil
}

// spannerRef computes the scenario's reference cost the way the scenario
// layer does for the references the workloads use.
func spannerRef(g *graph.Graph, ref string) error {
	switch ref {
	case "lb":
		_ = span.SpannerOPTLowerBound(g)
	case "kp":
		_ = span.Cost(g, baseline.KortsarzPeleg(g))
	case "greedy":
		_ = span.Cost(g, baseline.GreedyKSpanner(g, 2))
	default:
		return fmt.Errorf("replay does not support ref %q", ref)
	}
	return nil
}
