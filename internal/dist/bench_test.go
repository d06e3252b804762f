package dist

import (
	"fmt"
	"testing"

	"distspanner/internal/graph"
)

// The engine yardsticks for perf work:
//
//   - BenchmarkMachineBusy: fully-busy record gossip (every vertex
//     broadcasts every round) across network sizes.
//   - BenchmarkTraceOverheadBusy / BenchmarkTraceOverheadQuiet: the same
//     busy gossip, and a quiet run (one driver, everyone else parked),
//     each with no tracer and with a tracer that drops every call — the
//     pair that keeps the nil-tracer path free.
//
// All variants assert the protocol ran the expected number of rounds, so
// a scheduling bug cannot masquerade as a speedup.

const benchRounds = 16

// quietBenchRounds is deliberately larger: the quiet benchmark measures
// the steady-state cost of a round, so the per-run fixed cost of
// building n machines has to be amortized away.
const quietBenchRounds = 256

// benchGraph is a ring with chords: degree 4, deterministic, cheap to
// build at any size.
func benchGraph(n int) *graph.Graph {
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.AddEdge(v, (v+1)%n)
		if n > 4 {
			g.AddEdge(v, (v+2)%n)
		}
	}
	return g
}

// benchMachine is the fully-busy record gossip: every vertex broadcasts
// one record per round for benchRounds rounds.
type benchMachine struct{ round int }

func (m *benchMachine) Step(ctx *Ctx, in StepIn) StepStatus {
	if !in.Start {
		for i := range in.Recs {
			_ = i
		}
	}
	if m.round == benchRounds {
		return StepDone
	}
	ctx.BroadcastRec(Rec{Tag: 1, A: int64(m.round)}, 32)
	m.round++
	return StepYield
}

// quietMachine is the sparse-activity extreme: vertex 0 drives the run,
// pinging one neighbor every round; every other vertex parks and is
// released by quiescence. A quiet round steps two vertices instead of n.
type quietMachine struct{ round int }

func (m *quietMachine) Step(ctx *Ctx, in StepIn) StepStatus {
	if ctx.ID() != 0 {
		if in.Quiesced {
			return StepDone
		}
		for i := range in.Recs {
			_ = in.Recs[i].A
		}
		return StepPark
	}
	if m.round == quietBenchRounds {
		return StepDone
	}
	ctx.SendRec(ctx.Neighbors()[0], Rec{Tag: 1, A: int64(m.round)}, 32)
	m.round++
	return StepYield
}

// runMachineBenchmark runs the machines on benchGraph(n) b.N times,
// checks the round count, and reports rounds/sec.
func runMachineBenchmark(b *testing.B, n, rounds int, tr Tracer, factory func(*Ctx) Machine) {
	g := benchGraph(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := RunMachines(Config{Graph: g, Seed: 1, Tracer: tr}, factory)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Rounds != rounds {
			b.Fatalf("rounds = %d", stats.Rounds)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(rounds)*float64(b.N)/b.Elapsed().Seconds(), "rounds/sec")
}

func newBenchMachine(*Ctx) Machine { return &benchMachine{} }
func newQuietMachine(*Ctx) Machine { return &quietMachine{} }

func BenchmarkMachineBusy(b *testing.B) {
	for _, n := range []int{256, 2048, 16384} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			runMachineBenchmark(b, n, benchRounds, nil, newBenchMachine)
		})
	}
}

// nullTracer drops every hook call: the traced benchmark variants
// measure the engine-side cost of tracing itself (timestamps, event
// construction, delivery metering), not the cost of any recorder.
type nullTracer struct{}

func (nullTracer) Event(TraceEvent)      {}
func (nullTracer) Phase(RoundActivity)   {}
func (nullTracer) RoundTime(RoundTiming) {}

// tracerVariants are the two sides of a trace-overhead pair: tracer=off
// is the nil-Tracer disabled path the benchgate guards against
// regressing; tracer=null isolates what enabling the hooks costs on top.
var tracerVariants = []struct {
	name string
	tr   Tracer
}{{"off", nil}, {"null", nullTracer{}}}

// BenchmarkTraceOverheadBusy pairs untraced and traced runs of the
// fully-busy record gossip — the most events per round, hence the
// tracing worst case.
func BenchmarkTraceOverheadBusy(b *testing.B) {
	for _, n := range []int{256, 2048} {
		for _, v := range tracerVariants {
			b.Run(fmt.Sprintf("n=%d/tracer=%s", n, v.name), func(b *testing.B) {
				runMachineBenchmark(b, n, benchRounds, v.tr, newBenchMachine)
			})
		}
	}
}

// BenchmarkTraceOverheadQuiet is the same pair in the quiet regime —
// one driver, everyone parked — where per-round fixed costs (the
// timestamp reads and Phase emission) dominate over per-event costs.
func BenchmarkTraceOverheadQuiet(b *testing.B) {
	for _, v := range tracerVariants {
		b.Run(fmt.Sprintf("n=2048/tracer=%s", v.name), func(b *testing.B) {
			runMachineBenchmark(b, 2048, quietBenchRounds, v.tr, newQuietMachine)
		})
	}
}
