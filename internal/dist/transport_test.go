package dist

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"distspanner/internal/graph"
)

// Tests for the sharded runner (transport.go, shard.go, coord.go) at the
// engine level: Config.Shards over the in-process channel transport must
// be indistinguishable from the in-process engine — outputs, Stats,
// activity curves, trace transcripts, and error strings. The
// algorithm-level matrix (families × graphs × seeds, both transports)
// lives in the conformance suite (transportconf).

// evRecorder is a minimal Tracer capturing the logical transcript
// (internal/trace is not importable from this package's tests).
type evRecorder struct {
	events [][]TraceEvent
	phases []RoundActivity
}

func newEvRecorder(n int) *evRecorder { return &evRecorder{events: make([][]TraceEvent, n)} }

func (r *evRecorder) Event(ev TraceEvent)   { r.events[ev.V] = append(r.events[ev.V], ev) }
func (r *evRecorder) Phase(a RoundActivity) { r.phases = append(r.phases, a) }
func (r *evRecorder) RoundTime(RoundTiming) {}

func shardCounts(n int) []int { return []int{1, 2, 3, 5, n + 2} }

func TestShardedChaosEquivalence(t *testing.T) {
	// The chaos machine (sends, broadcasts with shared tails, parks,
	// early retirements, quiescence finalizers) across shard counts —
	// including more shards than vertices — must reproduce the in-process
	// run exactly: outputs, Stats, activity curve, per-vertex trace
	// events, and phase snapshots.
	graphs := map[string]*graph.Graph{
		"clique16":   clique(16),
		"path33":     path(33),
		"ring64":     benchGraph(64),
		"sparse2x40": func() *graph.Graph { g := graph.New(80); g.AddEdge(0, 79); return g }(),
	}
	for name, g := range graphs {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				run := func(shards int) ([]int64, Stats, []RoundActivity, *evRecorder) {
					out := make([]int64, g.N())
					var curve []RoundActivity
					rec := newEvRecorder(g.N())
					stats, err := RunMachines(Config{
						Graph: g, Seed: seed, Shards: shards,
						OnRound: func(a RoundActivity) { curve = append(curve, a) },
						Tracer:  rec,
					}, func(c *Ctx) Machine {
						return &chaosMachine{out: out, rounds: 12}
					})
					if err != nil {
						t.Fatalf("shards=%d: %v", shards, err)
					}
					return out, *stats, curve, rec
				}
				refOut, refStats, refCurve, refRec := run(0)
				for _, shards := range shardCounts(g.N()) {
					out, stats, curve, rec := run(shards)
					if !reflect.DeepEqual(refOut, out) {
						t.Fatalf("shards=%d outputs diverged", shards)
					}
					if refStats != stats {
						t.Fatalf("shards=%d stats diverged:\nref: %+v\ngot: %+v", shards, refStats, stats)
					}
					if !reflect.DeepEqual(refCurve, curve) {
						t.Fatalf("shards=%d activity curve diverged:\nref: %+v\ngot: %+v", shards, refCurve, curve)
					}
					if !reflect.DeepEqual(refRec.phases, rec.phases) {
						t.Fatalf("shards=%d phase snapshots diverged", shards)
					}
					for v := range refRec.events {
						if !reflect.DeepEqual(refRec.events[v], rec.events[v]) {
							t.Fatalf("shards=%d vertex %d transcript diverged:\nref: %+v\ngot: %+v",
								shards, v, refRec.events[v], rec.events[v])
						}
					}
				}
			})
		}
	}
}

func TestShardedRetireFlushAndSilentDrop(t *testing.T) {
	// Last words cross a shard boundary: vertex 0 retires with a send to
	// vertex 1 queued; on a 2-shard path(3) partition they live on
	// different... the same shard — use 3 shards so every vertex is its
	// own shard. The delivery and the round accounting must match the
	// in-process run (Rounds=1, Messages=1).
	for _, shards := range []int{2, 3} {
		var m1 lastWordsMachine
		stats, err := RunMachines(Config{Graph: path(3), Seed: 1, Shards: shards}, func(c *Ctx) Machine {
			if c.ID() == 1 {
				return &m1
			}
			return &lastWordsMachine{}
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(m1.got, []int64{9}) {
			t.Fatalf("shards=%d: receiver saw %v, want [9]", shards, m1.got)
		}
		if stats.Rounds != 1 || stats.Messages != 1 {
			t.Fatalf("shards=%d: stats = %+v, want Rounds=1 Messages=1", shards, stats)
		}
	}
	// Silent drop: last words addressed to a retired vertex are metered
	// but no round is charged, across a shard boundary.
	for _, shards := range []int{2} {
		stats, err := RunMachines(Config{Graph: path(2), Seed: 1, Shards: shards}, func(c *Ctx) Machine {
			return machineFunc(func(ctx *Ctx, in StepIn) StepStatus {
				if ctx.ID() == 1 {
					return StepDone
				}
				if in.Start {
					return StepYield
				}
				ctx.SendRec(1, Rec{Tag: 1}, 8)
				return StepDone
			})
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if stats.Rounds != 1 || stats.Messages != 1 || stats.TotalBits != 8 {
			t.Fatalf("shards=%d: stats = %+v, want Rounds=1 Messages=1 TotalBits=8", shards, stats)
		}
	}
}

func TestShardedErrorEquality(t *testing.T) {
	// Abort paths must produce the exact in-process error strings: the
	// coordinator formats them from the same data in the same order.
	busy := func(c *Ctx) Machine {
		return machineFunc(func(ctx *Ctx, in StepIn) StepStatus {
			ctx.BroadcastRec(Rec{Tag: 1}, 64)
			return StepYield
		})
	}
	g := clique(6)

	// Round limit.
	_, refErr := RunMachines(Config{Graph: g, Seed: 1, MaxRounds: 4}, busy)
	_, shErr := RunMachines(Config{Graph: g, Seed: 1, MaxRounds: 4, Shards: 2}, busy)
	if refErr == nil || shErr == nil || refErr.Error() != shErr.Error() {
		t.Fatalf("round-limit errors differ:\nref: %v\ngot: %v", refErr, shErr)
	}
	if !errors.Is(shErr, ErrRoundLimit) {
		t.Fatalf("sharded round-limit error lost its type: %v", shErr)
	}

	// Bandwidth violation: same first violator, same round.
	_, refErr = RunMachines(Config{Graph: g, Seed: 1, Bandwidth: 32}, busy)
	_, shErr = RunMachines(Config{Graph: g, Seed: 1, Bandwidth: 32, Shards: 3}, busy)
	if refErr == nil || shErr == nil || refErr.Error() != shErr.Error() {
		t.Fatalf("bandwidth errors differ:\nref: %v\ngot: %v", refErr, shErr)
	}
	if !errors.Is(shErr, ErrBandwidth) {
		t.Fatalf("sharded bandwidth error lost its type: %v", shErr)
	}

	// Cancellation: pre-closed cancel aborts before round 1.
	pre := make(chan struct{})
	close(pre)
	_, refErr = RunMachines(Config{Graph: g, Seed: 1, Cancel: pre}, busy)
	_, shErr = RunMachines(Config{Graph: g, Seed: 1, Cancel: pre, Shards: 2}, busy)
	if refErr == nil || shErr == nil || refErr.Error() != shErr.Error() {
		t.Fatalf("cancel errors differ:\nref: %v\ngot: %v", refErr, shErr)
	}
	if !errors.Is(shErr, ErrCanceled) {
		t.Fatalf("sharded cancel error lost its type: %v", shErr)
	}

	// Mid-run cancellation from the OnRound hook.
	cancel := make(chan struct{})
	_, shErr = RunMachines(Config{Graph: g, Seed: 1, Shards: 2, Cancel: cancel,
		OnRound: func(a RoundActivity) {
			if a.Round == 5 {
				close(cancel)
			}
		}}, busy)
	if !errors.Is(shErr, ErrCanceled) {
		t.Fatalf("mid-run cancel: err = %v, want ErrCanceled", shErr)
	}
}

func TestShardedWorkerFailures(t *testing.T) {
	// A machine panic on one shard aborts the whole run and surfaces as a
	// ShardError carrying the in-process panic text, without its stack.
	g := path(8)
	_, err := RunMachines(Config{Graph: g, Seed: 1, Shards: 2}, func(c *Ctx) Machine {
		return machineFunc(func(ctx *Ctx, in StepIn) StepStatus {
			if ctx.ID() == 6 && !in.Start {
				panic("shard boom")
			}
			return StepYield
		})
	})
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("panic did not surface as ShardError: %v", err)
	}
	if se.Shard != 1 || !strings.Contains(se.Msg, "vertex 6 panicked") || !strings.Contains(se.Msg, "shard boom") ||
		strings.Contains(se.Msg, "goroutine ") {
		t.Fatalf("ShardError = %+v", se)
	}
}

// TestShardSetupChecksRebuiltGraph runs a coordinator whose program has
// one graph and two workers whose resolver rebuilds another. A graph with
// one edge moved keeps both counts, and one with a weight one ulp off
// differs in one bit; every mismatch must refuse the setup on both
// workers and fail the run with a ShardError naming both fingerprints. A
// program without a graph or with another budget must fail it too, and
// an identical rebuild must run.
func TestShardSetupChecksRebuiltGraph(t *testing.T) {
	weigh := func(g *graph.Graph) *graph.Graph {
		for i := 0; i < g.M(); i++ {
			g.SetWeight(i, 1+float64(i)/4)
		}
		return g
	}
	sent := weigh(path(6))
	moved := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 4}, {3, 4}, {4, 5}} {
		moved.AddEdge(e[0], e[1])
	}
	reweighed := sent.Clone()
	reweighed.SetWeight(3, math.Nextafter(sent.Weight(3), 2))
	cases := []struct {
		name   string
		built  *graph.Graph
		budget int
		accept bool
	}{
		{"identical", sent.Clone(), 0, true},
		{"edge moved", weigh(moved), 0, false},
		{"fewer vertices", weigh(path(5)), 0, false},
		{"edge added", weigh(func() *graph.Graph { g := path(6); g.AddEdge(0, 5); return g }()), 0, false},
		{"weight bits", reweighed, 0, false},
		{"unweighted", path(6), 0, false},
		{"no graph", nil, 0, false},
		{"budget", sent.Clone(), 64, false},
	}
	done := func(*Ctx) Machine {
		return machineFunc(func(*Ctx, StepIn) StepStatus { return StepDone })
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want []string
			switch {
			case tc.built == nil:
				want = []string{"resolved without a graph"}
			case tc.budget != 0:
				want = []string{"program budget 64 bits, setup's 0"}
			case !tc.accept:
				want = []string{fmt.Sprintf("%016x", tc.built.Fingerprint()), fmt.Sprintf("%016x", sent.Fingerprint())}
			}
			names := func(err error) bool {
				for _, w := range want {
					if err == nil || !strings.Contains(err.Error(), w) {
						return false
					}
				}
				return true
			}
			resolve := func(string, int64) (ShardProgram, error) {
				return ShardProgram{Graph: tc.built, Bandwidth: tc.budget, Factory: done}, nil
			}
			ct, wts := NewChanCluster(2)
			werrs := make(chan error, len(wts))
			for _, wt := range wts {
				go func(wt WorkerTransport) { werrs <- ServeShard(wt, resolve) }(wt)
			}
			_, err := Coordinate(ct, ShardProgram{Graph: sent}, CoordConfig{Seed: 1})
			ct.Close()
			for range wts {
				if werr := <-werrs; (werr == nil) != tc.accept || !names(werr) {
					t.Errorf("worker: err = %v, want one naming %q", werr, want)
				}
			}
			var se *ShardError
			switch {
			case tc.accept && err != nil:
				t.Fatalf("identical rebuild: %v", err)
			case !tc.accept && (!errors.As(err, &se) || !names(se)):
				t.Fatalf("coordinator: err = %v, want a ShardError naming %q", err, want)
			}
		})
	}
}

func TestShardedValidation(t *testing.T) {
	_, err := RunMachines(Config{Graph: path(2), Mode: Mode(99), Shards: 2}, func(c *Ctx) Machine {
		return machineFunc(func(*Ctx, StepIn) StepStatus { return StepDone })
	})
	if err == nil || !strings.Contains(err.Error(), "invalid Config.Mode") {
		t.Fatalf("Shards under an invalid mode: err = %v", err)
	}
	if _, err := RunMachines(Config{Shards: 2}, func(c *Ctx) Machine { return nil }); err == nil {
		t.Fatal("nil graph must error")
	}
	// Empty graph: zero rounds, no error — the protocol finishes on its
	// first decision.
	stats, err := RunMachines(Config{Graph: graph.New(0), Shards: 2}, func(c *Ctx) Machine { return nil })
	if err != nil || *stats != (Stats{}) {
		t.Fatalf("empty sharded graph: %+v, %v", stats, err)
	}
}

func TestPartitionEven(t *testing.T) {
	for _, tc := range []struct{ n, w int }{{10, 3}, {36, 7}, {5, 5}, {3, 7}, {0, 2}, {1, 1}} {
		cuts := PartitionEven(tc.n, tc.w)
		if len(cuts) != tc.w+1 || cuts[0] != 0 || cuts[tc.w] != tc.n {
			t.Fatalf("PartitionEven(%d,%d) = %v", tc.n, tc.w, cuts)
		}
		for i := 0; i < tc.w; i++ {
			if cuts[i] > cuts[i+1] {
				t.Fatalf("PartitionEven(%d,%d) not ascending: %v", tc.n, tc.w, cuts)
			}
			if cuts[i+1]-cuts[i] > (tc.n+tc.w-1)/tc.w {
				t.Fatalf("PartitionEven(%d,%d) uneven: %v", tc.n, tc.w, cuts)
			}
		}
		for v := 0; v < tc.n; v++ {
			s := shardOf(cuts, v)
			if v < cuts[s] || v >= cuts[s+1] {
				t.Fatalf("shardOf(%v, %d) = %d", cuts, v, s)
			}
		}
	}
}

func TestShardedCutMetering(t *testing.T) {
	// CutSide metering crosses the transport unchanged.
	g := path(8)
	cut := make([]bool, 8)
	for v := 4; v < 8; v++ {
		cut[v] = true
	}
	run := func(shards int) Stats {
		stats, err := RunMachines(Config{Graph: g, Seed: 1, Shards: shards, CutSide: cut},
			func(c *Ctx) Machine {
				return machineFunc(func(ctx *Ctx, in StepIn) StepStatus {
					if in.Start {
						ctx.BroadcastRec(Rec{Tag: 1}, 8)
						return StepYield
					}
					return StepDone
				})
			})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return *stats
	}
	ref := run(0)
	if ref.CutBits == 0 {
		t.Fatal("reference run metered no cut bits")
	}
	for _, shards := range []int{1, 2, 3} {
		if got := run(shards); got != ref {
			t.Fatalf("shards=%d stats = %+v, want %+v", shards, got, ref)
		}
	}
}
