package dist

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"distspanner/internal/graph"
)

// Tests for the record path (rec.go): delivery order, metering, arena
// reuse, quiescence, and randomized equivalence across execution
// configurations over tail-heavy and fault (early-retirement) workloads.
// These all run under the CI -race job.

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

func TestRecBandwidthEnforced(t *testing.T) {
	// Record bits count against the per-edge budget exactly like payload
	// bits, including accumulation across records on one edge.
	_, err := RunMachines(Config{Graph: path(2), Seed: 1, Bandwidth: 64}, sendOnceThenDone(func(ctx *Ctx) {
		if ctx.ID() == 0 {
			ctx.SendRec(1, Rec{Tag: 1}, 40)
			ctx.SendRec(1, Rec{Tag: 2}, 40)
		}
	}))
	if err == nil {
		t.Fatal("accumulated record traffic not enforced")
	}
}

// TestRecMeterScratchAcrossSenders meters, in one metering part (fewer
// senders than parallelThreshold), senders of very different degrees,
// the largest last, each sending several records to one neighbor and one
// to another. The part's scratch must fit every sender and be clean for
// each: MaxEdgeRoundBits and the first violation must equal a per-sender
// recount.
func TestRecMeterScratchAcrossSenders(t *testing.T) {
	const n, rounds = 24, 4
	hub := n - 1
	g := graph.New(n)
	for v := 0; v < hub; v++ {
		g.AddEdge(v, hub)
		if v+1 < hub {
			g.AddEdge(v, v+1)
		}
	}
	for v := 8; v < 16; v++ {
		g.AddEdge(3, v)
	}
	// plan is what vertex v sends in step r: 1+(v+r)%3 records to the
	// neighbor at position (5v+r) mod degree, then a 3-bit record to the
	// first neighbor, as (to, bits) pairs.
	plan := func(v, r int, nbrs []int) [][2]int {
		var sends [][2]int
		to := nbrs[(5*v+r)%len(nbrs)]
		for i := 0; i <= (v+r)%3; i++ {
			sends = append(sends, [2]int{to, 4 + (3*v+r+i)%11})
		}
		return append(sends, [2]int{nbrs[0], 3})
	}
	factory := fourRounds(func(ctx *Ctx, r int) {
		for _, s := range plan(ctx.ID(), r, ctx.Neighbors()) {
			ctx.SendRec(s[0], Rec{Tag: uint8(s[1])}, s[1])
		}
	})
	// The recount: each sender's bits per neighbor in first-send order,
	// the largest, and the first sender and neighbor over budget.
	maxEdge := 0
	violation := func(budget int) string {
		for r := 0; r < rounds; r++ {
			for v := 0; v < n; v++ {
				sum := map[int]int{}
				var order []int
				for _, s := range plan(v, r, g.Neighbors(v)) {
					if _, ok := sum[s[0]]; !ok {
						order = append(order, s[0])
					}
					sum[s[0]] += s[1]
				}
				for _, to := range order {
					maxEdge = max(maxEdge, sum[to])
					if budget > 0 && sum[to] > budget {
						return fmt.Sprintf("vertex %d sent %d bits to %d in round %d (budget %d)", v, sum[to], to, r+1, budget)
					}
				}
			}
		}
		return ""
	}
	violation(0)
	stats, err := RunMachines(Config{Graph: g, Seed: 1}, factory)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MaxEdgeRoundBits != maxEdge {
		t.Fatalf("MaxEdgeRoundBits = %d, recount %d", stats.MaxEdgeRoundBits, maxEdge)
	}
	for _, budget := range []int{maxEdge - 1, maxEdge / 2, 20, 12} {
		want := violation(budget)
		_, err := RunMachines(Config{Graph: g, Seed: 1, Bandwidth: budget}, factory)
		if err == nil || !strings.HasSuffix(err.Error(), want) {
			t.Errorf("budget %d: err = %v, want the violation %q", budget, err, want)
		}
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
	// (record contents must never bleed between rounds). Tails alias
	// their sender's arena, so on a 64-clique under parallel stepping
	// and a 3-shard run receivers read last round's tails while their
	// senders stage the next round's.
	g := clique(64)
	for i, cfg := range recConfigs(g, 1) {
		_, err := RunMachines(cfg, func(*Ctx) Machine {
			r := 0
			return machineFunc(func(ctx *Ctx, in StepIn) StepStatus {
				if !in.Start {
					for _, rec := range in.Recs {
						if rec.Tag != uint8(r+1) || rec.A != int64(r) {
							t.Errorf("config %d round %d: stale header %+v", i, r, rec)
						}
						for _, x := range rec.Ints {
							if x != r {
								t.Errorf("config %d round %d: stale tail %v", i, r, rec.Ints)
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
			t.Fatalf("config %d: %v", i, err)
		}
	}
}

func TestRecTailsNotCopiedPerReceiver(t *testing.T) {
	// A broadcast tail is staged once in the sender's arena and every
	// receiver reads it there: the hub of a star K_{1,d} broadcasting an
	// L-int tail costs O(L) tail bytes per round, not the d·L·8 that
	// copying it into every leaf's inbox would allocate.
	const d, L, rounds = 1000, 1000, 4
	g := graph.New(d + 1)
	for v := 1; v <= d; v++ {
		g.AddEdge(0, v)
	}
	tail := make([]int, L)
	for i := range tail {
		tail[i] = i
	}
	var got [rounds]int
	factory := func(*Ctx) Machine {
		r := 0
		return machineFunc(func(ctx *Ctx, in StepIn) StepStatus {
			if !in.Start {
				if ctx.ID() == d {
					got[r] = in.Recs[0].Ints[L-1]
				}
				r++
			}
			if r == rounds {
				return StepDone
			}
			if ctx.ID() == 0 {
				tail[L-1] = r
				ctx.BroadcastRec(Rec{Tag: 1, Ints: tail}, 64)
			}
			return StepYield
		})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := RunMachines(Config{Graph: g, Seed: 1, Workers: 1}, factory); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if want := [rounds]int{0, 1, 2, 3}; got != want {
		t.Fatalf("last leaf read tails ending %v, want %v", got, want)
	}
	copied := uint64(d * L * 8)
	alloc := after.TotalAlloc - before.TotalAlloc
	if alloc > copied/4 {
		t.Fatalf("RunMachines allocated %d bytes; copying the tail per receiver would be %d", alloc, copied)
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

// TestRecCoalescedSendsKeepEveryRecord: consecutive sends of records that
// differ in one thing only — the sign of a zero float, Tag, Flag, a
// scalar word, the metered size, or the tail (equal contents in another
// backing array, or other contents) — must each reach their receiver as
// sent, in send order, and be metered per send, with repeats to one
// neighbor interleaved among them. Floats are compared by bit pattern,
// so -0 arriving as +0 fails.
func TestRecCoalescedSendsKeepEveryRecord(t *testing.T) {
	type send struct {
		to   int
		rec  Rec
		bits int
	}
	negZero := math.Copysign(0, -1)
	tail, sameTail, otherTail := []int{7, 8}, []int{7, 8}, []int{7, 9}
	base := Rec{Tag: 5, Flag: 1, A: 3, B: -4, Ints: tail}
	with := func(f func(*Rec)) Rec { r := base; f(&r); return r }
	variants := []send{
		{rec: with(func(r *Rec) { r.F0 = negZero }), bits: 10},
		{rec: with(func(r *Rec) { r.F1 = negZero }), bits: 10},
		{rec: with(func(r *Rec) { r.F2 = negZero }), bits: 10},
		{rec: with(func(r *Rec) { r.Tag = 6 }), bits: 10},
		{rec: with(func(r *Rec) { r.Flag = 2 }), bits: 10},
		{rec: with(func(r *Rec) { r.B = 4 }), bits: 10},
		{rec: base, bits: 11},
		{rec: with(func(r *Rec) { r.Ints = sameTail }), bits: 10},
		{rec: with(func(r *Rec) { r.Ints = otherTail }), bits: 10},
	}
	var sends []send
	for _, v := range variants {
		sends = append(sends,
			send{1, base, 10}, send{1, v.rec, v.bits}, send{2, v.rec, v.bits},
			send{2, base, 10}, send{3, base, 10}, send{3, base, 10})
	}
	sameRec := func(a, b *Rec) bool {
		return a.Tag == b.Tag && a.Flag == b.Flag && a.A == b.A && a.B == b.B &&
			math.Float64bits(a.F0) == math.Float64bits(b.F0) &&
			math.Float64bits(a.F1) == math.Float64bits(b.F1) &&
			math.Float64bits(a.F2) == math.Float64bits(b.F2) &&
			slices.Equal(a.Ints, b.Ints)
	}
	g := graph.New(4) // star K_{1,3}, hub 0
	for v := 1; v < 4; v++ {
		g.AddEdge(0, v)
	}
	msgs, bits := int64(len(sends)), int64(0)
	edge := make([]int, 4)
	for _, s := range sends {
		bits += int64(s.bits)
		edge[s.to] += s.bits
	}
	for i, cfg := range recConfigs(g, 1) {
		got := make([][]Rec, 4)
		stats, err := RunMachines(cfg, func(*Ctx) Machine {
			return machineFunc(func(ctx *Ctx, in StepIn) StepStatus {
				if in.Start {
					if ctx.ID() == 0 {
						for _, s := range sends {
							ctx.SendRec(s.to, s.rec, s.bits)
						}
					}
					return StepYield
				}
				for _, r := range in.Recs {
					if r.From != 0 {
						t.Errorf("config %d: vertex %d got a record from %d", i, ctx.ID(), r.From)
					}
					c := *r.Rec
					c.Ints = slices.Clone(r.Ints)
					got[ctx.ID()] = append(got[ctx.ID()], c)
				}
				return StepDone
			})
		})
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		for v := 1; v < 4; v++ {
			var want []Rec
			for _, s := range sends {
				if s.to == v {
					want = append(want, s.rec)
				}
			}
			if len(got[v]) != len(want) {
				t.Fatalf("config %d: vertex %d got %d records, want %d", i, v, len(got[v]), len(want))
			}
			for k := range want {
				if !sameRec(&got[v][k], &want[k]) {
					t.Fatalf("config %d: vertex %d record %d = %+v, want %+v", i, v, k, got[v][k], want[k])
				}
			}
		}
		if stats.Messages != msgs || stats.TotalBits != bits || stats.MaxMessageBits != 11 ||
			stats.MaxEdgeRoundBits != slices.Max(edge) {
			t.Fatalf("config %d: metering %+v, want %d messages, %d bits, max message 11, max edge-round %d",
				i, stats, msgs, bits, slices.Max(edge))
		}
	}
}

// TestRecBroadcastAllocationPerDestination bounds what the record path
// allocates per destination: a run in which the hub of a star K_{1,4096}
// broadcasts a tail-less record for 4 rounds may allocate at most 160
// bytes per leaf more than the same run with no sends. Arenas that keep
// a header per destination, on the send side and again in every
// receiver's inbox, cost about 400.
func TestRecBroadcastAllocationPerDestination(t *testing.T) {
	const d, rounds = 4096, 4
	g := graph.New(d + 1)
	for v := 1; v <= d; v++ {
		g.AddEdge(0, v)
	}
	run := func(send bool) uint64 {
		factory := func(*Ctx) Machine {
			r := 0
			return machineFunc(func(ctx *Ctx, in StepIn) StepStatus {
				if r == rounds {
					return StepDone
				}
				r++
				if send && ctx.ID() == 0 {
					ctx.BroadcastRec(Rec{Tag: 1, A: int64(r)}, 8)
				}
				return StepYield
			})
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := RunMachines(Config{Graph: g, Seed: 1, Workers: 1}, factory); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	quiet, busy := run(false), run(true)
	perDest := (float64(busy) - float64(quiet)) / d
	t.Logf("%.1f bytes allocated per destination (%d quiet, %d busy)", perDest, quiet, busy)
	if perDest > 160 {
		t.Fatalf("record path allocated %.1f bytes per destination, budget 160", perDest)
	}
}
