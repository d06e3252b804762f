package dist

import (
	"math/rand"
	"strings"
	"testing"

	"distspanner/internal/graph"
)

// drawer is what Ctx and rand.Rand share: the stream test makes the same
// calls on both.
type drawer interface {
	Int63n(n int64) int64
	Intn(n int) int
}

// scheduledDraw makes draw kind k, bounded by the drawing vertex's degree
// deg where the kind says so. Kinds 1 and 3 reject a quarter of their
// source steps, kinds 2 and 4 reject rarely, and kinds 0 and 5 never.
func scheduledDraw(d drawer, k, deg int) int64 {
	switch k {
	case 0:
		return d.Int63n(1 << 62) // a candidacy rank
	case 1:
		return d.Int63n(3 << 61)
	case 2:
		return int64(d.Intn(3))
	case 3:
		return int64(d.Intn(3 << 29))
	case 4:
		return int64(d.Intn(deg))
	default:
		return int64(d.Intn(2)) // a geometric radius's coin
	}
}

// streamKinds is the number of draw kinds scheduledDraw makes.
const streamKinds = 6

// drawRec is one draw a vertex made: its kind and its value.
type drawRec struct {
	kind int
	v    int64
}

// countingSource counts the steps of the source it wraps.
type countingSource struct {
	rand.Source64
	steps int
}

func (s *countingSource) Int63() int64   { s.steps++; return s.Source64.Int63() }
func (s *countingSource) Uint64() uint64 { s.steps++; return s.Source64.Uint64() }

// streamMachines draws on a fixed schedule and records every draw into
// out[id]. Vertex v lives 2 + v%6 steps and makes (v+s)%4 draws at its
// step s, so draws come several to a step, spread over steps and
// interleaved with other vertices' on every stepper. As the active set
// shrinks, vertices move between the parallel steppers' parts and then
// to the serial path. Every fifth vertex parks instead of retiring and
// draws twice more in the quiescence epilogue.
func streamMachines(out [][]drawRec) func(*Ctx) Machine {
	return func(c *Ctx) Machine {
		v, s := c.ID(), 0
		draw := func(ctx *Ctx, k int) {
			out[v] = append(out[v], drawRec{k, scheduledDraw(ctx, k, ctx.Degree())})
		}
		return machineFunc(func(ctx *Ctx, in StepIn) StepStatus {
			if in.Quiesced {
				draw(ctx, v%streamKinds)
				draw(ctx, (v+1)%streamKinds)
				return StepDone
			}
			for j := 0; j < (v+s)%4; j++ {
				draw(ctx, (v*5+s*3+j)%streamKinds)
			}
			s++
			switch {
			case s < 2+v%6:
				return StepYield
			case v%5 == 0:
				return StepPark
			}
			return StepDone
		})
	}
}

// TestVertexStreamMatchesOwnSource checks that the pooled per-stepper
// sources give every vertex the stream of its own source: each value
// drawn through Ctx.Int63n and Ctx.Intn must equal the draw at the same
// position of rand.New(rand.NewSource(vertexSeed(seed, id))), serially,
// with two parallel steppers, and on three shard workers, whose first
// steps are parallel too.
func TestVertexStreamMatchesOwnSource(t *testing.T) {
	const n, seed = 240, 41
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.AddEdge(v, (v+1)%n)
		if v%3 == 0 {
			g.AddEdge(v, (v+7)%n)
		}
	}
	for _, cfg := range []Config{{Workers: 1}, {Workers: 2}, {Shards: 3}} {
		cfg.Graph, cfg.Seed = g, seed
		out := make([][]drawRec, n)
		if _, err := RunMachines(cfg, streamMachines(out)); err != nil {
			t.Fatalf("workers %d, shards %d: %v", cfg.Workers, cfg.Shards, err)
		}
		draws, rejected := 0, 0
		for v := range out {
			src := &countingSource{Source64: rand.NewSource(vertexSeed(seed, v)).(rand.Source64)}
			ref := rand.New(src)
			for i, d := range out[v] {
				if want := scheduledDraw(ref, d.kind, g.Degree(v)); d.v != want {
					t.Fatalf("workers %d, shards %d: vertex %d draw %d (kind %d) = %d, its own source draws %d",
						cfg.Workers, cfg.Shards, v, i, d.kind, d.v, want)
				}
			}
			draws += len(out[v])
			rejected += src.steps - len(out[v])
		}
		// Rejection sampling must have made some draws take more than one
		// source step, or the step count would equal the draw count.
		if draws < 4*n || rejected < 50 {
			t.Fatalf("workers %d, shards %d: %d draws, %d rejected source steps", cfg.Workers, cfg.Shards, draws, rejected)
		}
	}
	// A vertex that draws on one stepper, then on another, then on the
	// first again finds the first source left where it last drew there,
	// behind its stream: that source must be re-positioned.
	c := &Ctx{eng: &engine{seed: seed}, id: 7}
	ref := rand.New(rand.NewSource(vertexSeed(seed, c.id)))
	var a, b stepRand
	for i, rs := range []*stepRand{&a, &a, &b, &a, &b, &b, &a} {
		c.rs = rs
		if got, want := c.Intn(3<<29), ref.Intn(3<<29); got != want {
			t.Fatalf("draw %d, moving between steppers: %d, its own source draws %d", i, got, want)
		}
	}
}

// TestDrawOutsideStepPanics checks that a Ctx holds a random source only
// while its machine steps: a draw from the factory panics.
func TestDrawOutsideStepPanics(t *testing.T) {
	var got any
	func() {
		defer func() { got = recover() }()
		RunMachines(Config{Graph: path(3), Seed: 1}, func(c *Ctx) Machine {
			c.Intn(2)
			return machineFunc(func(*Ctx, StepIn) StepStatus { return StepDone })
		})
	}()
	if msg, _ := got.(string); !strings.Contains(msg, "outside its step") {
		t.Fatalf("draw in the factory: recovered %v, want a panic naming the step", got)
	}
}
