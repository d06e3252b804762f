package wire

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"distspanner/internal/dist"
	"distspanner/internal/graph"
)

// The transport yardsticks: the same fully-busy broadcast workload run
// (a) on the in-process step engine, (b) distributed over the in-process
// channel cluster (Go structs handed between goroutines, no
// serialization), and (c) distributed over framed TCP on localhost
// (every frame wire-encoded and length-prefixed). local-vs-chan prices
// the sharded round protocol; chan-vs-tcp prices the framing and the
// sockets. Each TCP iteration includes cluster setup (listen, dial,
// accept) — the cost a real deployment pays once per run.

const benchRounds = 16

type benchBusy struct {
	round int
}

func (m *benchBusy) Step(c *dist.Ctx, in dist.StepIn) dist.StepStatus {
	if !in.Start {
		for i := range in.Recs {
			_ = i
		}
	}
	if m.round == benchRounds {
		return dist.StepDone
	}
	c.BroadcastRec(dist.Rec{Tag: 1, A: int64(m.round)}, 32)
	m.round++
	return dist.StepYield
}

// benchProgram is the busy broadcast over g.
func benchProgram(g *graph.Graph) dist.ShardProgram {
	return dist.ShardProgram{
		Graph:   g,
		Factory: func(*dist.Ctx) dist.Machine { return &benchBusy{} },
	}
}

// benchRing mirrors the dist package's bench graph: a ring with chords,
// degree 4, deterministic at any size.
func benchRing(n int) *graph.Graph {
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.AddEdge(v, (v+1)%n)
		g.AddEdge(v, (v+2)%n)
	}
	return g
}

func benchChanRun(b *testing.B, g *graph.Graph, shards int) {
	stats, err := dist.RunMachines(dist.Config{Graph: g, Seed: 1, Shards: shards},
		func(*dist.Ctx) dist.Machine { return &benchBusy{} })
	if err != nil {
		b.Fatal(err)
	}
	if stats.Rounds != benchRounds {
		b.Fatalf("rounds = %d", stats.Rounds)
	}
}

func benchTCPRun(b *testing.B, g *graph.Graph, workers int) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	prog := benchProgram(g)
	resolve := func(string, int64) (dist.ShardProgram, error) { return prog, nil }
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wt, err := DialRetry(ln.Addr().String(), 5*time.Second)
			if err != nil {
				b.Error(err)
				return
			}
			if err := dist.ServeShard(wt, resolve); err != nil {
				b.Error(err)
			}
		}()
	}
	ct, err := AcceptWorkers(ln, workers, 5*time.Second)
	ln.Close()
	if err != nil {
		b.Fatal(err)
	}
	res, err := dist.Coordinate(ct, prog, dist.CoordConfig{Seed: 1})
	ct.Close()
	wg.Wait()
	if err != nil {
		b.Fatal(err)
	}
	if res.Stats.Rounds != benchRounds {
		b.Fatalf("rounds = %d", res.Stats.Rounds)
	}
}

func BenchmarkTransportLoopback(b *testing.B) {
	for _, n := range []int{256, 2048} {
		g := benchRing(n)
		variants := []struct {
			name string
			run  func(b *testing.B)
		}{
			{"local", func(b *testing.B) { benchChanRun(b, g, 0) }},
			{"chan2", func(b *testing.B) { benchChanRun(b, g, 2) }},
			{"tcp2", func(b *testing.B) { benchTCPRun(b, g, 2) }},
		}
		for _, v := range variants {
			b.Run(fmt.Sprintf("n=%d/transport=%s", n, v.name), func(b *testing.B) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					v.run(b)
				}
				b.StopTimer()
				b.ReportMetric(float64(benchRounds)*float64(b.N)/b.Elapsed().Seconds(), "rounds/sec")
			})
		}
	}
}
