package wire

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"distspanner/internal/dist"
	"distspanner/internal/graph"
)

// gossip is a small record-path protocol exercising sends with tails,
// parking, waking, and quiescence finalizers — enough traffic shape to
// catch framing bugs. Deterministic in (graph, seed).
type gossip struct {
	out    []int64
	sum    int64
	rounds int
	r      int
}

func (m *gossip) Step(c *dist.Ctx, in dist.StepIn) dist.StepStatus {
	if in.Quiesced {
		m.out[c.ID()] = m.sum*31 + 7
		return dist.StepDone
	}
	if in.Start {
		m.sum = int64(c.ID()) + 1
	}
	for _, rec := range in.Recs {
		m.sum = m.sum*31 + int64(rec.From) + rec.A
		for _, x := range rec.Ints {
			m.sum = m.sum*33 + int64(x)
		}
	}
	m.r++
	if m.r > m.rounds {
		m.out[c.ID()] = m.sum
		return dist.StepDone
	}
	switch c.Rand().Intn(4) {
	case 0:
		c.BroadcastRec(dist.Rec{Tag: 1, A: int64(m.r), Ints: []int{m.r, c.ID()}}, 48)
	case 1:
		nbrs := c.Neighbors()
		c.SendRec(nbrs[c.Rand().Intn(len(nbrs))], dist.Rec{Tag: 2, A: m.sum % 97}, 16)
	case 2:
		return dist.StepPark
	}
	return dist.StepYield
}

// recorder buffers a run's logical transcript.
type recorder struct {
	events [][]dist.TraceEvent
	phases []dist.RoundActivity
}

func newRecorder(n int) *recorder { return &recorder{events: make([][]dist.TraceEvent, n)} }

func (r *recorder) Event(ev dist.TraceEvent)   { r.events[ev.V] = append(r.events[ev.V], ev) }
func (r *recorder) Phase(a dist.RoundActivity) { r.phases = append(r.phases, a) }
func (r *recorder) RoundTime(dist.RoundTiming) {}

func gossipResolver(rounds int) dist.ProgramResolver {
	return func(algo string, g *graph.Graph, seed int64) (dist.ShardProgram, error) {
		out := make([]int64, g.N())
		return dist.ShardProgram{
			Factory: func(c *dist.Ctx) dist.Machine { return &gossip{out: out, rounds: rounds} },
			Output:  func(v int) []int { return []int{int(out[v])} },
		}, nil
	}
}

func testGraph() *graph.Graph {
	g := graph.New(24)
	for v := 1; v < 24; v++ {
		g.AddEdge(v-1, v)
		if v >= 5 {
			g.AddEdge(v-5, v)
		}
	}
	return g
}

// startCluster wires a coordinator transport to `workers` ServeShard
// goroutines over TCP on localhost. The returned wait function joins
// the workers and reports their errors.
func startCluster(t *testing.T, workers, rounds int) (*TCPCoord, func() []error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wt, err := DialRetry(ln.Addr().String(), 5*time.Second)
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = dist.ServeShard(wt, gossipResolver(rounds))
		}(i)
	}
	ct, err := AcceptWorkers(ln, workers, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return ct, func() []error { wg.Wait(); return errs }
}

func TestTCPClusterMatchesInProcess(t *testing.T) {
	g := testGraph()
	for _, workers := range []int{1, 2, 3} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("workers=%d/seed=%d", workers, seed), func(t *testing.T) {
				// In-process reference.
				refOut := make([]int64, g.N())
				refRec := newRecorder(g.N())
				refStats, err := dist.RunMachines(dist.Config{
					Graph: g, Seed: seed, Tracer: refRec,
				}, func(c *dist.Ctx) dist.Machine {
					return &gossip{out: refOut, rounds: 9}
				})
				if err != nil {
					t.Fatal(err)
				}

				ct, wait := startCluster(t, workers, 9)
				rec := newRecorder(g.N())
				res, err := dist.Coordinate(ct, dist.CoordConfig{
					Graph: g, Seed: seed, Tracer: rec, Collect: true,
				})
				ct.Close()
				for i, werr := range wait() {
					if werr != nil {
						t.Fatalf("worker %d: %v", i, werr)
					}
				}
				if err != nil {
					t.Fatal(err)
				}
				if res.Stats != *refStats {
					t.Fatalf("stats diverged over TCP:\nref: %+v\ngot: %+v", *refStats, res.Stats)
				}
				for v := 0; v < g.N(); v++ {
					if want := []int{int(refOut[v])}; !reflect.DeepEqual(res.Outputs[v], want) {
						t.Fatalf("vertex %d output %v, want %v", v, res.Outputs[v], want)
					}
					if !reflect.DeepEqual(refRec.events[v], rec.events[v]) {
						t.Fatalf("vertex %d transcript diverged over TCP:\nref: %+v\ngot: %+v",
							v, refRec.events[v], rec.events[v])
					}
				}
				if !reflect.DeepEqual(refRec.phases, rec.phases) {
					t.Fatal("phase snapshots diverged over TCP")
				}
			})
		}
	}
}

// TestTCPWorkerDropMidRound kills one worker's connection mid-protocol:
// the coordinator must surface a typed transport error without hanging,
// and the transcript must contain no partial round.
func TestTCPWorkerDropMidRound(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // worker slot 0: honest
		defer wg.Done()
		wt, err := DialRetry(ln.Addr().String(), 5*time.Second)
		if err != nil {
			t.Error(err)
			return
		}
		if err := dist.ServeShard(wt, gossipResolver(50)); err != nil &&
			!errors.Is(err, dist.ErrTransport) {
			t.Errorf("honest worker: %v", err)
		}
	}()
	go func() { // worker slot 1: reads its setup, then drops the link
		defer wg.Done()
		wt, err := DialRetry(ln.Addr().String(), 5*time.Second)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := wt.Recv(); err != nil {
			t.Errorf("dropper: recv setup: %v", err)
		}
		wt.Close()
	}()

	ct, err := AcceptWorkers(ln, 2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()

	g := testGraph()
	rec := newRecorder(g.N())
	done := make(chan error, 1)
	go func() {
		_, err := dist.Coordinate(ct, dist.CoordConfig{Graph: g, Seed: 1, Tracer: rec})
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator hung after worker drop")
	}
	if !errors.Is(err, dist.ErrTransport) {
		t.Fatalf("err = %v, want ErrTransport", err)
	}
	ct.Close()
	wg.Wait()
	// No partial round in the transcript: the drop happened before any
	// round committed, so the tracer saw nothing at all.
	if len(rec.phases) != 0 {
		t.Fatalf("transcript has %d phase snapshots after aborted run", len(rec.phases))
	}
	for v, evs := range rec.events {
		if len(evs) != 0 {
			t.Fatalf("vertex %d has %d events after aborted run", v, len(evs))
		}
	}
}

// TestTCPCoordinatorVanishes drops the coordinator's side mid-run: the
// worker must return a typed transport error, not hang.
func TestTCPCoordinatorVanishes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	done := make(chan error, 1)
	go func() {
		wt, err := DialRetry(ln.Addr().String(), 5*time.Second)
		if err != nil {
			done <- err
			return
		}
		done <- dist.ServeShard(wt, gossipResolver(50))
	}()

	ct, err := AcceptWorkers(ln, 1, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph()
	// Hand the worker a valid setup, then vanish.
	if err := ct.Send(0, &dist.Frame{Type: dist.FrameSetup, Setup: &dist.SetupFrame{
		Shard: 0, Workers: 1, Cuts: []int{0, g.N()}, Graph: g, Seed: 1,
	}}); err != nil {
		t.Fatal(err)
	}
	ct.Close()

	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("worker hung after coordinator vanished")
	}
	if !errors.Is(err, dist.ErrTransport) {
		t.Fatalf("worker err = %v, want ErrTransport", err)
	}
}

// TestTCPShardErrorPropagates runs a resolver that fails on one shard:
// the coordinator reports a ShardError and the honest workers exit nil.
func TestTCPShardErrorPropagates(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	resolve := func(algo string, g *graph.Graph, seed int64) (dist.ShardProgram, error) {
		return dist.ShardProgram{}, errors.New("no such program")
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wt, err := DialRetry(ln.Addr().String(), 5*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			dist.ServeShard(wt, resolve)
		}()
	}
	ct, err := AcceptWorkers(ln, 2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()
	_, err = dist.Coordinate(ct, dist.CoordConfig{Graph: testGraph(), Seed: 1})
	var se *dist.ShardError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want ShardError", err)
	}
	ct.Close()
	wg.Wait()
}
