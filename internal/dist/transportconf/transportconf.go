// Package transportconf is the conformance suite a dist.CoordTransport
// implementation must pass. A conformant transport is invisible: a
// distributed run over it reproduces the in-process step engine
// bit-for-bit — identical per-vertex trace digests, identical Stats
// (message/bit metering included), identical merged outputs — for the
// program of every scenario that builds one (scenario.ProgramNames), and
// it quiesces, cancels, and aborts exactly where the local engine does.
//
// Call Run with a Factory that builds a connected cluster whose
// workers serve scenario.Resolver(). The package's own tests run the
// suite against the in-process channel transport and verify the suite
// detects deliberately broken transports (record duplication and
// reordering fixtures); the wire package runs it against TCP.
package transportconf

import (
	"errors"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"distspanner/internal/dist"
	"distspanner/internal/scenario"
	"distspanner/internal/trace"
)

// Factory builds a connected cluster with the given number of workers,
// each serving scenario.Resolver(). The returned wait must tear the
// cluster down, block until every worker has exited (failing tb if
// that takes unreasonably long), and return each worker's ServeShard
// error by slot; the suite decides which errors a case permits.
type Factory func(tb testing.TB, workers int) (dist.CoordTransport, func() []error)

// joinClean tears the cluster down and fails t on any worker error
// that is not a coordinator-initiated hangup.
func joinClean(t *testing.T, wait func() []error) {
	t.Helper()
	for i, err := range wait() {
		if err != nil && !errors.Is(err, dist.ErrTransport) {
			t.Errorf("worker %d exited with %v", i, err)
		}
	}
}

// namedCell pairs a conformance cell with its subtest label; the suite
// iterates the slice so subtest order (and any shared-cluster scheduling
// it implies) is deterministic — a map here made the matrix order vary
// run to run.
type namedCell struct {
	name string
	cell scenario.Params
}

// The conformance cells, each layered over every scenario's defaults: a
// connected G(n, p) pinned by iseed, a clique, a grid, and an inline
// graph whose 40 isolated vertices park at once.
var (
	gnp48    = scenario.Params{"family": "cgnp", "n": "48", "p": "0.15", "iseed": "1"}
	clique12 = scenario.Params{"family": "clique", "n": "12"}
	grid6    = scenario.Params{"family": "grid", "rows": "6", "cols": "6"}
	idle42   = scenario.Params{"family": "inline", "n": "42", "edges": "0-1"}

	suiteCells = []namedCell{{"gnp48", gnp48}, {"clique12", clique12}, {"grid6", grid6}, {"idle42", idle42}}
)

var suiteSeeds = []int64{1, 2}

// distributed returns the program and coordinator configuration of the
// named scenario on cell (layered over its defaults) and seed.
func distributed(tb testing.TB, name string, cell scenario.Params, seed int64) (dist.ShardProgram, dist.CoordConfig) {
	tb.Helper()
	sc, ok := scenario.Get(name)
	if !ok {
		tb.Fatalf("scenario %q not registered", name)
	}
	prog, cfg, err := scenario.Distributed(sc, sc.Defaults.Merge(cell), seed)
	if err != nil {
		tb.Fatalf("%s [%s] seed %d: %v", name, cell.Key(), seed, err)
	}
	return prog, cfg
}

// outcome is one run's observable surface: what conformance compares.
type outcome struct {
	stats   dist.Stats
	outputs [][]int
	digest  trace.Digest
	phases  []dist.RoundActivity
	err     error
}

// runLocal executes prog in-process under cfg (from
// scenario.Distributed, possibly with extra hooks set): the reference.
func runLocal(prog dist.ShardProgram, cfg dist.CoordConfig) outcome {
	rec := trace.NewRecorder(prog.Graph.N())
	stats, err := dist.RunLocal(prog, dist.Config{
		Seed: cfg.Seed, MaxRounds: cfg.MaxRounds,
		CutSide: cfg.CutSide, OnRound: cfg.OnRound, Cancel: cfg.Cancel, Tracer: rec,
	})
	if err != nil {
		return outcome{err: err}
	}
	outs := make([][]int, prog.Graph.N())
	for v := range outs {
		outs[v] = prog.Output(v)
	}
	return outcome{stats: *stats, outputs: outs, digest: rec.Digest(), phases: rec.Phases()}
}

// runDistributed executes prog under cfg over ct, collecting the
// replayed transcript.
func runDistributed(ct dist.CoordTransport, prog dist.ShardProgram, cfg dist.CoordConfig) outcome {
	rec := trace.NewRecorder(prog.Graph.N())
	cfg.Tracer = rec
	cfg.Collect = true
	res, err := dist.Coordinate(ct, prog, cfg)
	if err != nil {
		return outcome{err: err}
	}
	return outcome{stats: res.Stats, outputs: res.Outputs, digest: rec.Digest(), phases: rec.Phases()}
}

// compare fails t on any observable divergence between the reference
// and distributed outcomes. It is the definition of conformance.
func compare(t *testing.T, ref, got outcome) {
	t.Helper()
	if ref.err != nil || got.err != nil {
		refMsg, gotMsg := errString(ref.err), errString(got.err)
		if refMsg != gotMsg {
			t.Errorf("error mismatch:\n  reference:   %s\n  distributed: %s", refMsg, gotMsg)
		}
		return
	}
	if !ref.digest.Equal(got.digest) {
		v := -1
		for i := range ref.digest.Vertex {
			if ref.digest.Vertex[i] != got.digest.Vertex[i] {
				v = i
				break
			}
		}
		t.Errorf("trace digest mismatch: run %s vs %s (first divergent vertex %d)",
			ref.digest.Run, got.digest.Run, v)
	}
	if ref.stats != got.stats {
		t.Errorf("stats mismatch:\n  reference:   %+v\n  distributed: %+v", ref.stats, got.stats)
	}
	if !equalOutputs(ref.outputs, got.outputs) {
		t.Errorf("outputs mismatch:\n  reference:   %v\n  distributed: %v", ref.outputs, got.outputs)
	}
	if !reflect.DeepEqual(ref.phases, got.phases) {
		t.Errorf("round-activity mismatch:\n  reference:   %+v\n  distributed: %+v", ref.phases, got.phases)
	}
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// equalOutputs treats nil and empty per-vertex slices as equal: the
// wire codec does not distinguish them.
func equalOutputs(a, b [][]int) bool { return slices.EqualFunc(a, b, slices.Equal[[]int]) }

// Run executes the conformance suite against the transport built by
// newCluster.
func Run(t *testing.T, newCluster Factory) {
	t.Run("Equivalence", func(t *testing.T) { equivalence(t, newCluster) })
	t.Run("WorkerCounts", func(t *testing.T) { workerCounts(t, newCluster) })
	t.Run("CutMetering", func(t *testing.T) { cutMetering(t, newCluster) })
	t.Run("IdleQuiescence", func(t *testing.T) { idleQuiescence(t, newCluster) })
	t.Run("Cancellation", func(t *testing.T) { cancellation(t, newCluster) })
	t.Run("RoundLimit", func(t *testing.T) { roundLimit(t, newCluster) })
	t.Run("UnknownAlgo", func(t *testing.T) { unknownAlgo(t, newCluster) })
}

// equivalence pins the headline property: for every (scenario, cell,
// seed) in the matrix, a 2-worker distributed run is bit-identical to
// the in-process step engine. Subtests are labeled by the scenario name
// without its shared "twospanner-" prefix.
func equivalence(t *testing.T, newCluster Factory) {
	for _, name := range scenario.ProgramNames() {
		for _, nc := range suiteCells {
			for _, seed := range suiteSeeds {
				label := strings.TrimPrefix(name, "twospanner-")
				t.Run(label+"/"+nc.name+"/"+itoa(seed), func(t *testing.T) {
					prog, cfg := distributed(t, name, nc.cell, seed)
					ref := runLocal(prog, cfg)
					if ref.err != nil {
						t.Fatalf("reference run failed: %v", ref.err)
					}
					ct, wait := newCluster(t, 2)
					defer joinClean(t, wait)
					compare(t, ref, runDistributed(ct, prog, cfg))
				})
			}
		}
	}
}

// workerCounts pins shard-count invariance on the transport: the same
// instance over 1, 2, 3, and 5 workers produces the same transcript.
func workerCounts(t *testing.T, newCluster Factory) {
	prog, cfg := distributed(t, "twospanner", gnp48, 1)
	ref := runLocal(prog, cfg)
	if ref.err != nil {
		t.Fatalf("reference run failed: %v", ref.err)
	}
	for _, w := range []int{1, 2, 3, 5} {
		t.Run(itoa(int64(w)), func(t *testing.T) {
			ct, wait := newCluster(t, w)
			defer joinClean(t, wait)
			compare(t, ref, runDistributed(ct, prog, cfg))
		})
	}
}

// cutMetering pins Stats.CutBits over the wire: the coordinator's cut
// assignment reaches the workers and their metering folds back.
func cutMetering(t *testing.T, newCluster Factory) {
	prog, cfg := distributed(t, "twospanner", grid6, 1)
	n := prog.Graph.N()
	cut := make([]bool, n)
	for v := n / 2; v < n; v++ {
		cut[v] = true
	}
	cfg.CutSide = cut
	ref := runLocal(prog, cfg)
	if ref.err != nil {
		t.Fatalf("reference run failed: %v", ref.err)
	}
	if ref.stats.CutBits == 0 {
		t.Fatal("cut fixture meters no cut traffic; pick a different cut")
	}
	ct, wait := newCluster(t, 3)
	defer joinClean(t, wait)
	compare(t, ref, runDistributed(ct, prog, cfg))
}

// idleQuiescence pins the quiescence protocol with mostly idle
// populations: all but two vertices are isolated and park immediately,
// so two of the three shards contribute nothing. The run must still
// terminate with the reference transcript.
func idleQuiescence(t *testing.T, newCluster Factory) {
	prog, cfg := distributed(t, "twospanner", idle42, 1)
	ref := runLocal(prog, cfg)
	if ref.err != nil {
		t.Fatalf("reference run failed: %v", ref.err)
	}
	ct, wait := newCluster(t, 3)
	defer joinClean(t, wait)
	done := make(chan outcome, 1)
	go func() { done <- runDistributed(ct, prog, cfg) }()
	select {
	case got := <-done:
		compare(t, ref, got)
	case <-time.After(30 * time.Second):
		t.Fatal("idle-population run did not quiesce within 30s")
	}
}

// cancellation pins clean cancellation: a pre-closed Cancel channel
// aborts the run with the local engine's exact error, the transcript
// stays empty (no partial round), and the cluster tears down.
func cancellation(t *testing.T, newCluster Factory) {
	prog, cfg := distributed(t, "twospanner", clique12, 1)
	cancel := make(chan struct{})
	close(cancel)
	cfg.Cancel = cancel

	ref := runLocal(prog, cfg)
	if !errors.Is(ref.err, dist.ErrCanceled) {
		t.Fatalf("reference cancellation error = %v", ref.err)
	}

	ct, wait := newCluster(t, 2)
	defer joinClean(t, wait)
	rec := trace.NewRecorder(prog.Graph.N())
	cfg.Tracer = rec
	done := make(chan error, 1)
	go func() {
		_, err := dist.Coordinate(ct, prog, cfg)
		done <- err
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancellation did not surface within 30s")
	}
	if !errors.Is(err, dist.ErrCanceled) {
		t.Fatalf("distributed cancellation error = %v", err)
	}
	if err.Error() != ref.err.Error() {
		t.Errorf("cancellation error mismatch:\n  reference:   %s\n  distributed: %s", ref.err, err)
	}
	if rec.EventCount() != 0 || len(rec.Phases()) != 0 {
		t.Errorf("canceled run left a partial transcript: %d events, %d phases",
			rec.EventCount(), len(rec.Phases()))
	}
}

// roundLimit pins abort-path equality: the distributed run hits
// MaxRounds with the local engine's exact error text.
func roundLimit(t *testing.T, newCluster Factory) {
	prog, cfg := distributed(t, "twospanner", clique12, 1)
	cfg.MaxRounds = 2
	ref := runLocal(prog, cfg)
	if !errors.Is(ref.err, dist.ErrRoundLimit) {
		t.Fatalf("reference round-limit error = %v", ref.err)
	}
	ct, wait := newCluster(t, 2)
	defer joinClean(t, wait)
	got := runDistributed(ct, prog, cfg)
	if !errors.Is(got.err, dist.ErrRoundLimit) {
		t.Fatalf("distributed round-limit error = %v", got.err)
	}
	if got.err.Error() != ref.err.Error() {
		t.Errorf("round-limit error mismatch:\n  reference:   %s\n  distributed: %s", ref.err, got.err)
	}
}

// unknownAlgo pins resolver-failure propagation: a scenario the
// coordinator names but the workers do not know surfaces as a
// ShardError, not a hang.
func unknownAlgo(t *testing.T, newCluster Factory) {
	sc, _ := scenario.Get("twospanner")
	unknown := *sc
	unknown.Name = "no-such-scenario"
	prog, cfg, err := scenario.Distributed(&unknown, clique12, 1)
	if err != nil {
		t.Fatal(err)
	}
	ct, wait := newCluster(t, 2)
	defer func() {
		for i, werr := range wait() {
			if werr != nil && !errors.Is(werr, dist.ErrTransport) &&
				!strings.Contains(werr.Error(), "unknown scenario") {
				t.Errorf("worker %d exited with %v", i, werr)
			}
		}
	}()
	done := make(chan error, 1)
	go func() {
		_, err := dist.Coordinate(ct, prog, cfg)
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("unknown-algo run did not fail within 30s")
	}
	var se *dist.ShardError
	if !errors.As(err, &se) {
		t.Fatalf("unknown algo error = %v, want ShardError", err)
	}
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }

// ChanFactory builds in-process channel clusters — the reference
// transport the suite itself is validated against.
func ChanFactory(tb testing.TB, workers int) (dist.CoordTransport, func() []error) {
	ct, wts := dist.NewChanCluster(workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i, wt := range wts {
		wg.Add(1)
		go func(i int, wt dist.WorkerTransport) {
			defer wg.Done()
			errs[i] = dist.ServeShard(wt, scenario.Resolver())
		}(i, wt)
	}
	wait := func() []error {
		ct.Close()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			tb.Fatal("workers did not exit within 30s of coordinator close")
		}
		return errs
	}
	return ct, wait
}
