package sweep

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"distspanner/internal/dist"
	"distspanner/internal/gen"
	"distspanner/internal/scenario"
)

// synthetic returns an unregistered scenario whose metrics are pure
// functions of (params, seed) so tests can assert exact aggregates.
func synthetic() *scenario.Scenario {
	return &scenario.Scenario{
		Name:     "synthetic",
		Title:    "test scenario",
		Model:    "analytic",
		Defaults: scenario.Params{"x": "1"},
		Run: func(p scenario.Params, seed int64, cancel <-chan struct{}) (scenario.Metrics, error) {
			x := p.Float("x", 0)
			if p.Bool("fail", false) {
				return nil, fmt.Errorf("deliberate failure at x=%g", x)
			}
			return scenario.Metrics{
				"x":    x,
				"seed": float64(seed % 97),
			}, nil
		},
	}
}

func TestExecuteAggregates(t *testing.T) {
	sc := synthetic()
	rep, err := Execute(Options{
		Scenario:   sc,
		Cells:      []scenario.Params{{"x": "2"}, {"x": "5"}},
		Replicates: 4,
		BaseSeed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 || len(rep.Runs) != 8 {
		t.Fatalf("cells=%d runs=%d", len(rep.Cells), len(rep.Runs))
	}
	if rep.Failed() {
		t.Fatalf("unexpected failures: %+v", rep.Cells)
	}
	agg := rep.Cells[0].Metrics["x"]
	if agg.Mean != 2 || agg.Min != 2 || agg.Max != 2 || agg.Std != 0 || agg.Count != 4 {
		t.Fatalf("x agg = %+v", agg)
	}
	if rep.Cells[1].Metrics["x"].Mean != 5 {
		t.Fatal("cell 1 did not get its own params")
	}
	// Defaults layered under cells.
	if rep.Cells[0].Params["x"] != "2" {
		t.Fatal("cell override lost")
	}
}

func TestExecuteDeterministicAcrossWorkers(t *testing.T) {
	sc := synthetic()
	cells := []scenario.Params{{"x": "1"}, {"x": "2"}, {"x": "3"}, {"x": "4"}}
	var outs []string
	for _, workers := range []int{1, 8} {
		rep, err := Execute(Options{Scenario: sc, Cells: cells, Replicates: 3, Workers: workers, BaseSeed: 42})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, buf.String())
	}
	if outs[0] != outs[1] {
		t.Fatal("JSON differs between workers=1 and workers=8")
	}
}

func TestSeedDerivation(t *testing.T) {
	c1 := scenario.Params{"n": "64", "p": "0.1"}
	c2 := scenario.Params{"p": "0.1", "n": "64"} // same cell, different construction order
	if DeriveSeed(7, "s", c1, 0) != DeriveSeed(7, "s", c2, 0) {
		t.Fatal("seed must depend on canonical key, not map order")
	}
	if DeriveSeed(7, "s", c1, 0) == DeriveSeed(7, "s", c1, 1) {
		t.Fatal("replicates must get distinct seeds")
	}
	if DeriveSeed(7, "s", c1, 0) == DeriveSeed(8, "s", c1, 0) {
		t.Fatal("base seed must matter")
	}
	if DeriveSeed(7, "a", c1, 0) == DeriveSeed(7, "b", c1, 0) {
		t.Fatal("scenario name must matter")
	}
}

func TestFailuresRecorded(t *testing.T) {
	sc := synthetic()
	rep, err := Execute(Options{
		Scenario:   sc,
		Cells:      []scenario.Params{{"x": "1"}, {"x": "9", "fail": "true"}},
		Replicates: 2,
		BaseSeed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() || rep.Failures != 2 {
		t.Fatalf("failures = %d, want 2", rep.Failures)
	}
	cell := rep.Cells[1]
	if cell.Failures != 2 || len(cell.Errors) != 1 || !strings.Contains(cell.Errors[0], "deliberate") {
		t.Fatalf("cell = %+v", cell)
	}
	// Failed replicates contribute no samples.
	if _, ok := cell.Metrics["x"]; ok {
		t.Fatal("failed runs must not contribute aggregates")
	}
}

func TestPanicRecovered(t *testing.T) {
	sc := &scenario.Scenario{
		Name: "panicky",
		Run: func(p scenario.Params, seed int64, cancel <-chan struct{}) (scenario.Metrics, error) {
			panic("boom")
		},
	}
	rep, err := Execute(Options{Scenario: sc, Replicates: 1, BaseSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() || !strings.Contains(rep.Runs[0].Error, "boom") {
		t.Fatalf("panic not recorded: %+v", rep.Runs)
	}
}

func TestTimeout(t *testing.T) {
	sc := &scenario.Scenario{
		Name: "slow",
		Run: func(p scenario.Params, seed int64, cancel <-chan struct{}) (scenario.Metrics, error) {
			time.Sleep(5 * time.Second)
			return scenario.Metrics{"done": 1}, nil
		},
	}
	start := time.Now()
	rep, err := Execute(Options{Scenario: sc, Replicates: 1, BaseSeed: 1, Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout did not take effect")
	}
	if !rep.Failed() || !strings.Contains(rep.Runs[0].Error, "timeout") {
		t.Fatalf("timeout not recorded: %+v", rep.Runs)
	}
}

// TestTimeoutCancelsBusyRun asserts a timeout actively stops the losing
// run rather than abandoning its goroutine: the busy dist run is unwound
// via the scenario cancel channel before Execute returns, so the test's
// read of the hook-written counter below is race-free (run with -race).
func TestTimeoutCancelsBusyRun(t *testing.T) {
	rounds := 0 // written by the run's round hook, read after Execute
	sc := &scenario.Scenario{
		Name: "busy",
		Run: func(p scenario.Params, seed int64, cancel <-chan struct{}) (scenario.Metrics, error) {
			_, err := dist.RunMachines(dist.Config{
				Graph:     gen.Cycle(64),
				Seed:      seed,
				MaxRounds: 1 << 30,
				Cancel:    cancel,
				OnRound:   func(dist.RoundActivity) { rounds++ },
			}, func(*dist.Ctx) dist.Machine { return spinMachine{} })
			return nil, err
		},
	}
	rep, err := Execute(Options{Scenario: sc, Replicates: 1, BaseSeed: 1, Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() || !strings.Contains(rep.Runs[0].Error, "timeout") {
		t.Fatalf("timeout not recorded: %+v", rep.Runs)
	}
	if rounds == 0 {
		t.Fatal("busy run never advanced a round before the timeout")
	}
}

// spinMachine yields forever: a run of it only ends by cancellation or
// the round limit.
type spinMachine struct{}

func (spinMachine) Step(*dist.Ctx, dist.StepIn) dist.StepStatus { return dist.StepYield }

// TestWorkerPoolParallelism shows wall clock drops as -workers grows: 6
// runs of a 60ms scenario take >= 360ms serially but ~60ms on 6 workers.
// Sleep-based so the demonstration holds even on single-CPU CI runners.
func TestWorkerPoolParallelism(t *testing.T) {
	sc := &scenario.Scenario{
		Name: "sleepy",
		Run: func(p scenario.Params, seed int64, cancel <-chan struct{}) (scenario.Metrics, error) {
			time.Sleep(60 * time.Millisecond)
			return scenario.Metrics{"ok": 1}, nil
		},
	}
	cells := make([]scenario.Params, 6)
	for i := range cells {
		cells[i] = scenario.Params{"i": fmt.Sprint(i)}
	}
	elapsed := func(workers int) time.Duration {
		start := time.Now()
		rep, err := Execute(Options{Scenario: sc, Cells: cells, Replicates: 1, Workers: workers, BaseSeed: 1})
		if err != nil || rep.Failed() {
			t.Fatalf("workers=%d: %v %+v", workers, err, rep)
		}
		return time.Since(start)
	}
	serial := elapsed(1)
	parallel := elapsed(6)
	if serial < 300*time.Millisecond {
		t.Fatalf("serial sweep finished too fast (%s): jobs not serialized?", serial)
	}
	if parallel >= serial/2 {
		t.Fatalf("parallel sweep (%s) not faster than serial (%s)", parallel, serial)
	}
}

func TestCSVShape(t *testing.T) {
	sc := synthetic()
	rep, err := Execute(Options{
		Scenario:   sc,
		Cells:      []scenario.Params{{"x": "2"}, {"x": "3", "extra": "1"}},
		Replicates: 2,
		BaseSeed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d CSV lines, want header + 2 cells", len(lines))
	}
	header := strings.Split(lines[0], ",")
	wantCols := 2 + 2 /*params: extra,x*/ + 2 + 2*4 /*metrics: seed,x × 4 aggs*/
	if len(header) != wantCols {
		t.Fatalf("header has %d columns, want %d: %v", len(header), wantCols, header)
	}
	if header[0] != "scenario" || header[2] != "extra" || header[3] != "x" {
		t.Fatalf("header order: %v", header)
	}
	// Cell 0 has no "extra" param: empty field.
	row0 := strings.Split(lines[1], ",")
	if row0[2] != "" || row0[3] != "2" {
		t.Fatalf("row0: %v", row0)
	}
}

// TestRealScenarioSweep exercises the acceptance-criteria path end to end:
// the registered twospanner scenario over a parsed grid, checking
// determinism of the serialized report for a fixed base seed.
func TestRealScenarioSweep(t *testing.T) {
	sc, ok := scenario.Get("twospanner")
	if !ok {
		t.Fatal("twospanner not registered")
	}
	grid, err := scenario.ParseGrid("n=20,28;p=0.15,0.25")
	if err != nil {
		t.Fatal(err)
	}
	var prev string
	for i := 0; i < 2; i++ {
		rep, err := Execute(Options{Scenario: sc, Cells: grid.Cells(), Replicates: 2, BaseSeed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed() {
			t.Fatalf("verification failures: %+v", rep.Cells)
		}
		if len(rep.Cells) != 4 {
			t.Fatalf("%d cells", len(rep.Cells))
		}
		for _, c := range rep.Cells {
			if c.Metrics["valid"].Min != 1 {
				t.Fatalf("cell %v not verified", c.Params)
			}
			if c.Metrics["size"].Count != 2 {
				t.Fatalf("cell %v missing samples", c.Params)
			}
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			prev = buf.String()
		} else if buf.String() != prev {
			t.Fatal("repeat sweep with fixed base seed produced different JSON")
		}
	}
}

func TestEngineAxisRunsIdenticalInstances(t *testing.T) {
	// Cells that differ only in the execution-only "transport" parameter
	// must derive identical seeds (InstanceKey is blind to it), so a sweep
	// over transport={local,chan2} runs the same instances and — by the
	// dist engine's transport conformance contract — yields identical
	// metrics.
	for r := 0; r < 3; r++ {
		a := DeriveSeed(7, "twospanner", scenario.Params{"n": "32", "transport": "local"}, r)
		b := DeriveSeed(7, "twospanner", scenario.Params{"n": "32", "transport": "chan2"}, r)
		c := DeriveSeed(7, "twospanner", scenario.Params{"n": "32"}, r)
		if a != b || a != c {
			t.Fatalf("replicate %d: transport parameter leaked into seed derivation: %d %d %d", r, a, b, c)
		}
	}
	sc, ok := scenario.Get("twospanner")
	if !ok {
		t.Fatal("twospanner not registered")
	}
	rep, err := Execute(Options{
		Scenario:   sc,
		Cells:      []scenario.Params{{"n": "28", "transport": "local"}, {"n": "28", "transport": "chan2"}},
		Replicates: 2,
		BaseSeed:   11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("sweep failed: %+v", rep.Cells)
	}
	local, sharded := rep.Cells[0], rep.Cells[1]
	if len(local.Metrics) == 0 {
		t.Fatal("no metrics recorded")
	}
	for name, agg := range local.Metrics {
		if sharded.Metrics[name] != agg {
			t.Fatalf("metric %q diverges across transport cells: local %+v, chan2 %+v",
				name, agg, sharded.Metrics[name])
		}
	}
}
