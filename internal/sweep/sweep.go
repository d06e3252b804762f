// Package sweep is the parallel experiment runner on top of
// internal/scenario: it expands a parameter grid into cells, replicates
// each cell across deterministically derived seeds, executes the runs on a
// bounded worker pool with per-run timeouts, aggregates every metric per
// cell
// (mean/min/max/stddev over successful replicates), and serializes the
// whole report as schema-stable JSON and CSV.
//
// Determinism: the report (cells, run order, seeds, metrics) is a pure
// function of (scenario, cells, replicates, base seed) — worker count and
// scheduling only change wall-clock time. Run seeds are derived by hashing
// the scenario name, the cell's instance key, and the replicate index into
// the base seed, so a cell's seeds are stable under grid reordering and
// sweep composition. Execution-only parameters (the "transport" that
// delivers a dist run's messages) are excluded from the instance key:
// cells differing only in transport run identical instances and must
// report identical metrics, making a transport axis a pure wall-clock
// comparison. Wall-clock
// durations are excluded from the serialized report by default; the
// execution-only "timing" parameter opts in to per-round wall-time
// metrics (round_wall_ns_mean/max, time_share_*), which are telemetry —
// reports carrying them are not byte-reproducible.
package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"distspanner/internal/scenario"
)

// Options configures one sweep.
type Options struct {
	// Scenario is the workload to run. Required.
	Scenario *scenario.Scenario
	// Cells are the parameter cells to run; nil uses the scenario's
	// default cases/grid. Each cell is layered over Scenario.Defaults.
	Cells []scenario.Params
	// Replicates is the number of seed replicates per cell; 0 uses the
	// scenario default.
	Replicates int
	// Workers bounds concurrent runs; 0 uses GOMAXPROCS.
	Workers int
	// BaseSeed drives every derived run seed.
	BaseSeed int64
	// Timeout bounds one run's wall clock; 0 means none. A timed-out run
	// is recorded as failed ("timeout after ...") and actively canceled:
	// the scenario's cancel channel is closed and the sweep waits for the
	// run to unwind before moving on, so no abandoned goroutine keeps
	// writing behind the sweep's back. A run that ignores the cancel
	// signal (sequential solvers may) is abandoned after a grace period
	// of one more Timeout.
	Timeout time.Duration
}

// Run is one executed (cell, replicate) pair.
type Run struct {
	Cell      int              `json:"cell"`
	Replicate int              `json:"replicate"`
	Seed      int64            `json:"seed"`
	Params    scenario.Params  `json:"params"`
	Metrics   scenario.Metrics `json:"metrics,omitempty"`
	Error     string           `json:"error,omitempty"`
}

// Agg is one metric aggregated over a cell's successful replicates.
type Agg struct {
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Std   float64 `json:"std"`
	Count int     `json:"count"`
}

// MarshalJSON renders non-finite aggregates as null: JSON has no
// Inf/NaN literal, and a single ln(0) metric must not make the whole
// report unserializable after every run already completed.
func (a Agg) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf(`{"mean":%s,"min":%s,"max":%s,"std":%s,"count":%d}`,
		jsonNum(a.Mean), jsonNum(a.Min), jsonNum(a.Max), jsonNum(a.Std), a.Count)), nil
}

// jsonNum formats one JSON number, mapping NaN/±Inf to null.
func jsonNum(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "null"
	}
	b, _ := json.Marshal(v)
	return string(b)
}

// Cell is the per-cell aggregate view.
type Cell struct {
	Params     scenario.Params `json:"params"`
	Replicates int             `json:"replicates"`
	Failures   int             `json:"failures"`
	Metrics    map[string]Agg  `json:"metrics"`
	Errors     []string        `json:"errors,omitempty"`
}

// Report is the full sweep result.
type Report struct {
	Scenario   string `json:"scenario"`
	Title      string `json:"title,omitempty"`
	Model      string `json:"model,omitempty"`
	BaseSeed   int64  `json:"base_seed"`
	Replicates int    `json:"replicates"`
	Failures   int    `json:"failures"`
	Cells      []Cell `json:"cells"`
	Runs       []Run  `json:"runs"`
}

// Failed reports whether any run failed verification (or timed out).
func (r *Report) Failed() bool { return r.Failures > 0 }

// DeriveSeed returns the seed of one (scenario, cell, replicate) run:
// base mixed with an FNV hash of the scenario name and the cell's
// instance key, then a splitmix64 step per replicate. Stable under cell
// reordering, and blind to execution-only parameters (the "transport"
// selection), so cells that differ only in transport run identical
// instances — any metric difference between them is an engine bug.
func DeriveSeed(base int64, scenarioName string, cell scenario.Params, replicate int) int64 {
	h := fnv.New64a()
	h.Write([]byte(scenarioName))
	h.Write([]byte{0})
	h.Write([]byte(cell.InstanceKey()))
	z := uint64(base) ^ h.Sum64()
	z += 0x9e3779b97f4a7c15 * uint64(replicate+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Execute runs the sweep and returns the aggregated report. An error is
// returned only for misconfiguration; individual run failures are recorded
// in the report (check Report.Failed()).
func Execute(opts Options) (*Report, error) {
	sc := opts.Scenario
	if sc == nil {
		return nil, errors.New("sweep: Options.Scenario is nil")
	}
	cells := opts.Cells
	if cells == nil {
		cells = sc.DefaultCells()
	}
	if len(cells) == 0 {
		cells = []scenario.Params{{}}
	}
	replicates := opts.Replicates
	if replicates <= 0 {
		replicates = sc.EffectiveReplicates()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Resolve each cell over the scenario defaults once, up front.
	resolved := make([]scenario.Params, len(cells))
	for i, c := range cells {
		resolved[i] = sc.Defaults.Merge(c)
	}

	runs := make([]Run, len(cells)*replicates)
	for ci := range resolved {
		for r := 0; r < replicates; r++ {
			idx := ci*replicates + r
			runs[idx] = Run{
				Cell:      ci,
				Replicate: r,
				Seed:      DeriveSeed(opts.BaseSeed, sc.Name, resolved[ci], r),
				Params:    resolved[ci],
			}
		}
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				executeRun(sc, &runs[idx], opts.Timeout)
			}
		}()
	}
	for idx := range runs {
		jobs <- idx
	}
	close(jobs)
	wg.Wait()

	rep := &Report{
		Scenario:   sc.Name,
		Title:      sc.Title,
		Model:      sc.Model,
		BaseSeed:   opts.BaseSeed,
		Replicates: replicates,
		Runs:       runs,
	}
	rep.Cells = make([]Cell, len(resolved))
	for ci, params := range resolved {
		cell := Cell{Params: params, Replicates: replicates, Metrics: map[string]Agg{}}
		samples := map[string][]float64{}
		seenErr := map[string]bool{}
		for r := 0; r < replicates; r++ {
			run := runs[ci*replicates+r]
			if run.Error != "" {
				cell.Failures++
				if !seenErr[run.Error] {
					seenErr[run.Error] = true
					cell.Errors = append(cell.Errors, run.Error)
				}
				continue
			}
			for name, v := range run.Metrics {
				samples[name] = append(samples[name], v)
			}
		}
		for name, vals := range samples {
			cell.Metrics[name] = aggregate(vals)
		}
		rep.Failures += cell.Failures
		rep.Cells[ci] = cell
	}
	return rep, nil
}

// executeRun performs one run in place, converting panics and timeouts
// into recorded failures so a single bad cell cannot kill the sweep.
func executeRun(sc *scenario.Scenario, run *Run, timeout time.Duration) {
	m, err := Single(sc, run.Params, run.Seed, timeout, nil)
	run.Metrics = m
	if err != nil {
		run.Error = err.Error()
	}
}

// ErrCanceled is returned by Single when the caller's cancel signal
// fires before the run completes.
var ErrCanceled = errors.New("sweep: run canceled")

// Single is the single-run executor seam: it executes one (params, seed)
// cell of sc with the sweep's full execution discipline — panic recovery,
// an optional per-run timeout, and active cancellation — and returns the
// run's metrics. It is what every sweep worker calls per run, and what
// the service layer's job pool reuses to serve one request.
//
// The run happens on its own goroutine with a recover wrapper, so a
// panicking cell surfaces as an error rather than killing the caller.
// When timeout > 0 and the run exceeds it, or when the caller's cancel
// channel fires first, the scenario's cancel channel is closed
// (dist-engine scenarios plumb it into dist.Config.Cancel, stopping
// within one round) and Single waits for the run goroutine to unwind —
// so no abandoned writer keeps mutating shared state behind the caller's
// back. A run that ignores the cancel signal (sequential solvers may) is
// abandoned after a grace period of one more timeout (one minute when no
// timeout was set). Cancellation reports ErrCanceled (wrapped); the
// run's own outcome is discarded.
func Single(sc *scenario.Scenario, p scenario.Params, seed int64, timeout time.Duration, cancel <-chan struct{}) (scenario.Metrics, error) {
	inner := make(chan struct{})
	done := make(chan runOutcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- runOutcome{err: fmt.Errorf("panic: %v", r)}
			}
		}()
		m, err := sc.Run(p, seed, inner)
		done <- runOutcome{metrics: m, err: err}
	}()
	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	grace := timeout
	if grace <= 0 {
		grace = time.Minute
	}
	select {
	case out := <-done:
		return out.metrics, out.err
	case <-timer:
		close(inner)
		awaitUnwind(done, grace)
		return nil, fmt.Errorf("timeout after %s", timeout)
	case <-cancel:
		close(inner)
		awaitUnwind(done, grace)
		return nil, fmt.Errorf("%w before completion", ErrCanceled)
	}
}

// runOutcome is one run goroutine's result, handed back over the done
// channel.
type runOutcome struct {
	metrics scenario.Metrics
	err     error
}

// awaitUnwind waits for an aborted run goroutine to unwind (its outcome
// is discarded), bounded by the grace period, so the run's writers are
// gone before the caller moves on.
func awaitUnwind(done <-chan runOutcome, grace time.Duration) {
	select {
	case <-done:
	case <-time.After(grace):
	}
}

// aggregate computes mean/min/max/population-stddev of a sample.
func aggregate(vals []float64) Agg {
	a := Agg{Min: math.Inf(1), Max: math.Inf(-1), Count: len(vals)}
	if len(vals) == 0 {
		return Agg{}
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
		if v < a.Min {
			a.Min = v
		}
		if v > a.Max {
			a.Max = v
		}
	}
	a.Mean = sum / float64(len(vals))
	varsum := 0.0
	for _, v := range vals {
		d := v - a.Mean
		varsum += d * d
	}
	a.Std = math.Sqrt(varsum / float64(len(vals)))
	return a
}

// MetricNames returns the union of metric names across all cells, sorted —
// the canonical CSV column order.
func (r *Report) MetricNames() []string {
	seen := map[string]bool{}
	for _, c := range r.Cells {
		for name := range c.Metrics {
			seen[name] = true
		}
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ParamNames returns the union of parameter names across all cells,
// sorted.
func (r *Report) ParamNames() []string {
	seen := map[string]bool{}
	for _, c := range r.Cells {
		for name := range c.Params {
			seen[name] = true
		}
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
