// Command perfbench is the repository benchmark. It runs one workload
// against the module's own packages for a fixed time, checks every
// output, and prints one JSON result line (the last line of standard
// output). Build and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload dense-busy --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 a separate traced run carries the per-layer breakdown. The
// line before the result records the environment, the inputs and the
// diagnostics behind the figures. README.md describes the workloads and
// every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
}

// outcome is what a workload run reports.
type outcome struct {
	attempted int
	failed    int
	// flagged names conditions that make the run untrustworthy even though
	// every output was correct (a growing open-loop backlog).
	flagged []string
	// metrics holds every end-to-end metric (untraced run) or every
	// per-layer metric (traced run).
	metrics map[string]float64
	// detail is the diagnostic record printed before the result line.
	detail map[string]any
}

// workload is one named input set; BENCHMARK.json and README.md say why
// each was chosen.
type workload struct {
	name string
	run  func(cfg config) (*outcome, error)
}

func workloads() []workload {
	return []workload{
		{"dense-busy", func(cfg config) (*outcome, error) { return runScenario(denseBusy, pins[denseBusy.name], cfg) }},
		{"sparse-scale", func(cfg config) (*outcome, error) { return runScenario(sparseScale, pins[sparseScale.name], cfg) }},
		{"service-mix", func(cfg config) (*outcome, error) { return runServiceWorkload(serviceMix, cfg) }},
	}
}

func main() {
	name := flag.String("workload", "", "workload to run: dense-busy, sparse-scale, service-mix")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 30, "measured time of one run")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end metrics")
	pin := flag.Bool("pin", false, "recompute the pinned per-seed fingerprints and write pins.go to standard output")
	flag.Parse()

	if *pin {
		if err := writePins(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var w *workload
	for _, c := range workloads() {
		if c.name == *name {
			w = &c
		}
	}
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload dense-busy|sparse-scale|service-mix, --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *traced == 1}
	out, err := w.run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	detail, last, err := render(w.name, cfg, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(detail)
	fmt.Println(last)
}

// metricValue is one reported figure.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last output line, the one callers parse.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// render builds the detail line and the result line. It refuses an
// outcome that misses a metric of its kind, so a run can never print a
// partial result.
func render(name string, cfg config, out *outcome) (string, string, error) {
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	res := result{
		Correct:   out.failed == 0 && len(out.flagged) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range want {
		v, ok := out.metrics[m.name]
		if !ok {
			return "", "", fmt.Errorf("%s: metric %s was not measured", name, m.name)
		}
		res.Metrics[m.name] = metricValue{Value: finite(v), Unit: m.unit}
	}
	if res.Attempted < 1 {
		return "", "", fmt.Errorf("%s: no operation was attempted", name)
	}
	detail := map[string]any{
		"workload": name,
		"seed":     cfg.seed,
		"seconds":  cfg.seconds,
		"trace":    cfg.trace,
		"env":      environment(),
		"ops":      out.attempted,
		"failed":   out.failed,
		"flagged":  out.flagged,
	}
	for k, v := range out.detail {
		detail[k] = v
	}
	d, err := json.Marshal(detail)
	if err != nil {
		return "", "", fmt.Errorf("%s: detail: %w", name, err)
	}
	r, err := json.Marshal(res)
	if err != nil {
		return "", "", fmt.Errorf("%s: result: %w", name, err)
	}
	return string(d), string(r), nil
}

// finite maps a non-finite figure (a percentile that landed on a failed,
// infinitely late request) to the largest float, since JSON has no Inf.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return math.MaxFloat64
	}
	return v
}

// environment records what the figures were measured on.
func environment() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpu,
	}
}

// since returns the seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// sortedKeys returns m's keys in order, so iteration is deterministic.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
