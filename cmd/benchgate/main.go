// Command benchgate compares a `go test -bench` text output against a
// committed JSON baseline (the BENCH_*.json files at the repo root) and
// exits non-zero when a yardstick regresses by more than -maxregress
// (default 10%).
//
// Absolute rounds/sec moves with the hardware, so the gate never
// compares raw numbers across machines. Instead it estimates a machine
// scale factor — the median current/baseline ratio across every
// benchmark in the file — and flags only benchmarks whose own ratio
// falls more than -maxregress below that median. A uniform slowdown (a
// slower CI runner) cancels out; one yardstick losing ground relative
// to the rest of the suite does not.
//
// A yardstick may appear on several lines, one per run of `go test
// -count N`; the gate and -update use the median of its samples, so a
// single noisy run can neither fail the gate nor set the baseline.
//
// Usage:
//
//	go test -run '^$' -bench ... -count 3 ./internal/dist | tee bench-dist.txt
//	go run ./cmd/benchgate -baseline BENCH_dist.json bench-dist.txt
//
// Refresh the baseline after an intentional perf change:
//
//	go run ./cmd/benchgate -baseline BENCH_dist.json -update bench-dist.txt
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
)

// metric is the custom metric the yardsticks report; ns/op is dominated
// by per-run setup at -benchtime 1x, so the gate tracks a rate metric
// instead: rounds/sec for the engine suites, req/sec for the service
// suite (-metric selects it).
var metric = "rounds/sec"

// benchLine matches one benchmark result line. The trailing -N
// (GOMAXPROCS suffix) is stripped from the name so baselines are
// comparable across runner core counts.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// parseBench returns, per yardstick in the bench output at path, the
// median of its samples of the named metric.
func parseBench(path, metric string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	metricField := regexp.MustCompile(`(\d+(?:\.\d+)?(?:e[+-]?\d+)?) ` + regexp.QuoteMeta(metric))
	samples := make(map[string][]float64)
	for _, line := range regexp.MustCompile(`\r?\n`).Split(string(data), -1) {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		f := metricField.FindStringSubmatch(m[2])
		if f == nil {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(f[1], "%g", &v); err != nil || v <= 0 {
			continue
		}
		samples[m[1]] = append(samples[m[1]], v)
	}
	out := make(map[string]float64, len(samples))
	for name, xs := range samples {
		out[name] = median(xs)
	}
	return out, nil
}

func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func main() {
	baselinePath := flag.String("baseline", "", "committed BENCH_*.json baseline to compare against (required)")
	update := flag.Bool("update", false, "rewrite the baseline from the bench output instead of gating")
	maxRegress := flag.Float64("maxregress", 0.10, "max allowed regression below the suite median ratio")
	flag.StringVar(&metric, "metric", metric, "custom benchmark metric the gate compares")
	flag.Parse()
	if *baselinePath == "" || flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: benchgate -baseline BENCH_x.json [-update] [-maxregress 0.10] [-metric rounds/sec] bench-output.txt")
		os.Exit(2)
	}
	current, err := parseBench(flag.Arg(0), metric)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	if len(current) == 0 {
		fmt.Fprintf(os.Stderr, "benchgate: no %q results in %s\n", metric, flag.Arg(0))
		os.Exit(2)
	}

	if *update {
		data, err := json.MarshalIndent(current, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*baselinePath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
		fmt.Printf("benchgate: wrote %d baselines to %s\n", len(current), *baselinePath)
		return
	}

	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	baseline := make(map[string]float64)
	if err := json.Unmarshal(data, &baseline); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}

	names := make([]string, 0, len(baseline))
	ratios := make([]float64, 0, len(baseline))
	for name, base := range baseline {
		if cur, ok := current[name]; ok && base > 0 {
			names = append(names, name)
			ratios = append(ratios, cur/base)
		}
	}
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no benchmarks in common with the baseline")
		os.Exit(2)
	}
	sort.Strings(names)
	scale := median(append([]float64(nil), ratios...))

	status := 0
	for _, name := range names {
		ratio := current[name] / baseline[name]
		rel := ratio / scale
		mark := "ok"
		if rel < 1-*maxRegress {
			mark = "REGRESSION"
			status = 1
		}
		fmt.Printf("%-70s %8.1f -> %8.1f  rel %.2f  %s\n",
			name, baseline[name], current[name], rel, mark)
	}
	fmt.Printf("benchgate: %d yardsticks, machine scale %.2fx, tolerance %.0f%%\n",
		len(names), scale, *maxRegress*100)
	if missing := len(baseline) - len(names); missing > 0 {
		fmt.Printf("benchgate: %d baseline entries had no current result (renamed or filtered benchmark?)\n", missing)
	}
	os.Exit(status)
}
