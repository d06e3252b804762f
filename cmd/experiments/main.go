// Command experiments regenerates every experiment of "Distributed
// Spanner Approximation" (Censor-Hillel & Dory, PODC 2018): one
// experiment per figure/theorem, each a registered internal/scenario
// entry executed through the internal/sweep engine. EXPERIMENTS.md in the
// repository root is generated from the same registry by -doc.
//
// Usage:
//
//	experiments                      # run everything
//	experiments -exp E6              # run a single experiment
//	experiments -list                # list experiments
//	experiments -doc EXPERIMENTS.md  # regenerate the experiment catalog
//
// The exit status is non-zero when any experiment cell fails its
// verification.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"distspanner/internal/scenario"
	"distspanner/internal/sweep"
)

func main() {
	expFlag := flag.String("exp", "", "run only this experiment id (e.g. E6)")
	listFlag := flag.Bool("list", false, "list experiments and exit")
	docFlag := flag.String("doc", "", `generate the experiment catalog to this path ("-": stdout) and exit`)
	seedFlag := flag.Int64("seed", 0, "base seed for deterministic replicate derivation")
	workersFlag := flag.Int("workers", 0, "concurrent runs per experiment (0: GOMAXPROCS)")
	timeoutFlag := flag.Duration("timeout", 2*time.Minute, "per-run timeout")
	flag.Parse()

	exps := scenario.Experiments()
	if *listFlag {
		for i, s := range exps {
			fmt.Printf("%-4s %s\n", fmt.Sprintf("E%d", i+1), s.Title)
		}
		return
	}
	if *docFlag != "" {
		if err := writeDoc(*docFlag); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(2)
		}
		return
	}

	failed := false
	matched := 0
	for i, s := range exps {
		id := fmt.Sprintf("E%d", i+1)
		if *expFlag != "" && !strings.EqualFold(*expFlag, id) && !strings.EqualFold(*expFlag, s.Name) {
			continue
		}
		matched++
		fmt.Printf("\n=== %s: %s ===\n", id, s.Title)
		rep, err := sweep.Execute(sweep.Options{
			Scenario: s,
			Workers:  *workersFlag,
			BaseSeed: *seedFlag,
			Timeout:  *timeoutFlag,
		})
		if err != nil {
			fmt.Printf("FAILED: %v\n", err)
			failed = true
			continue
		}
		printReport(rep)
		if rep.Failed() {
			fmt.Printf("FAILED: %d of %d runs failed verification\n", rep.Failures, len(rep.Runs))
			failed = true
		}
	}
	if *expFlag != "" && matched == 0 {
		fmt.Fprintf(os.Stderr, "experiments: no experiment matches %q (try -list)\n", *expFlag)
		os.Exit(2)
	}
	if failed {
		os.Exit(1)
	}
}

// printReport renders one experiment's per-cell aggregates: the varying
// parameters, then each metric as mean (or mean[min..max] when replicates
// disagree).
func printReport(rep *sweep.Report) {
	varying := varyingParams(rep)
	for _, cell := range rep.Cells {
		label := cellLabel(cell.Params, varying)
		var parts []string
		names := make([]string, 0, len(cell.Metrics))
		for name := range cell.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			parts = append(parts, name+"="+formatAgg(cell.Metrics[name]))
		}
		fmt.Printf("  [%s] %s\n", label, strings.Join(parts, " "))
		for _, e := range cell.Errors {
			fmt.Printf("  [%s] ERROR: %s\n", label, e)
		}
	}
	if rep.Replicates > 1 {
		fmt.Printf("  (%d replicates per cell; brackets are [min..max] across seeds)\n", rep.Replicates)
	}
}

// varyingParams returns the parameter names that differ between cells —
// constants clutter every row and are omitted from labels.
func varyingParams(rep *sweep.Report) map[string]bool {
	varying := map[string]bool{}
	for _, name := range rep.ParamNames() {
		first, firstSet := "", false
		for _, cell := range rep.Cells {
			v, ok := cell.Params[name]
			if !firstSet {
				first, firstSet = v, true
				if !ok {
					varying[name] = true
				}
				continue
			}
			if !ok || v != first {
				varying[name] = true
				break
			}
		}
	}
	return varying
}

func cellLabel(p scenario.Params, varying map[string]bool) string {
	var parts []string
	for _, k := range p.Keys() {
		if varying[k] {
			parts = append(parts, k+"="+p[k])
		}
	}
	if len(parts) == 0 {
		return p.Key()
	}
	return strings.Join(parts, " ")
}

func formatAgg(a sweep.Agg) string {
	if a.Count <= 1 || a.Min == a.Max {
		return fmt.Sprintf("%.4g", a.Mean)
	}
	return fmt.Sprintf("%.4g[%.4g..%.4g]", a.Mean, a.Min, a.Max)
}

// writeDoc generates the experiment catalog (EXPERIMENTS.md) from the
// scenario registry. The document is rendered into memory and written in
// one error-checked operation, so a failed write cannot leave a silently
// truncated catalog behind an exit status of 0.
func writeDoc(path string) error {
	var buf bytes.Buffer
	renderDoc(&buf)
	if path == "-" {
		_, err := os.Stdout.Write(buf.Bytes())
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func renderDoc(w io.Writer) {
	fmt.Fprintln(w, "# EXPERIMENTS")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "<!-- Generated by `go run ./cmd/experiments -doc EXPERIMENTS.md`. Do not edit by hand. -->")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "One experiment per figure/theorem of *Distributed Spanner Approximation*")
	fmt.Fprintln(w, "(Censor-Hillel & Dory, PODC 2018). Each experiment is a scenario in the")
	fmt.Fprintln(w, "`internal/scenario` registry; `go run ./cmd/experiments` replays them all")
	fmt.Fprintln(w, "through the `internal/sweep` engine and exits non-zero on any verification")
	fmt.Fprintln(w, "failure. Any experiment can also be swept over custom grids with")
	fmt.Fprintln(w, "`go run ./cmd/sweep -scenario <name>`.")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Every simulated scenario reports the shared engine metrics: `rounds`,")
	fmt.Fprintln(w, "`messages`, `total_bits`, `max_msg_bits`, `max_edge_round_bits`, and the")
	fmt.Fprintln(w, "activity columns `active_steps` (total vertex steps over all rounds — an")
	fmt.Fprintln(w, "all-spinning protocol measures rounds × n), `parked_steps` (total parked")
	fmt.Fprintln(w, "vertex-rounds), `peak_active`, and the per-round means `mean_active` /")
	fmt.Fprintln(w, "`mean_parked`. The activity columns profile the activity-aware algorithm")
	fmt.Fprintln(w, "ports (see ALGORITHMS.md): how many vertices each round actually touches,")
	fmt.Fprintln(w, "and how many sit parked, costing the step engine nothing.")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "With the execution-only `timing=1` parameter (or `sweep -timing`), every")
	fmt.Fprintln(w, "simulated scenario additionally reports wall-clock timing columns:")
	fmt.Fprintln(w, "`round_wall_ns_mean` / `round_wall_ns_max` (per-round wall time) and the")
	fmt.Fprintln(w, "scheduler-phase shares `time_share_step` (protocol compute),")
	fmt.Fprintln(w, "`time_share_route` (message delivery), `time_share_sync` (engine")
	fmt.Fprintln(w, "hand-off), each a fraction of total wall time. These are telemetry, not")
	fmt.Fprintln(w, "part of the deterministic report surface — runs carrying them are not")
	fmt.Fprintln(w, "byte-reproducible, which is why they are off by default.")
	fmt.Fprintln(w)
	for i, s := range scenario.Experiments() {
		fmt.Fprintf(w, "## E%d · %s\n\n", i+1, s.Title)
		fmt.Fprintf(w, "*Scenario `%s` · model %s · %d default cell(s) × %d replicate(s)*\n\n",
			s.Name, s.Model, len(s.DefaultCells()), s.EffectiveReplicates())
		fmt.Fprintln(w, s.Doc)
		fmt.Fprintln(w)
		fmt.Fprintln(w, "Default cells:")
		fmt.Fprintln(w)
		for _, c := range s.DefaultCells() {
			key := c.Key()
			if key == "" {
				key = "(defaults)"
			}
			fmt.Fprintf(w, "- `%s`\n", key)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "## Sweepable scenarios")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Beyond the paper experiments, these scenarios are designed for grid")
	fmt.Fprintln(w, "sweeps (`cmd/sweep -scenario <name> -grid \"...\"`):")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| scenario | model | description |")
	fmt.Fprintln(w, "|---|---|---|")
	isExp := map[string]bool{}
	for _, s := range scenario.Experiments() {
		isExp[s.Name] = true
	}
	for _, name := range scenario.Names() {
		s, _ := scenario.Get(name)
		if isExp[s.Name] {
			continue
		}
		fmt.Fprintf(w, "| `%s` | %s | %s |\n", s.Name, s.Model, s.Title)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "## Graph families")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Selected with `family=<name>`; add `whi=<max>` (and `wlo=<min>`) to layer")
	fmt.Fprintln(w, "random weights, or `twoway=<frac>` to orient an undirected family for the")
	fmt.Fprintln(w, "directed scenarios.")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| family | parameters | description |")
	fmt.Fprintln(w, "|---|---|---|")
	for _, f := range scenario.Families() {
		fmt.Fprintf(w, "| `%s` | `%s` | %s |\n", f.Name, f.Params, f.Doc)
	}
}
