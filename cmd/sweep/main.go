// Command sweep runs any registered scenario over a parameter grid on a
// parallel worker pool and writes per-cell aggregates as JSON and/or CSV.
//
// Usage:
//
//	sweep -list
//	sweep -scenario twospanner -grid "n=64,128;p=0.1,0.2" -replicates 3 -json out.json
//	sweep -scenario mds -workers 8 -csv mds.csv
//	sweep -scenario twospanner -grid "transport=local,chan4;n=128"   # compare in-process vs sharded
//	sweep -scenario twospanner -timing -csv t.csv       # add wall-clock timing columns
//	sweep -scenario mds -cpuprofile cpu.pprof           # profile the whole sweep
//
// Without -grid the scenario's default cases/grid run. Reports are
// deterministic functions of (-scenario, -grid, -replicates, -seed);
// -workers only changes wall-clock time. The spanner and MDS scenarios
// also honor the "transport" parameter (local, or chanK to shard the run
// across K workers); transports are bit-identical by contract, so a
// transport axis in -grid is a pure wall-clock comparison. -timing
// overlays the
// execution-only "timing" parameter, adding per-round wall-time and
// scheduler-phase-share columns (round_wall_ns_mean/max,
// time_share_step/route/sync) to the report — wall-clock telemetry, so
// reports meant to be byte-reproducible should leave it off.
// -cpuprofile/-memprofile/-exectrace profile the whole sweep process
// with the standard pprof / runtime-trace tooling. The exit status is
// non-zero when any run fails verification or times out.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"distspanner/internal/prof"
	"distspanner/internal/scenario"
	"distspanner/internal/sweep"
)

func main() {
	scenarioFlag := flag.String("scenario", "", "registered scenario name (see -list)")
	gridFlag := flag.String("grid", "", `parameter grid, e.g. "n=64,128;p=0.1,0.2" (empty: scenario defaults)`)
	replicatesFlag := flag.Int("replicates", 0, "seed replicates per cell (0: scenario default)")
	workersFlag := flag.Int("workers", 0, "concurrent runs (0: GOMAXPROCS)")
	seedFlag := flag.Int64("seed", 1, "base seed for deterministic seed derivation")
	timingFlag := flag.Bool("timing", false, "overlay timing=1 on every cell: record per-round wall time and scheduler-phase shares as report columns (wall-clock telemetry; non-deterministic)")
	cpuprofileFlag := flag.String("cpuprofile", "", "write a CPU profile of the whole sweep to this file")
	memprofileFlag := flag.String("memprofile", "", "write an allocation profile (taken at exit) to this file")
	exectraceFlag := flag.String("exectrace", "", "write a runtime execution trace (go tool trace) to this file")
	timeoutFlag := flag.Duration("timeout", 2*time.Minute, "per-run timeout (0: none)")
	jsonFlag := flag.String("json", "", `write the full report as JSON to this path ("-": stdout)`)
	csvFlag := flag.String("csv", "", `write per-cell aggregates as CSV to this path ("-": stdout)`)
	listFlag := flag.Bool("list", false, "list scenarios and graph families, then exit")
	quietFlag := flag.Bool("q", false, "suppress the stderr summary")
	flag.Parse()

	if *listFlag {
		list()
		return
	}
	if *scenarioFlag == "" {
		fmt.Fprintln(os.Stderr, "sweep: -scenario is required (try -list)")
		os.Exit(2)
	}
	sc, ok := scenario.Get(*scenarioFlag)
	if !ok {
		fmt.Fprintf(os.Stderr, "sweep: unknown scenario %q (try -list)\n", *scenarioFlag)
		os.Exit(2)
	}
	var cells []scenario.Params
	if *gridFlag != "" {
		grid, err := scenario.ParseGrid(*gridFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			os.Exit(2)
		}
		cells = grid.Cells()
	}
	if *timingFlag {
		if cells == nil {
			cells = sc.DefaultCells()
		}
		for i := range cells {
			cells[i] = cells[i].Merge(scenario.Params{"timing": "1"})
		}
	}

	stopProfiles, err := prof.Start(*cpuprofileFlag, *memprofileFlag, *exectraceFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(2)
	}

	start := time.Now()
	rep, err := sweep.Execute(sweep.Options{
		Scenario:   sc,
		Cells:      cells,
		Replicates: *replicatesFlag,
		Workers:    *workersFlag,
		BaseSeed:   *seedFlag,
		Timeout:    *timeoutFlag,
	})
	if err != nil {
		stopProfiles()
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(2)
	}
	elapsed := time.Since(start)
	stopProfiles()

	if err := emit(*jsonFlag, rep.WriteJSON); err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(2)
	}
	if err := emit(*csvFlag, rep.WriteCSV); err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(2)
	}
	if !*quietFlag {
		rep.Summary(os.Stderr)
		fmt.Fprintf(os.Stderr, "wall clock: %s\n", elapsed.Round(time.Millisecond))
	}
	if rep.Failed() {
		os.Exit(1)
	}
}

// emit writes one report serialization to path ("" skips, "-" targets
// stdout).
func emit(path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func list() {
	fmt.Println("scenarios:")
	for _, name := range scenario.Names() {
		s, _ := scenario.Get(name)
		fmt.Printf("  %-22s %-10s %s\n", s.Name, s.Model, s.Title)
	}
	fmt.Println("\ngraph families (select with family=<name>):")
	for _, f := range scenario.Families() {
		fmt.Printf("  %-18s %-34s %s\n", f.Name, f.Params, f.Doc)
	}
	fmt.Println("\ndirected: family=rdg (n, p) or any family above with twoway=<frac>")
	fmt.Println("weights:  add whi=<max> (and wlo=<min>) to weight any family")
	fmt.Println("transport: add transport=chanK to shard a spanner or MDS run across K workers;")
	fmt.Println("           transports are bit-identical, so a transport axis compares wall clock only")
	fmt.Println("timing:   add timing=1 (or -timing) for per-round wall-time and scheduler-share")
	fmt.Println("          columns — wall-clock telemetry, excluded from deterministic baselines")
}
