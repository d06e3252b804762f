// Command spanner runs one cell of a registered scenario (`sweep -list`
// shows them) and prints the cell and its metrics. The key=value
// arguments are layered over the scenario's defaults; they go after the
// flags, because Go's flag parser stops at the first non-flag.
//
// Examples:
//
//	spanner                                        # twospanner on its default graph
//	spanner family=clique n=16
//	spanner -algo mds family=cgnp n=50 p=0.1
//	spanner -algo twospanner-congest n=20 p=0.2
//	spanner -algo kortsarz-peleg family=clique n=20
//	spanner -algo mds bandwidth=2                  # fails: dist: bandwidth exceeded
//	spanner -seed 1 -trace run.jsonl family=cgnp n=60 p=0.15
//
// -trace records the run's logical transcript (sends, deliveries,
// wakes, parks, retirements plus the per-round activity curve) to a
// JSONL file and prints its digest; cmd/trace inspects the file. -dot
// writes the graph with the verified spanner highlighted. Both reach
// the run through the scenario layer's observer registry: a scenario
// that runs no transcript (a sequential baseline) or verifies no
// spanner fails the flag and no file is written.
// -cpuprofile/-memprofile/-exectrace write standard Go profiles of the
// whole process. The exit status is 2 on a usage error, a malformed
// parameter value included, and 1 when the run fails, as for cmd/sweep.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"distspanner/internal/dist"
	"distspanner/internal/graph"
	"distspanner/internal/prof"
	"distspanner/internal/scenario"
	"distspanner/internal/sweep"
	"distspanner/internal/trace"
)

func main() {
	var (
		algo       = flag.String("algo", "twospanner", "registered scenario to run (see sweep -list)")
		seed       = flag.Int64("seed", 1, "run seed")
		traceOut   = flag.String("trace", "", "record the run's logical transcript as JSONL to this file (dist-engine scenarios only)")
		dot        = flag.String("dot", "", "write the graph with the verified spanner highlighted as DOT to this file")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile (taken at exit) to this file")
		exectrace  = flag.String("exectrace", "", "write a runtime execution trace (go tool trace) to this file")
	)
	flag.Usage = func() {
		fmt.Fprintln(flag.CommandLine.Output(), "usage: spanner [flags] [key=value ...]")
		flag.PrintDefaults()
	}
	flag.Parse()

	sc, ok := scenario.Get(*algo)
	if !ok {
		exit(2, "unknown scenario %q (see sweep -list)", *algo)
	}
	args, err := scenario.ParseCell(flag.Args())
	if err != nil {
		exit(2, "%v", err)
	}
	cell := sc.Defaults.Merge(args)

	var (
		rec  *trace.Recorder
		dotG *graph.Graph
		dotH *graph.EdgeSet
		obs  scenario.Observer
	)
	if *traceOut != "" {
		obs.Tracer = func(n int) dist.Tracer { rec = trace.NewRecorder(n); return rec }
	}
	if *dot != "" {
		obs.Spanner = func(g *graph.Graph, h *graph.EdgeSet) { dotG, dotH = g, h }
	}
	token, release := scenario.RegisterObserver(&obs)

	stopProfiles, err := prof.Start(*cpuprofile, *memprofile, *exectrace)
	if err != nil {
		exit(2, "%v", err)
	}
	m, err := sweep.Single(sc, cell.Merge(scenario.Params{"obs": token}), *seed, 0, nil)
	stopProfiles()
	release()
	var perr *scenario.ParamError
	if errors.As(err, &perr) {
		exit(2, "%v", err)
	}

	fmt.Printf("%s: %s\ncell: %s seed=%d\n", sc.Name, sc.Title, cell.Key(), *seed)
	for _, k := range m.Names() {
		fmt.Printf("  %-20s %s\n", k, strconv.FormatFloat(m[k], 'f', -1, 64))
	}
	if err != nil {
		exit(1, "%v", err)
	}
	if *traceOut != "" {
		if rec == nil {
			exit(2, "-trace: scenario %s records no transcript", sc.Name)
		}
		meta := trace.Meta{Seed: *seed, Label: sc.Name + " " + cell.Key(), Mode: cell.Str("transport", "local")}
		create(*traceOut, func(w io.Writer) error { return trace.WriteJSONL(w, meta, rec) })
		fmt.Printf("trace: %d events over %d rounds -> %s (digest %s)\n",
			rec.EventCount(), len(rec.Phases()), *traceOut, rec.Digest().Run)
	}
	if *dot != "" {
		if dotH == nil {
			exit(2, "-dot: scenario %s verifies no spanner", sc.Name)
		}
		create(*dot, func(w io.Writer) error { return graph.ToDOT(w, dotG, dotH) })
		fmt.Printf("wrote DOT to %s\n", *dot)
	}
}

// create writes the file at path through write; any error fails the
// command.
func create(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		exit(1, "%v", err)
	}
}

func exit(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "spanner: "+format+"\n", args...)
	os.Exit(code)
}
