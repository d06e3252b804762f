// Command coord is the distributed runner's coordinator. It runs one
// cell of a scenario that builds a dist-engine program (-algo: the
// 2-spanner scenarios and mds) across TCP-connected cmd/node workers:
// the key=value arguments are layered over the scenario's defaults, so
// the empty cell is the scenario's default cell, and the instance is
// the one cmd/spanner runs for the same cell and seed. coord waits for
// -workers processes to connect, partitions the vertices contiguously
// across them, ships the scenario cell and its graph's fingerprint in
// the setup frame (each worker rebuilds the program from the cell and
// refuses the run if its graph differs), drives the round/quiescence
// protocol, and merges the workers' statistics, outputs, and logical
// transcript. The merged transcript is bit-identical to an in-process
// run of the same program on the step engine — pass -verify to prove
// it in-process, or -trace to write the JSONL transcript for cmd/trace
// -check and digest comparison. Flags go before the key=value
// arguments. An unknown -algo or a malformed cell argument or value
// exits 2; any other failure exits 1.
//
//	coord -listen 127.0.0.1:9131 -workers 2 -algo twospanner -seed 1 \
//	      -trace dist.jsonl -verify family=cgnp n=32 p=0.2
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"slices"
	"strings"
	"time"

	"distspanner/internal/dist"
	"distspanner/internal/dist/wire"
	"distspanner/internal/scenario"
	"distspanner/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("coord: ")
	names := strings.Join(scenario.ProgramNames(), ", ")
	var (
		listen  = flag.String("listen", "127.0.0.1:9131", "address to accept workers on")
		workers = flag.Int("workers", 2, "number of worker processes to wait for")
		timeout = flag.Duration("timeout", 30*time.Second, "how long to wait for workers to connect")

		algo = flag.String("algo", "twospanner", "scenario to run: "+names)
		seed = flag.Int64("seed", 1, "random seed (drives the generator, the engine and any derived inputs)")

		traceOut = flag.String("trace", "", "write the merged logical transcript as JSONL to this file")
		verify   = flag.Bool("verify", false, "re-run in-process and fail unless the distributed transcript matches bit-for-bit")
	)
	flag.Usage = func() {
		fmt.Fprintln(flag.CommandLine.Output(), "usage: coord [flags] [key=value ...]")
		flag.PrintDefaults()
	}
	flag.Parse()

	sc, ok := scenario.Get(*algo)
	if !ok || sc.Program == nil {
		usage(fmt.Errorf("unknown -algo %q (have: %s)", *algo, names))
	}
	args, err := scenario.ParseCell(flag.Args())
	usage(err)
	cell := sc.Defaults.Merge(args)
	prog, cfg, err := scenario.Distributed(sc, cell, *seed)
	var perr *scenario.ParamError
	if errors.As(err, &perr) {
		usage(err)
	}
	fail(err)
	g := prog.Graph
	fmt.Printf("graph: [%s] n=%d m=%d; algo=%s seed=%d workers=%d\n",
		cell.Key(), g.N(), g.M(), *algo, *seed, *workers)

	ln, err := net.Listen("tcp", *listen)
	fail(err)
	fmt.Printf("listening on %s\n", ln.Addr())
	ct, err := wire.AcceptWorkers(ln, *workers, *timeout)
	ln.Close()
	fail(err)

	rec := trace.NewRecorder(g.N())
	cfg.Tracer = rec
	res, err := dist.Coordinate(ct, prog, cfg)
	ct.Close()
	fail(err)

	d := rec.Digest()
	fmt.Printf("distributed run: rounds=%d messages=%d totalBits=%d maxEdgeRoundBits=%d\n",
		res.Stats.Rounds, res.Stats.Messages, res.Stats.TotalBits, res.Stats.MaxEdgeRoundBits)
	fmt.Printf("trace: %d events over %d rounds (digest %s)\n",
		rec.EventCount(), len(rec.Phases()), d.Run)

	if *verify {
		refRec := trace.NewRecorder(g.N())
		refStats, err := dist.RunLocal(prog, dist.Config{Seed: *seed, Tracer: refRec})
		fail(err)
		refOuts := make([][]int, g.N())
		for v := range refOuts {
			refOuts[v] = prog.Output(v)
		}
		refD := refRec.Digest()
		switch {
		case !refD.Equal(d):
			log.Fatalf("verify: digest mismatch: in-process %s, distributed %s", refD.Run, d.Run)
		case *refStats != res.Stats:
			log.Fatalf("verify: stats mismatch:\n  in-process:  %+v\n  distributed: %+v", *refStats, res.Stats)
		case !slices.EqualFunc(refOuts, res.Outputs, slices.Equal[[]int]):
			log.Fatal("verify: merged outputs differ from the in-process run")
		}
		fmt.Println("verify: distributed transcript matches the in-process step engine bit-for-bit")
	}

	if *traceOut != "" {
		out, err := os.Create(*traceOut)
		fail(err)
		fail(trace.WriteJSONL(out, trace.Meta{
			Seed:  *seed,
			Label: fmt.Sprintf("%s [%s] workers=%d", *algo, cell.Key(), *workers),
			Mode:  "tcp",
		}, rec))
		fail(out.Close())
		fmt.Printf("wrote transcript to %s\n", *traceOut)
	}
}

func fail(err error) {
	if err != nil {
		os.Stderr.Write(dist.PanicStack(err))
		log.Fatal(err)
	}
}

// usage reports a bad flag or cell argument on one line and exits 2.
func usage(err error) {
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
}
