// Command spanner generates a graph from a named family and runs one of
// the library's spanner / dominating-set algorithms on it, printing the
// solution size, validity, and the distributed execution statistics.
//
// Examples:
//
//	spanner -family gnp -n 60 -p 0.15 -algo 2spanner
//	spanner -family clique -n 20 -algo kp
//	spanner -family gnp -n 40 -p 0.2 -algo mds -seed 7
//	spanner -family bipartite -n 16 -algo eps -eps 0.5 -k 2
//	spanner -family gnp -n 30 -p 0.3 -algo directed
//	spanner -family gnp -n 60 -algo 2spanner -trace run.jsonl
//
// -trace records the distributed run's logical transcript (sends,
// deliveries, wakes, parks, retirements plus the per-round activity
// curve) to a JSONL file and prints its digest; cmd/trace inspects the
// file. -cpuprofile/-memprofile/-exectrace write standard Go profiles
// of the whole process. Both apply only to the simulated (dist-engine)
// algorithms; sequential baselines run no transcript.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"distspanner/internal/baseline"
	"distspanner/internal/core"
	"distspanner/internal/gen"
	"distspanner/internal/graph"
	"distspanner/internal/localmodel"
	"distspanner/internal/mds"
	"distspanner/internal/prof"
	"distspanner/internal/span"
	"distspanner/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spanner: ")
	var (
		family = flag.String("family", "gnp", "graph family: gnp, clique, bipartite, hypercube, grid, cycle, path, star, planted")
		n      = flag.Int("n", 40, "vertex count (side length for grid, dimension for hypercube)")
		p      = flag.Float64("p", 0.2, "edge probability for gnp/planted")
		algo   = flag.String("algo", "2spanner", "algorithm: 2spanner, congest, directed, cs, mds, kp, greedy, bs, eps, trivial")
		seed   = flag.Int64("seed", 1, "random seed")
		k      = flag.Int("k", 2, "stretch (bs: builds (2k-1)-spanner; eps: k-spanner)")
		eps    = flag.Float64("eps", 0.5, "epsilon for -algo eps")
		wmax   = flag.Float64("wmax", 0, "assign random weights in [1, wmax] when > 1")
		dot    = flag.String("dot", "", "write the graph (with the solution highlighted) as DOT to this file")

		traceOut   = flag.String("trace", "", "record the distributed run's logical transcript as JSONL to this file (dist-engine algorithms only)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile (taken at exit) to this file")
		exectrace  = flag.String("exectrace", "", "write a runtime execution trace (go tool trace) to this file")
	)
	flag.Parse()

	stopProfiles, err := prof.Start(*cpuprofile, *memprofile, *exectrace)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer stopProfiles()

	g := buildGraph(*family, *n, *p, *seed)
	if *wmax > 1 {
		gen.RandomWeights(g, 1, *wmax, *seed)
	}
	fmt.Printf("graph: family=%s n=%d m=%d maxΔ=%d weighted=%v\n",
		*family, g.N(), g.M(), g.MaxDegree(), g.Weighted())

	var rec *trace.Recorder
	if *traceOut != "" {
		rec = trace.NewRecorder(g.N())
	}
	opts := core.Options{Seed: *seed}
	if rec != nil {
		opts.Tracer = rec
	}

	switch *algo {
	case "2spanner":
		res, err := core.TwoSpanner(g, opts)
		fail(err)
		printSpanner(g, res, 2)
		writeDOT(*dot, g, res.Spanner)
	case "congest":
		res, err := core.TwoSpannerCongest(g, opts)
		fail(err)
		fmt.Printf("CONGEST 2-spanner: %d of %d edges, valid=%v, subrounds/logical=%d, budget=%d bits\n",
			res.Spanner.Len(), g.M(), span.IsKSpanner(g, res.Spanner, 2),
			res.Subrounds, res.Bandwidth)
		printStats(&res.Result)
		writeDOT(*dot, g, res.Spanner)
	case "directed":
		d := gen.OrientRandomly(g, 0.3, *seed)
		res, err := core.DirectedTwoSpanner(d, opts)
		fail(err)
		fmt.Printf("directed 2-spanner: %d of %d edges, valid=%v\n",
			res.Spanner.Len(), d.M(), span.IsDirectedKSpanner(d, res.Spanner, 2))
		printStats(res)
	case "cs":
		clients, servers := gen.ClientServerSplit(g, 0.5, 0.8, *seed)
		res, err := core.ClientServerTwoSpanner(g, clients, servers, opts)
		fail(err)
		fmt.Printf("client-server 2-spanner: %d edges for %d clients, valid=%v\n",
			res.Spanner.Len(), clients.Len(),
			span.ClientServerValid(g, clients, servers, res.Spanner, 2))
		printStats(res)
	case "mds":
		mopts := mds.Options{Seed: *seed}
		if rec != nil {
			mopts.Tracer = rec
		}
		res, err := mds.Run(g, mopts)
		fail(err)
		fmt.Printf("dominating set: %d vertices, rounds=%d iterations=%d maxEdgeRoundBits=%d\n",
			len(res.DominatingSet), res.Stats.Rounds, res.Iterations, res.Stats.MaxEdgeRoundBits)
	case "kp":
		h := baseline.KortsarzPeleg(g)
		fmt.Printf("Kortsarz-Peleg greedy: %d of %d edges (cost %.2f), valid=%v\n",
			h.Len(), g.M(), span.Cost(g, h), span.IsKSpanner(g, h, 2))
		writeDOT(*dot, g, h)
	case "greedy":
		h := baseline.GreedyKSpanner(g, *k)
		fmt.Printf("classic greedy %d-spanner: %d of %d edges, valid=%v\n",
			*k, h.Len(), g.M(), span.IsKSpanner(g, h, *k))
		writeDOT(*dot, g, h)
	case "bs":
		res := baseline.BaswanaSen(g, *k, *seed)
		fmt.Printf("Baswana-Sen: (2k-1)=%d-spanner with %d of %d edges in %d rounds, valid=%v\n",
			res.Stretch, res.Spanner.Len(), g.M(), res.Rounds,
			span.IsKSpanner(g, res.Spanner, res.Stretch))
	case "eps":
		res, err := localmodel.EpsilonSpanner(g, localmodel.Options{K: *k, Eps: *eps, Seed: *seed})
		fail(err)
		fmt.Printf("(1+ε) %d-spanner: cost %.2f, colors=%d radius=%d estRounds=%d, valid=%v\n",
			*k, res.Cost, res.Colors, res.Radius, res.EstimatedRounds,
			span.IsKSpanner(g, res.Spanner, *k))
	case "ft":
		h := baseline.FaultTolerant2Spanner(g, *k)
		fmt.Printf("f=%d fault-tolerant 2-spanner: %d of %d edges\n", *k, h.Len(), g.M())
		writeDOT(*dot, g, h)
	case "augment":
		// Initial set: a spanning backbone (BFS tree edges via greedy
		// 1-per-vertex attachment) to augment.
		initial := graph.NewEdgeSet(g.M())
		seen := make([]bool, g.N())
		seen[0] = true
		for changed := true; changed; {
			changed = false
			for i := 0; i < g.M(); i++ {
				e := g.Edge(i)
				if seen[e.U] != seen[e.V] {
					initial.Add(i)
					seen[e.U], seen[e.V] = true, true
					changed = true
				}
			}
		}
		res, err := core.TwoSpannerAugment(g, initial, opts)
		fail(err)
		fmt.Printf("augmentation: %d free backbone edges + %.0f additions => valid=%v\n",
			initial.Len(), res.Cost, span.IsKSpanner(g, res.Spanner, 2))
		writeDOT(*dot, g, res.Spanner)
	case "trivial":
		h := baseline.TrivialSpanner(g)
		fmt.Printf("trivial spanner: all %d edges (0 rounds, n-approximation)\n", h.Len())
	default:
		log.Printf("unknown algorithm %q", *algo)
		flag.Usage()
		os.Exit(2)
	}

	if rec != nil {
		writeTrace(*traceOut, rec, trace.Meta{
			Seed:  *seed,
			Label: fmt.Sprintf("%s %s n=%d", *algo, *family, g.N()),
			Mode:  "local",
		})
	}
}

// writeTrace serializes the recorded transcript and prints its digest.
// A recorder that saw no events means the chosen algorithm never ran
// the dist engine (a sequential baseline) — flag that instead of
// writing an empty file silently.
func writeTrace(path string, rec *trace.Recorder, meta trace.Meta) {
	if rec.EventCount() == 0 && len(rec.Phases()) == 0 {
		log.Printf("warning: -trace set but the algorithm recorded no transcript (sequential baseline?)")
	}
	f, err := os.Create(path)
	fail(err)
	defer f.Close()
	fail(trace.WriteJSONL(f, meta, rec))
	d := rec.Digest()
	fmt.Printf("trace: %d events over %d rounds -> %s (digest %s)\n",
		rec.EventCount(), len(rec.Phases()), path, d.Run)
}

func buildGraph(family string, n int, p float64, seed int64) *graph.Graph {
	switch family {
	case "gnp":
		return gen.ConnectedGNP(n, p, seed)
	case "clique":
		return gen.Clique(n)
	case "bipartite":
		return gen.CompleteBipartite(n/2, n-n/2)
	case "hypercube":
		return gen.Hypercube(n)
	case "grid":
		return gen.Grid(n, n)
	case "cycle":
		return gen.Cycle(n)
	case "path":
		return gen.Path(n)
	case "star":
		return gen.Star(n)
	case "planted":
		return gen.PlantedStars(n/8+1, 7, p, seed)
	default:
		log.Fatalf("unknown family %q", family)
		return nil
	}
}

func printSpanner(g *graph.Graph, res *core.Result, k int) {
	fmt.Printf("2-spanner: %d of %d edges (cost %.2f), valid=%v\n",
		res.Spanner.Len(), g.M(), res.Cost, span.IsKSpanner(g, res.Spanner, k))
	printStats(res)
}

func printStats(res *core.Result) {
	fmt.Printf("distributed run: rounds=%d iterations=%d messages=%d totalBits=%d maxEdgeRoundBits=%d fallbacks=%d\n",
		res.Stats.Rounds, res.Iterations, res.Stats.Messages,
		res.Stats.TotalBits, res.Stats.MaxEdgeRoundBits, res.Fallbacks)
}

func fail(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func writeDOT(path string, g *graph.Graph, highlight *graph.EdgeSet) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	fail(err)
	defer f.Close()
	fail(graph.ToDOT(f, g, highlight))
	fmt.Printf("wrote DOT to %s\n", path)
}
