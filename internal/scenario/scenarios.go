package scenario

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"distspanner/internal/baseline"
	"distspanner/internal/core"
	"distspanner/internal/dist"
	"distspanner/internal/exact"
	"distspanner/internal/gen"
	"distspanner/internal/graph"
	"distspanner/internal/localmodel"
	"distspanner/internal/mds"
	"distspanner/internal/span"
	"distspanner/internal/trace"
)

// graphMetrics are the instance-shape observations shared by every
// graph-algorithm scenario.
func graphMetrics(g *graph.Graph, m Metrics) Metrics {
	m["n"] = float64(g.N())
	m["m"] = float64(g.M())
	m["max_degree"] = float64(g.MaxDegree())
	return m
}

// statsMetrics are the engine observations shared by every simulated run.
// The activity columns expose the per-run activity profile: active_steps
// is the total number of vertex steps over all rounds (an all-spinning
// protocol has active_steps ≈ rounds × n), parked_steps the total parked
// vertex-rounds, and mean_active / mean_parked their per-round means —
// the quantities the activity-aware algorithm ports shrink.
func statsMetrics(s dist.Stats, m Metrics) Metrics {
	m["rounds"] = float64(s.Rounds)
	m["messages"] = float64(s.Messages)
	m["total_bits"] = float64(s.TotalBits)
	m["max_msg_bits"] = float64(s.MaxMessageBits)
	m["max_edge_round_bits"] = float64(s.MaxEdgeRoundBits)
	m["active_steps"] = float64(s.ActiveSteps)
	m["parked_steps"] = float64(s.ParkedSteps)
	m["peak_active"] = float64(s.PeakActive)
	if s.Rounds > 0 {
		m["mean_active"] = float64(s.ActiveSteps) / float64(s.Rounds)
		m["mean_parked"] = float64(s.ParkedSteps) / float64(s.Rounds)
	}
	return m
}

// spannerReference computes the reference cost the approximation ratio is
// reported against, selected by the "ref" parameter: "lb" (the n-1 /
// weight lower bound; cheap, always sound), "kp" (sequential
// Kortsarz–Peleg), "greedy" (sequential greedy k-spanner), or "exact"
// (branch-and-bound optimum; small instances only).
func spannerReference(g *graph.Graph, ref string, k int) (float64, error) {
	switch ref {
	case "", "lb":
		return float64(span.SpannerOPTLowerBound(g)), nil
	case "kp":
		return span.Cost(g, baseline.KortsarzPeleg(g)), nil
	case "greedy":
		return span.Cost(g, baseline.GreedyKSpanner(g, k)), nil
	case "exact":
		_, opt, err := exact.MinSpanner(g, exact.SpannerOptions{K: k})
		return opt, err
	default:
		return 0, fmt.Errorf("scenario: unknown ref %q (want lb, kp, greedy, exact)", ref)
	}
}

// verifySpanner folds validity and stretch extraction into metrics in a
// single pass over the edges, returning an error (the sweep-level failure
// signal) when H is not a k-spanner, and hands a verified H to the run's
// observer. Stretch capped at k reports Max < 0 exactly when some edge's
// endpoints are more than k hops apart in H, which for k >= 1 (every
// caller) means H is not a k-spanner.
func verifySpanner(p Params, g *graph.Graph, H *graph.EdgeSet, k int, m Metrics) error {
	st := span.Stretch(g, H, k)
	if st.Max < 0 {
		m["valid"] = 0
		return fmt.Errorf("output is not a %d-spanner", k)
	}
	m["valid"] = 1
	m["stretch_max"] = float64(st.Max)
	m["stretch_mean"] = st.Mean
	if o := observer(p); o != nil && o.Spanner != nil {
		o.Spanner(g, H)
	}
	return nil
}

// transportShards parses the shared execution-only "transport"
// parameter: "local" (the default) runs the dist engine in-process;
// "chanK" (e.g. "chan4") runs the protocol distributed across K shard
// workers over the in-process channel transport (dist.Config.Shards).
// The parameter selects how a run executes, not what instance it runs
// on: results are transport-independent by the transport conformance
// contract, and the parameter is excluded from InstanceKey. Any other
// value is an error, which the scenario's Run returns.
func transportShards(p Params) (int, error) {
	t := p.Str("transport", "local")
	if t == "local" {
		return 0, nil
	}
	if rest, ok := strings.CutPrefix(t, "chan"); ok {
		if k, err := strconv.Atoi(rest); err == nil && k > 0 {
			return k, nil
		}
	}
	return 0, fmt.Errorf("scenario: unknown transport %q (want local or chanK)", t)
}

// coreOptions builds the shared core options for a run on an n-vertex
// instance: ablationOptions with the hooks runHooks resolves installed,
// plus the run's timing recorder (nil unless "timing" is set); the
// caller folds it into the metrics with timingMetrics after the run. It
// fails on a malformed "transport" and on a hook conflict.
func coreOptions(p Params, n int, seed int64, cancel <-chan struct{}) (opts core.Options, tim *trace.TimingRecorder, err error) {
	shards, err := transportShards(p)
	if err != nil {
		return opts, nil, err
	}
	onRound, tr, tim, err := runHooks(p, n)
	if err != nil {
		return opts, nil, err
	}
	opts = ablationOptions(p, seed)
	opts.Shards, opts.Cancel, opts.RoundHook, opts.Tracer = shards, cancel, onRound, tr
	return opts, tim, nil
}

// ablationOptions reads the 2-spanner's ablation knobs (votden, fresh,
// noround): the options that decide what a run computes, which a
// scenario's Run and Program share.
func ablationOptions(p Params, seed int64) core.Options {
	return core.Options{
		Seed:            seed,
		VoteDenominator: p.Int("votden", 0),
		FreshStars:      p.Bool("fresh", false),
		NoRounding:      p.Bool("noround", false),
	}
}

// csSplit derives a client-server cell's client and server edge sets
// from g (params pc, ps).
func csSplit(p Params, g *graph.Graph, seed int64) (clients, servers *graph.EdgeSet) {
	return gen.ClientServerSplit(g, p.Float("pc", 0.6), p.Float("ps", 0.7), instanceSeed(p, seed)+0xc5)
}

// runTwoSpanner is the Run of twospanner (weighted false) and
// twospanner-weighted: one protocol, plain or weighted by the cell's
// graph, verified and priced against the chosen reference. The plain
// scenario also fails a run with a Claim 4.4 fallback and reports the
// O(log m/n) bound; the weighted one reports the O(log Δ) bound.
func runTwoSpanner(weighted bool) func(p Params, seed int64, cancel <-chan struct{}) (Metrics, error) {
	return func(p Params, seed int64, cancel <-chan struct{}) (Metrics, error) {
		g, err := GraphSpec{}.Build(p, seed)
		if err != nil {
			return nil, err
		}
		opts, tim, err := coreOptions(p, g.N(), seed, cancel)
		if err != nil {
			return nil, err
		}
		res, err := core.TwoSpanner(g, opts)
		if err != nil {
			return nil, err
		}
		m := graphMetrics(g, Metrics{})
		statsMetrics(res.Stats, m)
		timingMetrics(tim, m)
		m["size"] = float64(res.Spanner.Len())
		m["cost"] = res.Cost
		m["iterations"] = float64(res.Iterations)
		ref := "lb"
		if weighted {
			ref = "kp"
			m["log_delta_bound"] = math.Log2(float64(g.MaxDegree())) + 1
		} else {
			m["fallbacks"] = float64(res.Fallbacks)
			m["log_bound"] = math.Log2(math.Max(2, float64(g.M())/float64(g.N()))) + 1
		}
		if err := verifySpanner(p, g, res.Spanner, 2, m); err != nil {
			return m, err
		}
		if !weighted && res.Fallbacks != 0 {
			return m, fmt.Errorf("Claim 4.4 fallback taken %d times", res.Fallbacks)
		}
		refCost, err := spannerReference(g, p.Str("ref", ref), 2)
		if err != nil {
			return m, err
		}
		m["ref_cost"] = refCost
		if refCost > 0 {
			m["ratio"] = res.Cost / refCost
		}
		return m, nil
	}
}

// twoSpannerProgram is the Program of the twospanner and
// twospanner-weighted scenarios: the plain or weighted protocol, by
// whether the cell's graph is weighted.
func twoSpannerProgram(p Params, seed int64) (dist.ShardProgram, error) {
	g, err := GraphSpec{}.Build(p, seed)
	if err != nil {
		return dist.ShardProgram{}, err
	}
	return core.TwoSpannerProgram(g, ablationOptions(p, seed)), nil
}

// runHooks resolves what a simulated run on an n-vertex instance
// installs on the engine: the observer's round hook and at most one
// tracer, the observer's or the timing recorder. The shared
// execution-only "timing" parameter makes the run record its wall-clock
// channel (per-round wall time and scheduler-phase split) through a
// trace.TimingRecorder, returned as tim for timingMetrics. Like
// "transport", it selects how a run executes, not what instance it runs
// on: it is excluded from InstanceKey, and the timing columns are
// nondeterministic wall-clock telemetry — reports meant to be
// byte-reproducible should leave it off (the default).
func runHooks(p Params, n int) (onRound func(dist.RoundActivity), tr dist.Tracer, tim *trace.TimingRecorder, err error) {
	var o Observer
	if obs := observer(p); obs != nil {
		o = *obs
	}
	timing := p.Bool("timing", false)
	switch {
	case timing && o.Tracer != nil:
		return nil, nil, nil, errors.New("scenario: timing=1 and an observer tracer cannot share a run")
	case timing:
		tim = &trace.TimingRecorder{}
		return o.OnRound, tim, tim, nil
	case o.Tracer != nil:
		return o.OnRound, o.Tracer(n), nil, nil
	}
	return o.OnRound, nil, nil, nil
}

// timingMetrics folds a run's recorded timing channel into the metrics:
// round_wall_ns_mean / round_wall_ns_max (per-round wall time) and the
// time_share_{step,route,sync} scheduler-phase fractions. A nil recorder
// (timing off) adds nothing, keeping default reports wall-clock-free.
func timingMetrics(tr *trace.TimingRecorder, m Metrics) Metrics {
	if tr == nil {
		return m
	}
	s := trace.SummarizeTimings(tr.Timings())
	m["round_wall_ns_mean"] = s.WallMeanNs
	m["round_wall_ns_max"] = float64(s.WallMaxNs)
	m["time_share_step"] = s.StepShare
	m["time_share_route"] = s.RouteShare
	m["time_share_sync"] = s.SyncShare
	return m
}

func init() {
	Register(&Scenario{
		Name:  "twospanner",
		Title: "Theorem 1.3 distributed minimum 2-spanner (LOCAL)",
		Doc: "Runs the paper's core distributed 2-spanner algorithm on any graph family, " +
			"verifies the output is a 2-spanner with zero Claim 4.4 fallbacks, and reports " +
			"size, cost, approximation ratio against the chosen reference (param ref: lb, kp, " +
			"greedy, exact), iterations, rounds, and metered bits. Paper guarantee: ratio " +
			"O(log m/n) always, O(log n · log Δ) rounds w.h.p.",
		Model:      "LOCAL",
		Defaults:   Params{"family": "cgnp", "n": "48", "p": "0.15", "ref": "lb"},
		Grid:       Grid{"n": {"32", "64"}, "p": {"0.1", "0.2"}},
		Replicates: 3,
		Run:        runTwoSpanner(false),
		Program:    twoSpannerProgram,
	})

	Register(&Scenario{
		Name:  "twospanner-congest",
		Title: "Section 1.3 CONGEST compilation of the 2-spanner algorithm",
		Doc: "Runs the CONGEST variant (messages fragmented into O(log n)-bit chunks, " +
			"bandwidth enforced by the engine) and reports the Θ(Δ) subround overhead " +
			"alongside the LOCAL metrics. A bandwidth violation aborts the run, so CONGEST " +
			"legality is a checked property of every cell.",
		Model:      "CONGEST",
		Defaults:   Params{"family": "cgnp", "n": "24", "p": "0.25"},
		Grid:       Grid{"n": {"16", "24"}},
		Replicates: 3,
		Run: func(p Params, seed int64, cancel <-chan struct{}) (Metrics, error) {
			g, err := GraphSpec{}.Build(p, seed)
			if err != nil {
				return nil, err
			}
			opts, tim, err := coreOptions(p, g.N(), seed, cancel)
			if err != nil {
				return nil, err
			}
			res, err := core.TwoSpannerCongest(g, opts)
			if err != nil {
				return nil, err
			}
			m := graphMetrics(g, Metrics{})
			statsMetrics(res.Stats, m)
			timingMetrics(tim, m)
			m["size"] = float64(res.Spanner.Len())
			m["iterations"] = float64(res.Iterations)
			m["subrounds"] = float64(res.Subrounds)
			m["bandwidth"] = float64(res.Bandwidth)
			m["congest_ok"] = boolMetric(res.Stats.CongestCompatible(res.Bandwidth))
			if err := verifySpanner(p, g, res.Spanner, 2, m); err != nil {
				return m, err
			}
			if !res.Stats.CongestCompatible(res.Bandwidth) {
				return m, fmt.Errorf("bandwidth exceeded: %d > %d", res.Stats.MaxEdgeRoundBits, res.Bandwidth)
			}
			return m, nil
		},
		Program: func(p Params, seed int64) (dist.ShardProgram, error) {
			g, err := GraphSpec{}.Build(p, seed)
			if err != nil {
				return dist.ShardProgram{}, err
			}
			return core.TwoSpannerCongestProgram(g, ablationOptions(p, seed))
		},
	})

	Register(&Scenario{
		Name:  "twospanner-directed",
		Title: "Theorem 4.9 directed 2-spanner",
		Doc: "Runs the directed variant on a random digraph (family rdg: n, p) or any " +
			"undirected family oriented at random (family=<name>, twoway=<frac>), verifying " +
			"the directed 2-spanner property. Paper guarantee: same O(log m/n) ratio and " +
			"O(log n · log Δ) rounds as the undirected algorithm.",
		Model:      "LOCAL",
		Defaults:   Params{"family": "rdg", "n": "24", "p": "0.2"},
		Grid:       Grid{"n": {"16", "24"}, "p": {"0.15", "0.25"}},
		Replicates: 3,
		Run: func(p Params, seed int64, cancel <-chan struct{}) (Metrics, error) {
			d, err := GraphSpec{}.BuildDigraph(p, seed)
			if err != nil {
				return nil, err
			}
			opts, tim, err := coreOptions(p, d.N(), seed, cancel)
			if err != nil {
				return nil, err
			}
			res, err := core.DirectedTwoSpanner(d, opts)
			if err != nil {
				return nil, err
			}
			m := Metrics{"n": float64(d.N()), "m": float64(d.M())}
			statsMetrics(res.Stats, m)
			timingMetrics(tim, m)
			m["size"] = float64(res.Spanner.Len())
			m["iterations"] = float64(res.Iterations)
			if !span.IsDirectedKSpanner(d, res.Spanner, 2) {
				m["valid"] = 0
				return m, fmt.Errorf("output is not a directed 2-spanner")
			}
			m["valid"] = 1
			return m, nil
		},
		Program: func(p Params, seed int64) (dist.ShardProgram, error) {
			d, err := GraphSpec{}.BuildDigraph(p, seed)
			if err != nil {
				return dist.ShardProgram{}, err
			}
			return core.DirectedTwoSpannerProgram(d, ablationOptions(p, seed)), nil
		},
	})

	Register(&Scenario{
		Name:  "twospanner-weighted",
		Title: "Theorem 4.12 weighted 2-spanner",
		Doc: "Runs the weighted algorithm on a weighted family (wgeom, or any family with " +
			"whi/wlo weight layering) and reports cost against the reference plus the " +
			"O(log Δ) bound. Paper guarantee: ratio O(log Δ), rounds O(log n · log(ΔW)).",
		Model:      "LOCAL",
		Defaults:   Params{"family": "cgnp", "n": "30", "p": "0.25", "whi": "16", "ref": "kp"},
		Grid:       Grid{"whi": {"2", "16", "128"}},
		Replicates: 3,
		Run:        runTwoSpanner(true),
		Program:    twoSpannerProgram,
	})

	Register(&Scenario{
		Name:  "twospanner-cs",
		Title: "Theorem 4.15 client-server 2-spanner",
		Doc: "Splits the edges into client and server sets (params pc, ps), runs the " +
			"client-server algorithm, and checks every coverable client edge is spanned by " +
			"server edges. Paper guarantee: ratio O(min{log(|C|/|V(C)|), log Δ_S}).",
		Model:      "LOCAL",
		Defaults:   Params{"family": "cgnp", "n": "30", "p": "0.25", "pc": "0.6", "ps": "0.7"},
		Grid:       Grid{"pc": {"0.3", "0.6", "0.9"}},
		Replicates: 3,
		Run: func(p Params, seed int64, cancel <-chan struct{}) (Metrics, error) {
			g, err := GraphSpec{}.Build(p, seed)
			if err != nil {
				return nil, err
			}
			clients, servers := csSplit(p, g, seed)
			opts, tim, err := coreOptions(p, g.N(), seed, cancel)
			if err != nil {
				return nil, err
			}
			res, err := core.ClientServerTwoSpanner(g, clients, servers, opts)
			if err != nil {
				return nil, err
			}
			m := graphMetrics(g, Metrics{})
			statsMetrics(res.Stats, m)
			timingMetrics(tim, m)
			m["clients"] = float64(clients.Len())
			m["servers"] = float64(servers.Len())
			m["client_vertices"] = float64(span.ClientVertexCount(g, clients))
			m["size"] = float64(res.Spanner.Len())
			m["opt_lb"] = span.ClientServerOPTLowerBound(g, clients)
			if !span.ClientServerValid(g, clients, servers, res.Spanner, 2) {
				m["valid"] = 0
				return m, fmt.Errorf("client-server solution invalid")
			}
			m["valid"] = 1
			return m, nil
		},
		Program: func(p Params, seed int64) (dist.ShardProgram, error) {
			g, err := GraphSpec{}.Build(p, seed)
			if err != nil {
				return dist.ShardProgram{}, err
			}
			clients, servers := csSplit(p, g, seed)
			return core.ClientServerTwoSpannerProgram(g, clients, servers, ablationOptions(p, seed))
		},
	})

	Register(&Scenario{
		Name:  "mds",
		Title: "Theorem 5.1 CONGEST minimum dominating set",
		Doc: "Runs the CONGEST MDS algorithm (bandwidth always enforced) and reports the " +
			"dominating-set size against the greedy reference (param ref: greedy or exact) " +
			"and the ln Δ + 1 bound. Paper guarantee: O(log Δ) ratio always, " +
			"O(log n · log Δ) rounds w.h.p., O(log n)-bit messages.",
		Model:      "CONGEST",
		Defaults:   Params{"family": "cgnp", "n": "24", "p": "0.2", "ref": "greedy"},
		Grid:       Grid{"n": {"16", "24", "32"}},
		Replicates: 3,
		Run: func(p Params, seed int64, cancel <-chan struct{}) (Metrics, error) {
			g, err := GraphSpec{}.Build(p, seed)
			if err != nil {
				return nil, err
			}
			shards, err := transportShards(p)
			if err != nil {
				return nil, err
			}
			onRound, tr, tim, err := runHooks(p, g.N())
			if err != nil {
				return nil, err
			}
			res, err := mds.Run(g, mds.Options{Seed: seed, Bandwidth: p.Int("bandwidth", 0), Shards: shards, Cancel: cancel, RoundHook: onRound, Tracer: tr})
			if err != nil {
				return nil, err
			}
			m := graphMetrics(g, Metrics{})
			statsMetrics(res.Stats, m)
			timingMetrics(tim, m)
			m["size"] = float64(len(res.DominatingSet))
			m["iterations"] = float64(res.Iterations)
			m["ln_delta_bound"] = math.Log(float64(g.MaxDegree())) + 1
			var ref float64
			switch r := p.Str("ref", "greedy"); r {
			case "greedy":
				ref = float64(len(baseline.GreedyMDS(g)))
			case "exact":
				ref = float64(len(exact.MinDominatingSet(g)))
			default:
				return m, fmt.Errorf("scenario: unknown ref %q (want greedy, exact)", r)
			}
			m["ref_size"] = ref
			if ref > 0 {
				m["ratio"] = m["size"] / ref
			}
			return m, nil
		},
		Program: func(p Params, seed int64) (dist.ShardProgram, error) {
			g, err := GraphSpec{}.Build(p, seed)
			if err != nil {
				return dist.ShardProgram{}, err
			}
			return mds.Program(g, mds.Options{Seed: seed, Bandwidth: p.Int("bandwidth", 0)}), nil
		},
	})

	Register(&Scenario{
		Name:  "baswanasen",
		Title: "Baswana–Sen (2k-1)-spanner baseline",
		Doc: "The k-round undirected baseline: builds a (2k-1)-spanner of expected size " +
			"O(k · n^{1+1/k}), i.e. an O(n^{1/k})-approximation of the minimum (2k-1)-spanner, " +
			"the construction the paper's directed lower bounds separate against.",
		Model:      "CONGEST",
		Defaults:   Params{"family": "cgnp", "n": "100", "p": "0.3", "k": "3"},
		Grid:       Grid{"n": {"100", "200"}, "k": {"2", "3", "4"}},
		Replicates: 5,
		Run: func(p Params, seed int64, _ <-chan struct{}) (Metrics, error) {
			g, err := GraphSpec{}.Build(p, seed)
			if err != nil {
				return nil, err
			}
			k := p.Int("k", 3)
			res := baseline.BaswanaSen(g, k, seed)
			m := graphMetrics(g, Metrics{})
			m["k"] = float64(k)
			m["stretch"] = float64(res.Stretch)
			m["rounds"] = float64(res.Rounds)
			m["size"] = float64(res.Spanner.Len())
			m["size_bound"] = 4 * float64(k) * math.Pow(float64(g.N()), 1+1/float64(k))
			m["ratio_lb"] = float64(res.Spanner.Len()) / math.Max(1, float64(g.N()-1))
			if !span.IsKSpanner(g, res.Spanner, res.Stretch) {
				m["valid"] = 0
				return m, fmt.Errorf("output is not a %d-spanner", res.Stretch)
			}
			m["valid"] = 1
			return m, nil
		},
	})

	Register(&Scenario{
		Name:  "kortsarz-peleg",
		Title: "Kortsarz–Peleg sequential 2-spanner reference",
		Doc: "The classical sequential O(log m/n)-approximation the distributed algorithm " +
			"matches; used as the reference implementation in ratio comparisons.",
		Model:      "sequential",
		Defaults:   Params{"family": "cgnp", "n": "48", "p": "0.15"},
		Grid:       Grid{"n": {"32", "64"}},
		Replicates: 3,
		Run: func(p Params, seed int64, _ <-chan struct{}) (Metrics, error) {
			g, err := GraphSpec{}.Build(p, seed)
			if err != nil {
				return nil, err
			}
			H := baseline.KortsarzPeleg(g)
			m := graphMetrics(g, Metrics{})
			m["size"] = float64(H.Len())
			m["cost"] = span.Cost(g, H)
			if err := verifySpanner(p, g, H, 2, m); err != nil {
				return m, err
			}
			return m, nil
		},
	})

	Register(&Scenario{
		Name:  "greedy-spanner",
		Title: "Greedy k-spanner reference",
		Doc: "The sequential greedy construction (add an edge iff not already k-spanned): " +
			"the girth-based size-optimal reference for stretch parameters beyond 2 " +
			"(param k).",
		Model:      "sequential",
		Defaults:   Params{"family": "cgnp", "n": "48", "p": "0.15", "k": "3"},
		Grid:       Grid{"k": {"2", "3", "5"}},
		Replicates: 3,
		Run: func(p Params, seed int64, _ <-chan struct{}) (Metrics, error) {
			g, err := GraphSpec{}.Build(p, seed)
			if err != nil {
				return nil, err
			}
			k := p.Int("k", 3)
			H := baseline.GreedyKSpanner(g, k)
			m := graphMetrics(g, Metrics{})
			m["k"] = float64(k)
			m["size"] = float64(H.Len())
			m["cost"] = span.Cost(g, H)
			if err := verifySpanner(p, g, H, k, m); err != nil {
				return m, err
			}
			return m, nil
		},
	})

	Register(&Scenario{
		Name:  "local-epsilon",
		Title: "Theorem 1.2 LOCAL (1+ε)-approximation",
		Doc: "Runs the LOCAL scheme (network decomposition + exact local solves) and checks " +
			"cost <= (1+ε)·OPT against the branch-and-bound optimum — exact verification, so " +
			"keep n small. Params k, eps. Paper guarantee: poly(log n / ε) rounds.",
		Model:      "LOCAL",
		Defaults:   Params{"family": "cgnp", "n": "10", "p": "0.35", "k": "2", "eps": "0.5"},
		Grid:       Grid{"eps": {"0.25", "0.5", "1.0"}},
		Replicates: 2,
		Run: func(p Params, seed int64, _ <-chan struct{}) (Metrics, error) {
			g, err := GraphSpec{}.Build(p, seed)
			if err != nil {
				return nil, err
			}
			k := p.Int("k", 2)
			eps := p.Float("eps", 0.5)
			res, err := localmodel.EpsilonSpanner(g, localmodel.Options{K: k, Eps: eps, Seed: seed})
			if err != nil {
				return nil, err
			}
			m := graphMetrics(g, Metrics{})
			m["k"] = float64(k)
			m["eps"] = eps
			m["cost"] = res.Cost
			m["colors"] = float64(res.Colors)
			m["radius"] = float64(res.Radius)
			m["est_rounds"] = float64(res.EstimatedRounds)
			if err := verifySpanner(p, g, res.Spanner, k, m); err != nil {
				return m, err
			}
			_, opt, err := exact.MinSpanner(g, exact.SpannerOptions{K: k})
			if err != nil {
				return m, err
			}
			m["opt"] = opt
			m["bound"] = (1 + eps) * opt
			if res.Cost > (1+eps)*opt+1e-9 {
				return m, fmt.Errorf("cost %.4f exceeds (1+ε)·OPT = %.4f", res.Cost, (1+eps)*opt)
			}
			return m, nil
		},
	})
}
