package scenario

// The paper's reproduction suite: every experiment E1–E15 of the former
// cmd/experiments monolith, re-expressed as a registered scenario whose
// default cases replay the figure/theorem it reproduces. Registration
// order is presentation order (E1..E15); cmd/experiments iterates
// Experiments() and any cell returning an error fails the run.
//
// Cells that replay a pinned instance carry an explicit "iseed"; cells
// exploring randomness leave the instance to the sweep-derived seed and
// rely on replicates. Every hard assertion of the old driver (spanner
// validity, zero fallbacks, exact Claim 3.1 equality, dichotomy checks,
// CONGEST output equality, ...) survives as an error return.

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"distspanner/internal/baseline"
	"distspanner/internal/core"
	"distspanner/internal/dist"
	"distspanner/internal/exact"
	"distspanner/internal/gen"
	"distspanner/internal/lb"
	"distspanner/internal/mds"
	"distspanner/internal/span"
)

// Experiments returns the registered paper experiments (names "e1".."e15")
// in presentation order.
func Experiments() []*Scenario {
	var out []*Scenario
	for _, s := range All() {
		if strings.HasPrefix(s.Name, "e") {
			if _, err := strconv.Atoi(s.Name[1:]); err == nil {
				out = append(out, s)
			}
		}
	}
	return out
}

func cases(ps ...Params) []Params { return ps }

// delegate runs another registered scenario's Run with its defaults
// layered under p: the experiment supplies the cases, the sweepable
// scenario supplies the algorithm, verification, and metrics, so the two
// cannot drift apart. Resolution is lazy because init order across files
// is not guaranteed.
func delegate(name string, p Params, seed int64, cancel <-chan struct{}) (Metrics, error) {
	s, ok := Get(name)
	if !ok {
		return nil, fmt.Errorf("scenario: delegate target %q not registered", name)
	}
	return s.Run(s.Defaults.Merge(p), seed, cancel)
}

func init() {
	Register(&Scenario{
		Name:  "e1",
		Title: "Figure 1 / Lemma 2.3: G(ℓ,β) spanner-size dichotomy",
		Doc: "Builds the Fig. 1 lower-bound graph for disjoint and intersecting inputs, " +
			"verifies Claim 2.2, checks the disjoint case admits a 5-spanner avoiding D with " +
			"<= 7ℓβ edges, and that each input conflict forces β² D-edges (Lemma 2.3).",
		Model: "analytic",
		Cases: cases(
			Params{"l": "3", "beta": "4"},
			Params{"l": "4", "beta": "6"},
			Params{"l": "5", "beta": "8"},
		),
		Run: func(p Params, seed int64, cancel <-chan struct{}) (Metrics, error) { //spanlint:nocancel analytic Fig. 1 gadgets are fixed-size (l <= 5) and finish in microseconds
			l := p.Int("l", 4)
			beta := p.Int("beta", 2*l-2)
			s := instanceSeed(p, seed)
			a, b := lb.DisjointInputs(l*l, 0.4, s)
			f, err := lb.NewFig1(l, beta, a, b)
			if err != nil {
				return nil, err
			}
			m := Metrics{"l": float64(l), "beta": float64(beta), "n": float64(f.G.N()),
				"d_edges": float64(f.D.Len()), "bound_7lb": float64(7 * l * beta)}
			if err := f.VerifyClaim22(); err != nil {
				return m, fmt.Errorf("disjoint Claim 2.2: %w", err)
			}
			nonD := f.NonDSpanner()
			m["nond_size"] = float64(nonD.Len())
			if !span.IsDirectedKSpanner(f.G, nonD, 5) {
				return m, fmt.Errorf("disjoint non-D spanner invalid at ℓ=%d", l)
			}
			conflicts := p.Int("conflicts", 2)
			a2, b2 := lb.IntersectingInputs(l*l, conflicts, 0.3, s+7)
			f2, err := lb.NewFig1(l, beta, a2, b2)
			if err != nil {
				return nil, err
			}
			if err := f2.VerifyClaim22(); err != nil {
				return m, fmt.Errorf("intersecting Claim 2.2: %w", err)
			}
			forced := f2.ForcedDEdges().Len()
			m["conflicts"] = float64(conflicts)
			m["forced_d"] = float64(forced)
			if forced != conflicts*beta*beta {
				return m, fmt.Errorf("forced D-edges %d != cβ² = %d", forced, conflicts*beta*beta)
			}
			return m, nil
		},
	})

	Register(&Scenario{
		Name:  "e2",
		Title: "Theorem 1.1: randomized directed k-spanner lower bound",
		Doc: "Tabulates T(n) = Ω(√n/(√α·log n)) for randomized α-approximation (k >= 5), " +
			"meters the bits a 5-ball learner pushes across the Θ(ℓ) cut of G(ℓ,β) to turn " +
			"disjointness's Ω(ℓ²) bits into a round bound, and checks the Lemma 2.4 decision " +
			"rule classifies disjoint vs intersecting instances at β > 7αℓ.",
		Model: "two-party",
		Cases: cases(
			Params{"mode": "bounds", "n": "256"},
			Params{"mode": "bounds", "n": "1024"},
			Params{"mode": "bounds", "n": "4096"},
			Params{"mode": "bounds", "n": "16384"},
			Params{"mode": "bounds", "n": "65536"},
			Params{"mode": "meter", "l": "4", "beta": "6", "iseed": "1"},
			Params{"mode": "decision", "l": "3", "beta": "45", "iseed": "2"},
		),
		Run: func(p Params, seed int64, _ <-chan struct{}) (Metrics, error) {
			switch mode := p.Str("mode", "bounds"); mode {
			case "bounds":
				n := p.Int("n", 1024)
				return Metrics{
					"n":        float64(n),
					"alpha_1":  lb.RandomizedDirectedRounds(n, 1),
					"alpha_4":  lb.RandomizedDirectedRounds(n, 4),
					"alpha_16": lb.RandomizedDirectedRounds(n, 16),
					"alpha_64": lb.RandomizedDirectedRounds(n, 64),
				}, nil
			case "meter":
				l, beta := p.Int("l", 4), p.Int("beta", 6)
				a, b := lb.DisjointInputs(l*l, 0.4, instanceSeed(p, seed))
				f, err := lb.NewFig1(l, beta, a, b)
				if err != nil {
					return nil, err
				}
				comm, _ := f.G.Underlying()
				bandwidth := p.Int("bandwidth", 32)
				rep, err := lb.MeterLearnBall(comm, f.CutSide(), 5, bandwidth, l*l)
				if err != nil {
					return nil, err
				}
				return Metrics{
					"cut_edges":      float64(rep.CutEdges),
					"cut_bits":       float64(rep.Stats.CutBits),
					"bits_needed":    float64(l * l),
					"implied_rounds": rep.ImpliedRounds,
				}, nil
			case "decision":
				alpha := p.Float("alpha", 2)
				l, beta := p.Int("l", 3), p.Int("beta", 45)
				s := instanceSeed(p, seed)
				aD, bD := lb.DisjointInputs(l*l, 0.4, s)
				fD, err := lb.NewFig1(l, beta, aD, bD)
				if err != nil {
					return nil, err
				}
				aI, bI := lb.IntersectingInputs(l*l, 1, 0.3, s+1)
				fI, err := lb.NewFig1(l, beta, aI, bI)
				if err != nil {
					return nil, err
				}
				okD := lb.DecideDisjointness(fD, fD.MinimalSpanner(), alpha)
				okI := !lb.DecideDisjointness(fI, fI.MinimalSpanner(), alpha)
				m := Metrics{"alpha": alpha, "ok_disjoint": boolMetric(okD),
					"ok_intersecting": boolMetric(okI), "margin": lb.ThresholdGap(fD, alpha)}
				if !okD || !okI {
					return m, fmt.Errorf("Lemma 2.4 decision rule misclassified (disjoint %v, intersecting %v)", okD, okI)
				}
				return m, nil
			default:
				return nil, fmt.Errorf("e2: unknown mode %q", mode)
			}
		},
	})

	Register(&Scenario{
		Name:  "e3",
		Title: "Theorem 2.8 / Lemma 2.6: deterministic gap-disjointness bound",
		Doc: "Contrasts the deterministic Ω(n/(√α·log n)) bound with the randomized " +
			"Ω(√n/(√α·log n)) one, and verifies the gap dichotomy at β <= ℓ: far-from-" +
			"disjoint inputs force >= β²ℓ²/12 D-edges while disjoint ones stay below 7ℓ².",
		Model: "analytic",
		Cases: cases(
			Params{"mode": "bounds", "n": "256"},
			Params{"mode": "bounds", "n": "1024"},
			Params{"mode": "bounds", "n": "4096"},
			Params{"mode": "bounds", "n": "16384"},
			Params{"mode": "gap", "l": "12", "beta": "11", "iseed": "1"},
		),
		Run: func(p Params, seed int64, _ <-chan struct{}) (Metrics, error) {
			switch mode := p.Str("mode", "bounds"); mode {
			case "bounds":
				n := p.Int("n", 1024)
				return Metrics{
					"n":       float64(n),
					"det_1":   lb.DeterministicDirectedRounds(n, 1),
					"det_4":   lb.DeterministicDirectedRounds(n, 4),
					"det_16":  lb.DeterministicDirectedRounds(n, 16),
					"rand_4":  lb.RandomizedDirectedRounds(n, 4),
					"speedup": lb.DeterministicDirectedRounds(n, 4) / lb.RandomizedDirectedRounds(n, 4),
				}, nil
			case "gap":
				l, beta := p.Int("l", 12), p.Int("beta", 11)
				s := instanceSeed(p, seed)
				a, b := lb.DisjointInputs(l*l, 0.3, s)
				f, err := lb.NewFig1(l, beta, a, b)
				if err != nil {
					return nil, err
				}
				af, bf := lb.FarFromDisjointInputs(l*l, s+1)
				f2, err := lb.NewFig1(l, beta, af, bf)
				if err != nil {
					return nil, err
				}
				forced := f2.ForcedDEdges().Len()
				need := float64(beta*beta) * float64(l*l) / 12
				m := Metrics{"l": float64(l), "beta": float64(beta),
					"disjoint_nond": float64(f.NonDSpanner().Len()),
					"bound_7l2":     float64(7 * l * l),
					"forced_d":      float64(forced), "need": need}
				if float64(forced) < need {
					return m, fmt.Errorf("gap dichotomy violated: forced %d < %.0f", forced, need)
				}
				return m, nil
			default:
				return nil, fmt.Errorf("e3: unknown mode %q", mode)
			}
		},
	})

	Register(&Scenario{
		Name:  "e4",
		Title: "Figure 2 / Theorems 2.9, 2.10: weighted lower bounds",
		Doc: "Verifies the Fig. 2 dichotomy — a 0-cost 4-spanner exists iff the inputs are " +
			"disjoint — in the directed construction, the undirected variant for k in " +
			"{4,5,7}, and tabulates the weighted round lower bounds.",
		Model: "analytic",
		Cases: cases(
			Params{"mode": "fig2", "l": "3"},
			Params{"mode": "fig2", "l": "5"},
			Params{"mode": "fig2", "l": "8"},
			Params{"mode": "undirected", "k": "4"},
			Params{"mode": "undirected", "k": "5"},
			Params{"mode": "undirected", "k": "7"},
			Params{"mode": "bounds", "n": "1024"},
			Params{"mode": "bounds", "n": "4096"},
			Params{"mode": "bounds", "n": "16384"},
		),
		Run: func(p Params, seed int64, _ <-chan struct{}) (Metrics, error) {
			s := instanceSeed(p, seed)
			switch mode := p.Str("mode", "fig2"); mode {
			case "fig2":
				l := p.Int("l", 3)
				a, b := lb.DisjointInputs(l*l, 0.4, s)
				f, err := lb.NewFig2(l, a, b)
				if err != nil {
					return nil, err
				}
				ok := span.IsDirectedKSpanner(f.G, f.ZeroCostSpanner(), 4)
				a2, b2 := lb.IntersectingInputs(l*l, 1, 0.3, s+1)
				f2, err := lb.NewFig2(l, a2, b2)
				if err != nil {
					return nil, err
				}
				bad := span.IsDirectedKSpanner(f2.G, f2.ZeroCostSpanner(), 4)
				m := Metrics{"l": float64(l), "n": float64(f.G.N()),
					"zero_cost_ok": boolMetric(ok), "conflict_forced": boolMetric(!bad)}
				if !ok || bad {
					return m, fmt.Errorf("Fig2 dichotomy broken at ℓ=%d", l)
				}
				return m, nil
			case "undirected":
				k := p.Int("k", 4)
				a, b := lb.DisjointInputs(9, 0.4, s)
				fu, err := lb.NewFig2Undirected(3, k, a, b)
				if err != nil {
					return nil, err
				}
				ok := span.IsKSpanner(fu.G, fu.ZeroCostSpanner(), k)
				m := Metrics{"k": float64(k), "zero_cost_ok": boolMetric(ok)}
				if !ok {
					return m, fmt.Errorf("undirected Fig2 failed at k=%d", k)
				}
				return m, nil
			case "bounds":
				n := p.Int("n", 1024)
				return Metrics{
					"n":        float64(n),
					"dir_lb":   lb.WeightedDirectedRounds(n),
					"undir_k4": lb.WeightedUndirectedRounds(n, 4),
					"undir_k8": lb.WeightedUndirectedRounds(n, 8),
				}, nil
			default:
				return nil, fmt.Errorf("e4: unknown mode %q", mode)
			}
		},
	})

	Register(&Scenario{
		Name:  "e5",
		Title: "Figure 3 / Claim 3.1: MVC gadget equality and Section 3 bounds",
		Doc: "Checks cost of the minimum 2-spanner of the gadget G_S equals MVC(G) exactly " +
			"(Claim 3.1, undirected and directed), runs Lemma 3.2 forwards (distributed MVC " +
			"via the weighted spanner algorithm), machine-checks the disjointness fooling " +
			"set, and tabulates the Section 3 round bounds.",
		Model: "analytic",
		Cases: cases(
			Params{"mode": "gadget", "iseed": "0"},
			Params{"mode": "gadget", "iseed": "1"},
			Params{"mode": "gadget", "iseed": "2"},
			Params{"mode": "gadget", "iseed": "3"},
			Params{"mode": "gadget", "iseed": "4"},
			Params{"mode": "directed"},
			Params{"mode": "forwards", "iseed": "9"},
			Params{"mode": "fooling"},
			Params{"mode": "bounds"},
		),
		Run: func(p Params, seed int64, cancel <-chan struct{}) (Metrics, error) {
			switch mode := p.Str("mode", "gadget"); mode {
			case "gadget":
				g := gen.GNP(p.Int("n", 5), p.Float("p", 0.5), instanceSeed(p, seed))
				gadget := lb.NewMVCGadget(g, false)
				mvc := len(exact.MinVertexCover(g))
				_, cost, err := exact.MinSpanner(gadget.GS, exact.SpannerOptions{K: 2})
				if err != nil {
					return nil, err
				}
				m := Metrics{"n": float64(g.N()), "m": float64(g.M()),
					"mvc": float64(mvc), "spanner_cost": cost}
				if cost != float64(mvc) {
					return m, fmt.Errorf("Claim 3.1 equality failed: cost %.0f != MVC %d", cost, mvc)
				}
				return m, nil
			case "directed":
				g := gen.Cycle(p.Int("n", 4))
				gs, _ := lb.DirectedMVCGadget(g, false)
				mvc := len(exact.MinVertexCover(g))
				_, cost, err := exact.MinDirectedSpanner(gs, exact.SpannerOptions{K: 2})
				if err != nil {
					return nil, err
				}
				m := Metrics{"mvc": float64(mvc), "spanner_cost": cost}
				if cost != float64(mvc) {
					return m, fmt.Errorf("directed Claim 3.1 equality failed")
				}
				return m, nil
			case "forwards":
				gf := gen.ConnectedGNP(p.Int("n", 14), p.Float("p", 0.35), instanceSeed(p, seed))
				mvcOpt := len(exact.MinVertexCover(gf))
				res, err := lb.MVCViaSpanner(gf, core.Options{Seed: seed, Cancel: cancel})
				if err != nil {
					return nil, err
				}
				m := Metrics{"cover": float64(len(res.Cover)), "opt": float64(mvcOpt),
					"gadget_rounds": float64(res.GadgetRounds)}
				if mvcOpt > 0 {
					m["ratio"] = float64(len(res.Cover)) / float64(mvcOpt)
				}
				if !lb.NewMVCGadget(gf, false).IsVertexCover(res.Cover) {
					return m, fmt.Errorf("Lemma 3.2 output is not a vertex cover")
				}
				return m, nil
			case "fooling":
				n := p.Int("n", 10)
				if err := lb.VerifyDisjointnessFoolingSet(n); err != nil {
					return nil, err
				}
				return Metrics{"certified_n": float64(n), "bound_bits": float64(lb.DisjFoolingBoundBits(n))}, nil
			case "bounds":
				return Metrics{
					"local_delta_1024": lb.Weighted2SpannerLocalRoundsDelta(1024),
					"local_n_65536":    lb.Weighted2SpannerLocalRoundsN(65536),
					"exact_n_4096":     lb.ExactWeighted2SpannerRounds(4096),
				}, nil
			default:
				return nil, fmt.Errorf("e5: unknown mode %q", mode)
			}
		},
	})

	e6Families := cases(
		Params{"family": "clique", "n": "16"},
		Params{"family": "bipartite", "a": "8", "b": "8"},
		Params{"family": "hypercube", "d": "4"},
		Params{"family": "grid", "rows": "6", "cols": "6"},
		Params{"family": "cgnp", "n": "40", "p": "0.15", "iseed": "1"},
		Params{"family": "cgnp", "n": "60", "p": "0.08", "iseed": "2"},
		Params{"family": "planted-stars", "c": "4", "s": "8", "q": "0.4", "iseed": "3"},
	)
	Register(&Scenario{
		Name:  "e6",
		Title: "Theorem 1.3: distributed 2-spanner, guaranteed O(log m/n)",
		Doc: "Runs the core algorithm over the standard family zoo (worst case over " +
			"replicate seeds), asserts validity and zero Claim 4.4 fallbacks, compares " +
			"against Kortsarz–Peleg and the n-1 lower bound, contrasts with the " +
			"expectation-only random-star comparator, and sweeps planted stars to relate " +
			"iterations to log n · log Δ.",
		Model: "LOCAL",
		Cases: append(append([]Params{}, e6Families...),
			Params{"mode": "comparator", "family": "cgnp", "n": "30", "p": "0.3", "iseed": "9"},
			Params{"mode": "scaling", "c": "4", "iseed": "5"},
			Params{"mode": "scaling", "c": "8", "iseed": "5"},
			Params{"mode": "scaling", "c": "16", "iseed": "5"},
		),
		Replicates: 5,
		Run: func(p Params, seed int64, cancel <-chan struct{}) (Metrics, error) {
			switch mode := p.Str("mode", "run"); mode {
			case "run":
				g, err := GraphSpec{}.Build(p, seed)
				if err != nil {
					return nil, err
				}
				res, err := core.TwoSpanner(g, core.Options{Seed: seed, Cancel: cancel})
				if err != nil {
					return nil, err
				}
				m := graphMetrics(g, Metrics{})
				statsMetrics(res.Stats, m)
				m["size"] = float64(res.Spanner.Len())
				m["iterations"] = float64(res.Iterations)
				m["kp_size"] = float64(baseline.KortsarzPeleg(g).Len())
				m["lb_size"] = float64(g.N() - 1)
				m["ratio_lb"] = float64(res.Spanner.Len()) / float64(g.N()-1)
				m["log_bound"] = math.Log2(math.Max(2, float64(g.M())/float64(g.N()))) + 1
				if !span.IsKSpanner(g, res.Spanner, 2) {
					return m, fmt.Errorf("invalid spanner")
				}
				if res.Fallbacks != 0 {
					return m, fmt.Errorf("Claim 4.4 fallback taken")
				}
				return m, nil
			case "comparator":
				g, err := GraphSpec{}.Build(p, seed)
				if err != nil {
					return nil, err
				}
				res, err := core.TwoSpanner(g, core.Options{Seed: seed, Cancel: cancel})
				if err != nil {
					return nil, err
				}
				if !span.IsKSpanner(g, res.Spanner, 2) {
					return nil, fmt.Errorf("invalid spanner")
				}
				return Metrics{
					"alg_size":  float64(res.Spanner.Len()),
					"rand_size": float64(baseline.RandomStarSpanner(g, seed).Len()),
				}, nil
			case "scaling":
				c := p.Int("c", 4)
				gs := gen.PlantedStars(c, p.Int("s", 8), p.Float("q", 0.4), instanceSeed(p, seed))
				res, err := core.TwoSpanner(gs, core.Options{Seed: seed, Cancel: cancel})
				if err != nil {
					return nil, err
				}
				return Metrics{
					"n": float64(gs.N()), "max_degree": float64(gs.MaxDegree()),
					"iterations":    float64(res.Iterations),
					"logn_logdelta": math.Log2(float64(gs.N())) * math.Log2(float64(gs.MaxDegree())),
				}, nil
			default:
				return nil, fmt.Errorf("e6: unknown mode %q", mode)
			}
		},
	})

	Register(&Scenario{
		Name:  "e7",
		Title: "Theorem 4.9: directed 2-spanner",
		Doc: "Runs the directed variant over random digraphs and a randomly oriented " +
			"clique, verifying the directed 2-spanner property on every replicate. Paper: " +
			"same O(log m/n) ratio and O(log n · log Δ) rounds as the undirected algorithm.",
		Model: "LOCAL",
		Cases: cases(
			Params{"family": "rdg", "n": "20", "p": "0.25", "iseed": "1"},
			Params{"family": "rdg", "n": "30", "p": "0.15", "iseed": "2"},
			Params{"family": "rdg", "n": "12", "p": "1.1", "iseed": "3"},
			Params{"family": "clique", "n": "12", "twoway": "0.5", "iseed": "4"},
		),
		Replicates: 3,
		Run: func(p Params, seed int64, cancel <-chan struct{}) (Metrics, error) {
			return delegate("twospanner-directed", p, seed, cancel)
		},
	})

	Register(&Scenario{
		Name:  "e8",
		Title: "Theorem 4.12: weighted 2-spanner, O(log Δ)",
		Doc: "Runs the weighted algorithm across weight scales W (worst case over " +
			"replicates), compares cost against weighted Kortsarz–Peleg, and computes the " +
			"true ratio against the branch-and-bound optimum on a small instance. Paper: " +
			"ratio O(log Δ), rounds O(log n · log(ΔW)).",
		Model: "LOCAL",
		Cases: cases(
			Params{"whi": "2", "family": "cgnp", "n": "30", "p": "0.25", "iseed": "3"},
			Params{"whi": "16", "family": "cgnp", "n": "30", "p": "0.25", "iseed": "3"},
			Params{"whi": "128", "family": "cgnp", "n": "30", "p": "0.25", "iseed": "3"},
			Params{"ref": "exact", "family": "cgnp", "n": "9", "p": "0.4", "whi": "8", "iseed": "2"},
			Params{"ref": "kp", "family": "wgeom", "n": "48", "radius": "0.3", "whi": "0", "iseed": "6"},
		),
		Replicates: 3,
		Run: func(p Params, seed int64, cancel <-chan struct{}) (Metrics, error) {
			return delegate("twospanner-weighted", p, seed, cancel)
		},
	})

	Register(&Scenario{
		Name:  "e9",
		Title: "Theorem 4.15: client-server 2-spanner",
		Doc: "Splits edges into clients and servers at several client fractions, verifies " +
			"every coverable client edge is spanned by chosen server edges, and computes the " +
			"exact ratio on a small instance. Paper: ratio O(min{log(|C|/|V(C)|), log Δ_S}).",
		Model: "LOCAL",
		Cases: cases(
			Params{"pc": "0.3", "family": "cgnp", "n": "30", "p": "0.25", "iseed": "5"},
			Params{"pc": "0.6", "family": "cgnp", "n": "30", "p": "0.25", "iseed": "5"},
			Params{"pc": "0.9", "family": "cgnp", "n": "30", "p": "0.25", "iseed": "5"},
			Params{"mode": "exact", "family": "cgnp", "n": "10", "p": "0.4", "pc": "0.6", "ps": "0.8", "iseed": "8"},
		),
		Replicates: 2,
		Run: func(p Params, seed int64, cancel <-chan struct{}) (Metrics, error) {
			m, err := delegate("twospanner-cs", p, seed, cancel)
			if err != nil {
				return m, err
			}
			if p.Str("mode", "run") == "exact" {
				// Rebuild the (deterministic) instance the delegate ran on
				// to compute the true optimum restricted to server edges.
				cs, _ := Get("twospanner-cs")
				pp := cs.Defaults.Merge(p)
				g, err := GraphSpec{}.Build(pp, seed)
				if err != nil {
					return m, err
				}
				clients, servers := csSplit(pp, g, seed)
				coverable := span.CoverableClients(g, clients, servers, 2)
				_, opt, err := exact.MinSpanner(g, exact.SpannerOptions{K: 2, Target: coverable, Allowed: servers})
				if err != nil {
					return m, err
				}
				m["opt"] = opt
				if opt > 0 {
					m["ratio_opt"] = m["size"] / opt
				}
			}
			return m, nil
		},
	})

	Register(&Scenario{
		Name:  "e10",
		Title: "Theorem 5.1: CONGEST MDS, guaranteed O(log Δ)",
		Doc: "Runs the CONGEST MDS algorithm (bandwidth enforced) over the family zoo, " +
			"worst case over replicates, against greedy and the exact optimum, and contrasts " +
			"the paper's voting rule with expectation-only symmetry breaking on planted " +
			"stars. Paper: O(log Δ) ratio always, O(log n · log Δ) rounds w.h.p.",
		Model: "CONGEST",
		Cases: cases(
			Params{"family": "star", "n": "20"},
			Params{"family": "cgnp", "n": "22", "p": "0.25", "iseed": "7"},
			Params{"family": "grid", "rows": "5", "cols": "5"},
			Params{"family": "cycle", "n": "24"},
			Params{"mode": "voting", "family": "planted-stars", "c": "6", "s": "6", "q": "0.1", "iseed": "3"},
		),
		Replicates: 8,
		Run: func(p Params, seed int64, cancel <-chan struct{}) (Metrics, error) {
			g, err := GraphSpec{}.Build(p, seed)
			if err != nil {
				return nil, err
			}
			res, err := mds.Run(g, mds.Options{Seed: seed, Cancel: cancel})
			if err != nil {
				return nil, err
			}
			m := graphMetrics(g, Metrics{})
			statsMetrics(res.Stats, m)
			m["size"] = float64(len(res.DominatingSet))
			m["budget"] = float64(8 * dist.IDBits(g.N()))
			if p.Str("mode", "run") == "voting" {
				m["expectation_size"] = float64(len(baseline.ExpectationMDS(g, seed)))
				return m, nil
			}
			greedy := float64(len(baseline.GreedyMDS(g)))
			opt := float64(len(exact.MinDominatingSet(g)))
			m["greedy_size"] = greedy
			m["opt_size"] = opt
			if opt > 0 {
				m["ratio_opt"] = m["size"] / opt
			}
			m["ln_delta_bound"] = math.Log(float64(g.MaxDegree())) + 1
			return m, nil
		},
	})

	Register(&Scenario{
		Name:  "e11",
		Title: "Theorem 1.2: LOCAL (1+ε)-approximation",
		Doc: "Runs the LOCAL scheme on exactly solvable instances and asserts " +
			"cost <= (1+ε)·OPT for each (graph, k, ε) case. Paper: (1+ε)·OPT in " +
			"poly(log n / ε) LOCAL rounds with unbounded local computation.",
		Model: "LOCAL",
		Cases: cases(
			Params{"family": "clique", "n": "8", "k": "2", "eps": "1.0"},
			Params{"family": "clique", "n": "8", "k": "2", "eps": "0.25"},
			Params{"family": "bipartite", "a": "3", "b": "3", "k": "2", "eps": "0.5"},
			Params{"family": "cgnp", "n": "10", "p": "0.35", "iseed": "3", "k": "2", "eps": "0.5"},
			Params{"family": "cgnp", "n": "9", "p": "0.35", "iseed": "5", "k": "3", "eps": "0.5"},
		),
		Run: func(p Params, seed int64, cancel <-chan struct{}) (Metrics, error) {
			return delegate("local-epsilon", p, seed, cancel)
		},
	})

	Register(&Scenario{
		Name:  "e12",
		Title: "Separations: LOCAL vs CONGEST, directed vs undirected, weighted vs not",
		Doc: "(a) Meters the max per-edge-round bits of the core 2-spanner (grows with Δ: " +
			"the Section 1.3 overhead) against MDS (stays within the CONGEST budget); " +
			"(b) contrasts the k-round undirected construction with the directed lower " +
			"bound at α = n^{1/k}; (c) tabulates the weighted Ω(n/log n) bound.",
		Model: "analytic",
		Cases: cases(
			Params{"mode": "bits", "n": "8"},
			Params{"mode": "bits", "n": "16"},
			Params{"mode": "bits", "n": "24"},
			Params{"mode": "dirvsundir", "n": "1024", "k": "2"},
			Params{"mode": "dirvsundir", "n": "1024", "k": "3"},
			Params{"mode": "dirvsundir", "n": "4096", "k": "2"},
			Params{"mode": "dirvsundir", "n": "4096", "k": "3"},
			Params{"mode": "weighted", "n": "1024"},
			Params{"mode": "weighted", "n": "4096"},
		),
		Run: func(p Params, seed int64, cancel <-chan struct{}) (Metrics, error) {
			switch mode := p.Str("mode", "bits"); mode {
			case "bits":
				g := gen.Clique(p.Int("n", 16))
				resC, err := core.TwoSpanner(g, core.Options{Seed: seed, Cancel: cancel})
				if err != nil {
					return nil, err
				}
				resM, err := mds.Run(g, mds.Options{Seed: seed, Cancel: cancel})
				if err != nil {
					return nil, err
				}
				budget := 8 * dist.IDBits(g.N())
				return Metrics{
					"max_degree":       float64(g.MaxDegree()),
					"core_bits":        float64(resC.Stats.MaxEdgeRoundBits),
					"mds_bits":         float64(resM.Stats.MaxEdgeRoundBits),
					"budget":           float64(budget),
					"core_over_budget": float64(resC.Stats.MaxEdgeRoundBits) / float64(budget),
				}, nil
			case "dirvsundir":
				n, k := p.Int("n", 1024), p.Int("k", 2)
				alpha := math.Pow(float64(n), 1/float64(k))
				return Metrics{
					"n": float64(n), "k": float64(k), "alpha": alpha,
					"undirected_rounds": float64(k),
					"directed_lb":       lb.RandomizedDirectedRounds(n, alpha),
				}, nil
			case "weighted":
				n := p.Int("n", 1024)
				return Metrics{
					"n":                 float64(n),
					"weighted_lb":       lb.WeightedDirectedRounds(n),
					"unweighted_rounds": 3,
				}, nil
			default:
				return nil, fmt.Errorf("e12: unknown mode %q", mode)
			}
		},
	})

	Register(&Scenario{
		Name:  "e13",
		Title: "Baswana–Sen baseline: O(n^{1/k})-approximation in k rounds",
		Doc: "Builds (2k-1)-spanners with the k-phase Baswana–Sen construction across " +
			"(n, k), verifying stretch and recording size against the O(k · n^{1+1/k}) " +
			"bound — the undirected CONGEST baseline the paper's lower bounds separate from.",
		Model:      "CONGEST",
		Grid:       Grid{"n": {"100", "200"}, "k": {"2", "3", "4"}},
		Replicates: 5,
		Run: func(p Params, seed int64, _ <-chan struct{}) (Metrics, error) {
			n, k := p.Int("n", 100), p.Int("k", 3)
			// The pinned instance of the original driver: seed n+k.
			g := gen.ConnectedGNP(n, p.Float("p", 0.3), int64(p.Int("iseed", n+k)))
			res := baseline.BaswanaSen(g, k, seed)
			m := graphMetrics(g, Metrics{})
			m["k"] = float64(k)
			m["stretch"] = float64(res.Stretch)
			m["rounds"] = float64(res.Rounds)
			m["size"] = float64(res.Spanner.Len())
			m["size_bound"] = 4 * float64(k) * math.Pow(float64(n), 1+1/float64(k))
			m["ratio_lb"] = float64(res.Spanner.Len()) / float64(n-1)
			if !span.IsKSpanner(g, res.Spanner, res.Stretch) {
				return m, fmt.Errorf("invalid Baswana–Sen spanner at n=%d k=%d", n, k)
			}
			return m, nil
		},
	})

	Register(&Scenario{
		Name:  "e14",
		Title: "Section 1.3: direct CONGEST implementation pays Θ(Δ) overhead",
		Doc: "Runs the LOCAL core algorithm and its CONGEST compilation on cliques of " +
			"growing degree, asserts both produce the identical spanner, and records how " +
			"subrounds grow linearly in Δ while every message fits the enforced O(log n) " +
			"budget.",
		Model: "CONGEST",
		Grid:  Grid{"n": {"8", "16", "24", "32"}},
		Run: func(p Params, seed int64, cancel <-chan struct{}) (Metrics, error) {
			g := gen.Clique(p.Int("n", 16))
			local, err := core.TwoSpanner(g, core.Options{Seed: seed, Cancel: cancel})
			if err != nil {
				return nil, err
			}
			cg, err := core.TwoSpannerCongest(g, core.Options{Seed: seed, Cancel: cancel})
			if err != nil {
				return nil, err
			}
			same := local.Spanner.Equal(cg.Spanner)
			m := Metrics{
				"max_degree":     float64(g.MaxDegree()),
				"local_rounds":   float64(local.Stats.Rounds),
				"subrounds":      float64(cg.Subrounds),
				"congest_rounds": float64(cg.Stats.Rounds),
				"max_bits":       float64(cg.Stats.MaxEdgeRoundBits),
				"bandwidth":      float64(cg.Bandwidth),
				"same_output":    boolMetric(same),
			}
			if !same {
				return m, fmt.Errorf("CONGEST output diverged on K%d", g.N())
			}
			return m, nil
		},
	})

	Register(&Scenario{
		Name:  "e15",
		Title: "Ablations: voting threshold and the Section 4.1 star rule",
		Doc: "On planted stars: (a) sweeps the acceptance threshold denominator around the " +
			"paper's 8, (b) disables the monotone Section 4.1 star rule (fresh choices every " +
			"iteration, fallbacks become possible), (c) replaces power-of-two density " +
			"rounding with exact comparisons. Every variant must still output a valid " +
			"2-spanner.",
		Model: "LOCAL",
		Cases: cases(
			Params{"mode": "threshold", "votden": "1"},
			Params{"mode": "threshold", "votden": "2"},
			Params{"mode": "threshold", "votden": "8"},
			Params{"mode": "threshold", "votden": "32"},
			Params{"mode": "star", "fresh": "0"},
			Params{"mode": "star", "fresh": "1"},
			Params{"mode": "rounding", "noround": "0"},
			Params{"mode": "rounding", "noround": "1"},
		),
		Replicates: 4,
		Run: func(p Params, seed int64, cancel <-chan struct{}) (Metrics, error) {
			g := gen.PlantedStars(p.Int("c", 4), p.Int("s", 8), p.Float("q", 0.4), int64(p.Int("iseed", 3)))
			opts, _, err := coreOptions(p, g.N(), seed, cancel)
			if err != nil {
				return nil, err
			}
			res, err := core.TwoSpanner(g, opts)
			if err != nil {
				return nil, err
			}
			m := graphMetrics(g, Metrics{})
			m["size"] = float64(res.Spanner.Len())
			m["iterations"] = float64(res.Iterations)
			m["fallbacks"] = float64(res.Fallbacks)
			if !span.IsKSpanner(g, res.Spanner, 2) {
				return m, fmt.Errorf("ablation produced an invalid spanner")
			}
			return m, nil
		},
	})
}
