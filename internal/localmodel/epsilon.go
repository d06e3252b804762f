// Package localmodel implements the paper's (1+ε)-approximation for
// minimum k-spanners in the LOCAL model (Section 6, Theorem 1.2), following
// the framework of Ghaffari, Kuhn and Maus [39].
//
// The sequential core processes vertices in a given order; vertex v_i finds
// the smallest radius r_i such that the optimal spanner of the uncovered
// edges in the ball B_{r_i+2k}(v_i) is at most (1+ε) times the optimum for
// B_{r_i}(v_i), then adds an optimal spanner for the larger ball. Because
// optima are bounded by n², the radius search terminates within
// O(k·log n / ε) steps, and distinct steps operate on balls that are
// 2k-separated, so their optimal sub-spanners charge to disjoint parts of
// the global optimum — yielding |H| ≤ (1+ε)|H*|.
//
// The distributed implementation runs the same process with the vertex
// order induced by a Linial-Saks network decomposition of G^r: vertices of
// the same color class are processed in parallel (their clusters are
// non-adjacent in G^r, hence further than any step's footprint apart), and
// each of the O(log n) color phases costs O(r + cluster diameter) rounds of
// neighborhood collection in the LOCAL model. The algorithm's local
// computations solve NP-hard spanner instances exactly, which the LOCAL
// model permits; this implementation calls the exact branch-and-bound
// solver, so it is meant for small inputs.
package localmodel

import (
	"errors"
	"fmt"
	"sort"

	"distspanner/internal/decomp"
	"distspanner/internal/exact"
	"distspanner/internal/graph"
	"distspanner/internal/span"
)

// Options configures EpsilonSpanner.
type Options struct {
	// K is the stretch; must be >= 1 (the paper treats k constant).
	K int
	// Eps is the approximation slack ε > 0.
	Eps float64
	// Seed drives the network decomposition.
	Seed int64
	// MaxRadius caps the ball-growing search; zero derives the bound
	// O(k log n / ε) from the instance (capped by n).
	MaxRadius int
}

// Step records one vertex's action, for diagnostics and the round
// accounting.
type Step struct {
	Vertex int
	Radius int
	Added  int // edges added to H at this step
}

// Result reports the spanner and the LOCAL-model accounting.
type Result struct {
	// Spanner is the constructed k-spanner.
	Spanner *graph.EdgeSet
	// Cost is its total weight (size when unweighted).
	Cost float64
	// Colors, WeakDiameter and Radius are the decomposition parameters of
	// G^Radius measured on this run.
	Colors       int
	WeakDiameter int
	Radius       int
	// EstimatedRounds is the LOCAL-model round count of the decomposition
	// simulation: for each of the O(log n) color phases, collecting and
	// redistributing the cluster neighborhoods costs
	// O(Radius · (WeakDiameter + 1)) rounds, plus the decomposition itself
	// (O(log² n) rounds on G^Radius, i.e. O(Radius·log² n) on G).
	EstimatedRounds int
	// Steps are the per-vertex ball-growing decisions in processing order.
	Steps []Step
}

// EpsilonSpanner computes a (1+ε)-approximate minimum k-spanner of g.
func EpsilonSpanner(g *graph.Graph, opts Options) (*Result, error) {
	if opts.K < 1 {
		return nil, fmt.Errorf("localmodel: stretch k=%d must be >= 1", opts.K)
	}
	if opts.Eps <= 0 {
		return nil, errors.New("localmodel: Eps must be positive")
	}
	n := g.N()
	if n == 0 {
		return &Result{Spanner: graph.NewEdgeSet(0)}, nil
	}

	// The footprint of one step is r_i + 4k; any r exceeding every r_i +
	// 4k works. Cap by n (ball growth saturates at the diameter).
	radius := opts.MaxRadius
	if radius <= 0 {
		radius = maxRadiusBound(g, opts.K, opts.Eps) + 4*opts.K + 1
		if radius > n {
			radius = n
		}
	}
	power := decomp.PowerGraph(g, radius)
	dec := decomp.LinialSaks(power, opts.Seed)

	// Processing order: lexicographically by (color, id) — the order the
	// distributed algorithm realizes, colors sequentially and clusters of
	// one color in parallel.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		va, vb := order[a], order[b]
		if dec.Color[va] != dec.Color[vb] {
			return dec.Color[va] < dec.Color[vb]
		}
		return va < vb
	})

	res, err := sequential(g, opts, order)
	if err != nil {
		return nil, err
	}
	res.Colors = dec.NumColors
	res.WeakDiameter = dec.WeakDiameter(power)
	res.Radius = radius
	// Round accounting: decomposition on G^radius costs O(log² n) rounds
	// there, each simulated by radius rounds on G; then each color phase
	// collects cluster neighborhoods of extent radius·(weak diameter + 2).
	logn := ilog2(n) + 1
	res.EstimatedRounds = radius*logn*logn + res.Colors*radius*(res.WeakDiameter+2)
	return res, nil
}

// SequentialEpsilonSpanner runs the sequential core with the natural order
// 0..n-1 (the paper's sequential description, no decomposition). Exposed
// for testing and for measuring the order's irrelevance to the guarantee.
func SequentialEpsilonSpanner(g *graph.Graph, opts Options) (*Result, error) {
	if opts.K < 1 || opts.Eps <= 0 {
		return nil, errors.New("localmodel: need k >= 1 and Eps > 0")
	}
	order := make([]int, g.N())
	for i := range order {
		order[i] = i
	}
	return sequential(g, opts, order)
}

func sequential(g *graph.Graph, opts Options, order []int) (*Result, error) {
	k, eps := opts.K, opts.Eps
	H := graph.NewEdgeSet(g.M())
	covered := graph.NewEdgeSet(g.M())
	res := &Result{}

	uncoveredInBall := func(v, d int) *graph.EdgeSet {
		ball := g.Ball(v, d)
		inBall := make(map[int]bool, len(ball))
		for _, u := range ball {
			inBall[u] = true
		}
		target := graph.NewEdgeSet(g.M())
		for i := 0; i < g.M(); i++ {
			if covered.Has(i) {
				continue
			}
			e := g.Edge(i)
			if inBall[e.U] && inBall[e.V] {
				target.Add(i)
			}
		}
		return target
	}

	// gOpt(v, d) = cost of an optimal spanner of the uncovered edges in
	// B_d(v); the spanner may use any edges of G (covered or not).
	gOpt := func(v, d int) (float64, *graph.EdgeSet, error) {
		target := uncoveredInBall(v, d)
		if target.Len() == 0 {
			return 0, graph.NewEdgeSet(g.M()), nil
		}
		sol, cost, err := exact.MinSpanner(g, exact.SpannerOptions{K: k, Target: target})
		if err != nil {
			return 0, nil, err
		}
		return cost, sol, nil
	}

	maxR := opts.MaxRadius
	if maxR <= 0 {
		maxR = g.N()
	}
	var s graph.Searcher
	for _, v := range order {
		// Find the smallest r with g(v, r+2k) <= (1+eps) * g(v, r).
		var chosen *graph.EdgeSet
		chosenR := -1
		gInner, _, err := gOpt(v, 0) // = 0 edges in B_0
		if err != nil {
			return nil, err
		}
		for r := 0; r <= maxR; r++ {
			gOuter, solOuter, err := gOpt(v, r+2*k)
			if err != nil {
				return nil, err
			}
			if gOuter <= (1+eps)*gInner {
				chosen, chosenR = solOuter, r
				break
			}
			gInner, _, err = gOpt(v, r+1)
			if err != nil {
				return nil, err
			}
		}
		if chosenR == -1 {
			return nil, fmt.Errorf("localmodel: ball growth did not converge at vertex %d", v)
		}
		added := 0
		chosen.ForEach(func(i int) {
			if H.Add(i) {
				added++
			}
		})
		// Mark everything now covered by H.
		for i := 0; i < g.M(); i++ {
			if !covered.Has(i) && span.Covered(&s, g, H, i, k) {
				covered.Add(i)
			}
		}
		res.Steps = append(res.Steps, Step{Vertex: v, Radius: chosenR, Added: added})
	}
	res.Spanner = H
	res.Cost = g.TotalWeight(H)
	return res, nil
}

// maxRadiusBound returns the pigeonhole bound on any r_i: the optimum is at
// most m, so the condition g(v, r+2k) > (1+ε)·g(v, r) can fail at most
// log_{1+ε}(m) times along the nested-ball chain, each failure advancing
// the radius by at most 2k.
func maxRadiusBound(g *graph.Graph, k int, eps float64) int {
	m := float64(g.M())
	if m < 2 {
		m = 2
	}
	steps := 1
	x := 1.0
	for x < m {
		x *= 1 + eps
		steps++
	}
	return 2 * k * steps
}

func ilog2(n int) int {
	b := 0
	for v := 1; v < n; v <<= 1 {
		b++
	}
	return b
}
