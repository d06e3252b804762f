package baseline

import (
	"math"
	"math/rand"

	"distspanner/internal/graph"
)

// BaswanaSenResult carries the spanner plus the construction's
// CONGEST-relevant accounting.
type BaswanaSenResult struct {
	// Spanner is a (2k-1)-spanner of the input w.h.p. over the sampling.
	Spanner *graph.EdgeSet
	// Rounds is the distributed round count of the cited algorithm: k
	// phases, each a constant number of CONGEST rounds [28].
	Rounds int
	// Stretch is 2k-1.
	Stretch int
}

// BaswanaSen builds a (2k-1)-spanner with expected size O(k·n^{1+1/k})
// following Baswana and Sen [7] (unweighted clustering form). Since any
// spanner of a connected graph has at least n-1 edges, the output is an
// O(n^{1/k})-approximation of the minimum (2k-1)-spanner — the undirected
// CONGEST baseline against which the paper's directed lower bound draws its
// separation.
//
// This is a faithful centralized execution of the k-phase distributed
// algorithm; each phase is realizable in O(1) CONGEST rounds, reported in
// Rounds rather than re-simulated.
func BaswanaSen(g *graph.Graph, k int, seed int64) *BaswanaSenResult {
	if k < 1 {
		panic("baseline: Baswana-Sen needs k >= 1")
	}
	n := g.N()
	rng := rand.New(rand.NewSource(seed))
	H := graph.NewEdgeSet(g.M())
	p := math.Pow(float64(n), -1.0/float64(k))

	// cluster[v] is the id of v's cluster center, -1 once v drops out.
	cluster := make([]int, n)
	for v := range cluster {
		cluster[v] = v
	}
	active := graph.Full(g.M())

	removeEdgesToCluster := func(v, c int) {
		for _, arc := range g.Adj(v) {
			if cluster[arc.To] == c && active.Has(arc.Edge) {
				active.Remove(arc.Edge)
			}
		}
	}

	for phase := 1; phase < k; phase++ {
		// Sample surviving cluster centers, drawing in ascending center id
		// so one seed always samples the same clusters.
		sampled := make(map[int]bool)
		center := make([]bool, n)
		for v := 0; v < n; v++ {
			if cluster[v] >= 0 {
				center[cluster[v]] = true
			}
		}
		for c := 0; c < n; c++ {
			if center[c] && rng.Float64() < p {
				sampled[c] = true
			}
		}
		newCluster := make([]int, n)
		copy(newCluster, cluster)
		for v := 0; v < n; v++ {
			if cluster[v] < 0 {
				continue
			}
			if sampled[cluster[v]] {
				continue // v's cluster survives; v stays put
			}
			// Find a neighbor in a sampled cluster over active edges.
			join := -1
			for _, arc := range g.Adj(v) {
				if !active.Has(arc.Edge) {
					continue
				}
				cu := cluster[arc.To]
				if cu >= 0 && sampled[cu] {
					join = arc.To
					break
				}
			}
			if join >= 0 {
				idx, _ := g.EdgeIndex(v, join)
				H.Add(idx)
				newCluster[v] = cluster[join]
				removeEdgesToCluster(v, cluster[join])
				continue
			}
			// No sampled neighbor: connect to every adjacent cluster once
			// and drop out.
			addOnePerCluster(g, H, active, cluster, v)
			newCluster[v] = -1
		}
		cluster = newCluster
	}
	// Final phase: every remaining vertex connects once to each adjacent
	// cluster.
	for v := 0; v < n; v++ {
		addOnePerCluster(g, H, active, cluster, v)
	}
	return &BaswanaSenResult{Spanner: H, Rounds: k, Stretch: 2*k - 1}
}

// addOnePerCluster adds to H one active edge from v to each distinct
// adjacent cluster and deactivates all of v's edges to those clusters.
func addOnePerCluster(g *graph.Graph, H, active *graph.EdgeSet, cluster []int, v int) {
	seen := make(map[int]bool)
	for _, arc := range g.Adj(v) {
		if !active.Has(arc.Edge) {
			continue
		}
		c := cluster[arc.To]
		if c < 0 || seen[c] {
			continue
		}
		seen[c] = true
		H.Add(arc.Edge)
	}
	for _, arc := range g.Adj(v) {
		if active.Has(arc.Edge) && cluster[arc.To] >= 0 && seen[cluster[arc.To]] {
			active.Remove(arc.Edge)
		}
	}
}

// RandomStarSpanner is an expectation-only comparator in the spirit of the
// symmetry breaking of Jia et al. [43]: every vertex whose rounded density
// is locally maximal flips a fair coin and, on heads, adds its densest star.
// It produces valid 2-spanners with a ratio that holds only in expectation —
// individual runs can be far off, which experiment E6 contrasts with the
// paper's always-guaranteed ratio.
func RandomStarSpanner(g *graph.Graph, seed int64) *graph.EdgeSet {
	rng := rand.New(rand.NewSource(seed))
	m := g.M()
	H := graph.NewEdgeSet(m)
	covered := graph.NewEdgeSet(m)
	var s graph.Searcher
	refreshCoverage(&s, g, H, covered)
	slot := make([]int, g.N())
	for round := 0; round < 40*g.N(); round++ {
		// Recompute densities (coarse; this is a comparator, not the
		// contribution).
		type starInfo struct {
			star    []int
			density float64
		}
		infos := make([]starInfo, g.N())
		maxD := 0.0
		for v := 0; v < g.N(); v++ {
			star, _, d := densestStarOf(g, covered, v, slot)
			infos[v] = starInfo{star: star, density: d}
			if d > maxD {
				maxD = d
			}
		}
		if maxD <= 1 {
			break
		}
		progressed := false
		for v := 0; v < g.N(); v++ {
			if infos[v].density <= 1 {
				continue
			}
			// Locally maximal by rounded density within 2 hops.
			localMax := true
			for _, u := range g.Ball(v, 2) {
				if roundPow2(infos[u].density) > roundPow2(infos[v].density) {
					localMax = false
					break
				}
			}
			if !localMax || rng.Intn(2) == 0 {
				continue
			}
			for _, u := range infos[v].star {
				if idx, ok := g.EdgeIndex(v, u); ok {
					H.Add(idx)
				}
			}
			progressed = true
		}
		if progressed {
			refreshCoverage(&s, g, H, covered)
		}
	}
	for i := 0; i < m; i++ {
		if !covered.Has(i) {
			H.Add(i)
		}
	}
	return H
}

func roundPow2(x float64) float64 {
	if x <= 0 {
		return 0
	}
	p := 1.0
	for p <= x {
		p *= 2
	}
	for p/2 > x {
		p /= 2
	}
	return p
}
