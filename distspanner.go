// Package distspanner is a Go implementation of "Distributed Spanner
// Approximation" (Censor-Hillel and Dory, PODC 2018): distributed
// algorithms for approximating minimum k-spanners and minimum dominating
// sets, plus the paper's lower-bound constructions and the two-party
// simulation harness behind its CONGEST hardness results.
//
// The headline algorithm (Theorem 1.3) builds a 2-spanner with a
// guaranteed O(log(m/n)) approximation ratio in O(log n · log Δ) LOCAL
// rounds w.h.p., by combining locally-densest stars with a
// random-permutation voting scheme. Variants cover directed (Theorem 4.9),
// weighted (Theorem 4.12) and client-server (Theorem 4.15) spanners, a
// CONGEST O(log Δ)-guaranteed minimum dominating set (Theorem 5.1), and a
// LOCAL (1+ε)-approximation for minimum k-spanners via network
// decomposition (Theorem 1.2).
//
// Algorithms execute on a synchronous message-passing simulator: message
// sizes are metered in bits so LOCAL versus CONGEST behaviour is
// measurable, and runs are deterministic for a fixed seed. Every vertex
// is an explicit state machine stepped by one run-to-completion loop,
// with no per-vertex goroutine, which is what scales runs to millions of
// vertices on one box.
//
// Quick start:
//
//	g := distspanner.RandomGraph(64, 0.2, 1)
//	res, err := distspanner.Build2Spanner(g, distspanner.Options{Seed: 1})
//	if err != nil { ... }
//	ok := distspanner.VerifySpanner(g, res.Spanner, 2) // true
package distspanner

import (
	"distspanner/internal/baseline"
	"distspanner/internal/core"
	"distspanner/internal/gen"
	"distspanner/internal/graph"
	"distspanner/internal/localmodel"
	"distspanner/internal/mds"
	"distspanner/internal/span"
)

// Core graph types, re-exported for the public API.
type (
	// Graph is a simple undirected graph with indexed edges and optional
	// non-negative weights.
	Graph = graph.Graph
	// Digraph is a simple directed graph.
	Digraph = graph.Digraph
	// EdgeSet is a bitset over edge indices, used for spanners and covers.
	EdgeSet = graph.EdgeSet
	// Edge is a (directed or canonical undirected) vertex pair.
	Edge = graph.Edge
)

// NewGraph returns an empty undirected graph on n vertices.
func NewGraph(n int) *Graph { return graph.New(n) }

// NewDigraph returns an empty directed graph on n vertices.
func NewDigraph(n int) *Digraph { return graph.NewDigraph(n) }

// NewEdgeSet returns an empty edge set over a universe of m edges.
func NewEdgeSet(m int) *EdgeSet { return graph.NewEdgeSet(m) }

// Options configures the distributed spanner algorithms.
type Options = core.Options

// Result reports a distributed spanner construction: the spanner, its
// cost, the engine's round/message/bit statistics, and the iteration
// count.
type Result = core.Result

// Build2Spanner runs the paper's main algorithm (Theorem 1.3) on an
// undirected graph; weighted graphs automatically use the weighted variant
// (Theorem 4.12, ratio O(log Δ)).
func Build2Spanner(g *Graph, opts Options) (*Result, error) {
	return core.TwoSpanner(g, opts)
}

// BuildDirected2Spanner runs the directed variant (Theorem 4.9) with the
// same guarantees as the undirected case.
func BuildDirected2Spanner(d *Digraph, opts Options) (*Result, error) {
	return core.DirectedTwoSpanner(d, opts)
}

// BuildClientServer2Spanner runs the client-server variant (Theorem 4.15):
// cover every client edge using only server edges, with ratio
// O(min{log(|C|/|V(C)|), log Δ_S}).
func BuildClientServer2Spanner(g *Graph, clients, servers *EdgeSet, opts Options) (*Result, error) {
	return core.ClientServerTwoSpanner(g, clients, servers, opts)
}

// Build2SpannerAugment solves the 2-spanner augmentation problem of the
// Section 3 remarks: given already-owned initial edges, add the fewest
// further edges so the union 2-spans g. Cost counts only additions.
func Build2SpannerAugment(g *Graph, initial *EdgeSet, opts Options) (*Result, error) {
	return core.TwoSpannerAugment(g, initial, opts)
}

// StretchStats summarizes a spanner's per-edge stretch distribution.
type StretchStats = span.StretchStats

// AnalyzeStretch computes the stretch distribution of H over g's edges.
func AnalyzeStretch(g *Graph, H *EdgeSet, cap int) StretchStats {
	return span.Stretch(g, H, cap)
}

// MDSOptions configures the dominating-set algorithm.
type MDSOptions = mds.Options

// MDSResult reports the dominating set and CONGEST statistics.
type MDSResult = mds.Result

// BuildMDS runs the CONGEST minimum dominating set algorithm (Theorem
// 5.1): guaranteed O(log Δ) ratio, O(log n log Δ) rounds w.h.p., O(log n)
// bits per edge per round (enforced at runtime).
func BuildMDS(g *Graph, opts MDSOptions) (*MDSResult, error) {
	return mds.Run(g, opts)
}

// EpsilonOptions configures the (1+ε)-approximation.
type EpsilonOptions = localmodel.Options

// EpsilonResult reports the (1+ε) spanner and its LOCAL-model round
// accounting: the decomposition protocol's measured rounds plus a
// per-color formula for the neighborhood collection (see
// EstimatedRounds).
type EpsilonResult = localmodel.Result

// BuildEpsilonSpanner runs the LOCAL-model (1+ε)-approximation for minimum
// k-spanners (Theorem 1.2). Local computations are exponential by design
// (the LOCAL model allows it); intended for small instances.
func BuildEpsilonSpanner(g *Graph, opts EpsilonOptions) (*EpsilonResult, error) {
	return localmodel.EpsilonSpanner(g, opts)
}

// CongestResult extends Result with the fragmentation accounting of the
// CONGEST execution.
type CongestResult = core.CongestResult

// Build2SpannerCongest runs the unweighted 2-spanner algorithm in the
// CONGEST model: identical logic and output to Build2Spanner, with every
// message fragmented into O(log n)-bit chunks (enforced at runtime) at the
// price of Θ(Δ) physical rounds per logical round — the overhead the
// paper's Section 1.3 discussion describes.
func Build2SpannerCongest(g *Graph, opts Options) (*CongestResult, error) {
	return core.TwoSpannerCongest(g, opts)
}

// KortsarzPeleg runs the sequential greedy 2-spanner baseline [46], the
// O(log(m/n)) benchmark the distributed algorithm matches.
func KortsarzPeleg(g *Graph) *EdgeSet { return baseline.KortsarzPeleg(g) }

// GreedyKSpanner runs the classic sequential greedy spanner (girth > k+1,
// worst-case size O(n^{1+2/(k+1)})): the sparsity-oriented counterpoint to
// the paper's per-instance approximation objective.
func GreedyKSpanner(g *Graph, k int) *EdgeSet { return baseline.GreedyKSpanner(g, k) }

// FaultTolerant2Spanner builds an f-vertex-fault-tolerant 2-spanner (the
// generalization the paper attributes to Dinitz-Krauthgamer [21]): for
// every fault set F with |F| <= f, H - F still 2-spans G - F.
func FaultTolerant2Spanner(g *Graph, f int) *EdgeSet {
	return baseline.FaultTolerant2Spanner(g, f)
}

// VerifyFaultTolerant2Spanner exhaustively checks f-vertex-fault
// tolerance. Exponential in f; for small instances.
func VerifyFaultTolerant2Spanner(g *Graph, h *EdgeSet, f int) bool {
	return baseline.IsFaultTolerant2Spanner(g, h, f)
}

// BaswanaSenResult reports a Baswana-Sen construction.
type BaswanaSenResult = baseline.BaswanaSenResult

// BaswanaSen builds a (2k-1)-spanner of expected size O(k·n^{1+1/k}) in k
// CONGEST rounds [7, 28]: the undirected O(n^{1/k})-approximation baseline.
func BaswanaSen(g *Graph, k int, seed int64) *BaswanaSenResult {
	return baseline.BaswanaSen(g, k, seed)
}

// VerifySpanner reports whether H is a k-spanner of g.
func VerifySpanner(g *Graph, H *EdgeSet, k int) bool { return span.IsKSpanner(g, H, k) }

// VerifyDirectedSpanner reports whether H is a directed k-spanner of d.
func VerifyDirectedSpanner(d *Digraph, H *EdgeSet, k int) bool {
	return span.IsDirectedKSpanner(d, H, k)
}

// VerifyClientServer reports whether H solves the client-server instance.
func VerifyClientServer(g *Graph, clients, servers, H *EdgeSet, k int) bool {
	return span.ClientServerValid(g, clients, servers, H, k)
}

// SpannerCost returns the total weight of H (its size when unweighted).
func SpannerCost(g *Graph, H *EdgeSet) float64 { return span.Cost(g, H) }

// Convenience generators (deterministic in their seeds).

// RandomGraph returns a connected Erdős–Rényi graph G(n, p) plus a random
// spanning backbone.
func RandomGraph(n int, p float64, seed int64) *Graph { return gen.ConnectedGNP(n, p, seed) }

// RandomDigraph returns a random simple digraph with edge probability p
// per ordered pair.
func RandomDigraph(n int, p float64, seed int64) *Digraph { return gen.RandomDigraph(n, p, seed) }

// CompleteBipartite returns K_{a,b}, the classic dense 2-spanner workload.
func CompleteBipartite(a, b int) *Graph { return gen.CompleteBipartite(a, b) }

// Hypercube returns the d-dimensional hypercube.
func Hypercube(d int) *Graph { return gen.Hypercube(d) }

// RandomWeights assigns uniform random weights in [lo, hi] to g's edges.
func RandomWeights(g *Graph, lo, hi float64, seed int64) *Graph {
	return gen.RandomWeights(g, lo, hi, seed)
}

// ClientServerSplit randomly partitions g's edges into client and server
// roles (every edge gets at least one role).
func ClientServerSplit(g *Graph, pc, ps float64, seed int64) (clients, servers *EdgeSet) {
	return gen.ClientServerSplit(g, pc, ps, seed)
}

// GeometricGraph returns a random geometric graph (n uniform points in the
// unit square, edges within the given radius): the standard sensor-network
// workload.
func GeometricGraph(n int, radius float64, seed int64) *Graph {
	return gen.Geometric(n, radius, seed)
}

// PreferentialAttachment returns a Barabási-Albert graph with heavy-tailed
// degrees — the workload where dense stars are plentiful.
func PreferentialAttachment(n, m int, seed int64) *Graph {
	return gen.PreferentialAttachment(n, m, seed)
}
