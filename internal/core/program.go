package core

import (
	"errors"

	"distspanner/internal/dist"
	"distspanner/internal/graph"
)

// Shard-program exports for the distributed runner (dist.ServeShard):
// each constructor returns the program its local runner runs — the
// machine factory, the engine topology, the bandwidth budget and a
// per-vertex output reader, packaged as a dist.ShardProgram. A worker
// resolves its program deterministically from the instance and seed,
// and the coordinator merges the outputs. The algorithm code is
// transport-oblivious: the local runners hand these same programs to
// dist.RunLocal; only the delivery layer differs.

// program is the shard program of r's machines with the plain LOCAL
// factory. Output(v) lists vertex v's incident spanner edge indices,
// sorted.
func (r *uRun) program() dist.ShardProgram {
	return dist.ShardProgram{Graph: r.g, Factory: r.factory(), Output: r.output}
}

// TwoSpannerProgram is the shard program of TwoSpanner (plain or
// weighted, chosen by g.Weighted()).
func TwoSpannerProgram(g *graph.Graph, opts Options) dist.ShardProgram {
	return newURun(g, twoSpannerVariant(g.Weighted()), opts).program()
}

// ClientServerTwoSpannerProgram is the shard program of
// ClientServerTwoSpanner.
func ClientServerTwoSpannerProgram(g *graph.Graph, clients, servers *graph.EdgeSet, opts Options) (dist.ShardProgram, error) {
	v, err := clientServerVariant(g, clients, servers)
	if err != nil {
		return dist.ShardProgram{}, err
	}
	return newURun(g, v, opts).program(), nil
}

// TwoSpannerCongestProgram is the shard program of TwoSpannerCongest:
// the fragmenting CONGEST adapter under the enforced budget
// CongestBandwidth(g.N()).
func TwoSpannerCongestProgram(g *graph.Graph, opts Options) (dist.ShardProgram, error) {
	_, prog, err := newCongestRun(g, opts)
	return prog, err
}

// newCongestRun builds the run and program of the CONGEST variant.
func newCongestRun(g *graph.Graph, opts Options) (*uRun, dist.ShardProgram, error) {
	if g.Weighted() {
		return nil, dist.ShardProgram{}, errors.New("core: the CONGEST variant is unweighted (densities ship as count rationals)")
	}
	ru := newURun(g, twoSpannerVariant(false), opts)
	return ru, dist.ShardProgram{
		Graph:     g,
		Bandwidth: CongestBandwidth(g.N()),
		Factory:   congestFactory(ru),
		Output:    ru.output,
	}, nil
}

// DirectedTwoSpannerProgram is the shard program of DirectedTwoSpanner.
// The engine topology is d's underlying undirected graph (it has the
// same vertex count), and Output(v) lists arc indices of d.
func DirectedTwoSpannerProgram(d *graph.Digraph, opts Options) dist.ShardProgram {
	return newDirectedRun(d, opts).program()
}
