package core

import (
	"errors"

	"distspanner/internal/dist"
	"distspanner/internal/graph"
)

// Shard-program exports for the distributed runner (dist.ServeShard):
// each constructor returns the same machine factory the local runners
// use, plus a per-vertex output reader, packaged as a dist.ShardProgram.
// A worker resolves its program deterministically from (graph, seed) —
// every auxiliary input (orientations, edge-set splits) must be derived
// the same way on every worker — and the coordinator merges the outputs.
// The algorithm code is transport-oblivious: these factories are exactly
// the ones RunMachines gets; only the delivery layer differs.

// TwoSpannerProgram is the shard program of TwoSpanner (plain or
// weighted, chosen by g.Weighted()). Output(v) lists vertex v's
// incident spanner edge indices, sorted.
func TwoSpannerProgram(g *graph.Graph, opts Options) dist.ShardProgram {
	ru := newURun(g, twoSpannerVariant(g.Weighted()), opts)
	return dist.ShardProgram{
		Factory: ru.factory(),
		Output:  ru.output,
	}
}

// ClientServerTwoSpannerProgram is the shard program of
// ClientServerTwoSpanner.
func ClientServerTwoSpannerProgram(g *graph.Graph, clients, servers *graph.EdgeSet, opts Options) (dist.ShardProgram, error) {
	v, err := clientServerVariant(g, clients, servers)
	if err != nil {
		return dist.ShardProgram{}, err
	}
	ru := newURun(g, v, opts)
	return dist.ShardProgram{
		Factory: ru.factory(),
		Output:  ru.output,
	}, nil
}

// TwoSpannerCongestProgram is the shard program of TwoSpannerCongest.
// The engine running it must enforce CongestBandwidth(g.N()) to
// reproduce the local runner bit-for-bit.
func TwoSpannerCongestProgram(g *graph.Graph, opts Options) (dist.ShardProgram, error) {
	if g.Weighted() {
		return dist.ShardProgram{}, errors.New("core: the CONGEST variant is unweighted (densities ship as count rationals)")
	}
	ru := newURun(g, twoSpannerVariant(false), opts)
	return dist.ShardProgram{
		Factory: congestFactory(ru),
		Output:  ru.output,
	}, nil
}

// DirectedTwoSpannerProgram is the shard program of DirectedTwoSpanner.
// The engine topology is d's underlying undirected graph, carried as
// the program's Graph override (it has the same vertex count).
func DirectedTwoSpannerProgram(d *graph.Digraph, opts Options) dist.ShardProgram {
	under, _ := d.Underlying()
	dr := newDirRun(d)
	return dist.ShardProgram{
		Graph:   under,
		Factory: dr.factory(),
		Output:  dr.output,
	}
}
