// Package distrun names the algorithm families runnable on the
// distributed transport. A family couples a worker-side shard program
// with the engine parameters (bandwidth budget, enforcement) the run
// needs; everything an instance requires beyond the base graph —
// orientations, edge-set splits, weights — is derived deterministically
// from (graph, seed), so every worker reconstructs the same instance
// from its SetupFrame and the in-process reference run is comparable
// bit-for-bit. The algorithm code itself is transport-oblivious: the
// same factories run under RunMachines and under ServeShard.
package distrun

import (
	"fmt"

	"distspanner/internal/core"
	"distspanner/internal/dist"
	"distspanner/internal/gen"
	"distspanner/internal/graph"
	"distspanner/internal/mds"
)

// Family is one distributed-runnable algorithm family.
type Family struct {
	// Name is the registry key, carried as SetupFrame.Algo.
	Name string
	// Bandwidth returns the per-edge per-round bit budget for an
	// n-vertex run; nil means unmetered.
	Bandwidth func(n int) int
	// Enforce aborts the run on a budget violation (CONGEST families).
	Enforce bool
	// Program builds the shard program for the instance (g, seed).
	Program func(g *graph.Graph, seed int64) (dist.ShardProgram, error)
}

// Aux-input derivation constants. Fixed so that (family, g, seed)
// fully determines the instance on every worker and in every reference
// run.
const (
	directedTwoWay = 0.3 // gen.OrientRandomly two-way probability
	csClientP      = 0.5 // gen.ClientServerSplit client probability
	csServerP      = 0.8 // gen.ClientServerSplit server probability
	weightLo       = 1   // gen.RandomWeights range
	weightHi       = 8
)

var families = []Family{
	{
		Name: "twospanner",
		Program: func(g *graph.Graph, seed int64) (dist.ShardProgram, error) {
			return core.TwoSpannerProgram(g, core.Options{}), nil
		},
	},
	{
		Name:      "congest",
		Bandwidth: core.CongestBandwidth,
		Enforce:   true,
		Program: func(g *graph.Graph, seed int64) (dist.ShardProgram, error) {
			return core.TwoSpannerCongestProgram(g, core.Options{})
		},
	},
	{
		Name: "directed",
		Program: func(g *graph.Graph, seed int64) (dist.ShardProgram, error) {
			d := gen.OrientRandomly(g, directedTwoWay, seed)
			return core.DirectedTwoSpannerProgram(d, core.Options{}), nil
		},
	},
	{
		Name: "cs",
		Program: func(g *graph.Graph, seed int64) (dist.ShardProgram, error) {
			clients, servers := gen.ClientServerSplit(g, csClientP, csServerP, seed)
			return core.ClientServerTwoSpannerProgram(g, clients, servers, core.Options{})
		},
	},
	{
		Name: "weighted",
		Program: func(g *graph.Graph, seed int64) (dist.ShardProgram, error) {
			wg := g.Clone()
			gen.RandomWeights(wg, weightLo, weightHi, seed)
			prog := core.TwoSpannerProgram(wg, core.Options{})
			// The engine may as well run on the weighted clone: identical
			// topology, and the workers' instance is self-contained.
			prog.Graph = wg
			return prog, nil
		},
	},
	{
		Name:      "mds",
		Bandwidth: mds.DefaultBandwidth,
		Enforce:   true,
		Program: func(g *graph.Graph, seed int64) (dist.ShardProgram, error) {
			return mds.Program(g, mds.Options{}), nil
		},
	},
}

// Names lists the registered families in registration order.
func Names() []string {
	out := make([]string, len(families))
	for i, f := range families {
		out[i] = f.Name
	}
	return out
}

// Get looks a family up by name.
func Get(name string) (Family, bool) {
	for _, f := range families {
		if f.Name == name {
			return f, true
		}
	}
	return Family{}, false
}

// Resolver maps SetupFrame.Algo names through the registry — the
// ProgramResolver worker processes (cmd/node) serve with.
func Resolver() dist.ProgramResolver {
	return func(algo string, g *graph.Graph, seed int64) (dist.ShardProgram, error) {
		f, ok := Get(algo)
		if !ok {
			return dist.ShardProgram{}, fmt.Errorf("distrun: unknown family %q", algo)
		}
		return f.Program(g, seed)
	}
}

func (f Family) bandwidth(n int) int {
	if f.Bandwidth == nil {
		return 0
	}
	return f.Bandwidth(n)
}

// CoordConfig builds the coordinator configuration for one distributed
// run of the family on (g, seed): the family's bandwidth/enforcement
// plus output collection.
func (f Family) CoordConfig(g *graph.Graph, seed int64) dist.CoordConfig {
	return dist.CoordConfig{
		Graph: g, Seed: seed, Algo: f.Name,
		Bandwidth: f.bandwidth(g.N()), Enforce: f.Enforce,
		Collect: true,
	}
}

// RunLocal executes the family in-process on the step engine — the
// reference a conformant transport must reproduce bit-for-bit. It
// returns the per-vertex outputs (the same shape CoordResult.Outputs
// has) and the run's Stats.
func (f Family) RunLocal(g *graph.Graph, seed int64, tracer dist.Tracer) ([][]int, *dist.Stats, error) {
	prog, err := f.Program(g, seed)
	if err != nil {
		return nil, nil, err
	}
	engineG := g
	if prog.Graph != nil {
		engineG = prog.Graph
	}
	stats, err := dist.RunMachines(dist.Config{
		Graph: engineG, Seed: seed,
		Bandwidth: f.bandwidth(g.N()), Enforce: f.Enforce,
		Tracer: tracer,
	}, prog.Factory)
	if err != nil {
		return nil, nil, err
	}
	outs := make([][]int, g.N())
	if prog.Output != nil {
		for v := range outs {
			outs[v] = prog.Output(v)
		}
	}
	return outs, stats, nil
}
