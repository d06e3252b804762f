package scenario

import (
	"fmt"
	"math"
	"sort"

	"distspanner/internal/gen"
	"distspanner/internal/graph"
)

// GraphSpec is a declarative graph source: a family name from the family
// registry plus optional fixed parameter overrides. Build resolves the
// family's parameters from (Fixed layered under the cell's Params) and the
// run seed, so one scenario can sweep any family axis — including the
// family itself ("family=clique,sbm,expander").
type GraphSpec struct {
	// Family names the generator; empty means the cell's "family" param
	// (default "cgnp").
	Family string
	// Fixed is layered under the cell parameters: the cell wins conflicts.
	Fixed Params
}

// Family is one registered graph generator.
type Family struct {
	// Name is the value of the "family" parameter selecting it.
	Name string
	// Params documents the parameters the builder reads (with defaults).
	Params string
	// Doc is a one-line description.
	Doc string
	// Build constructs the instance. Families with no internal randomness
	// ignore the seed.
	Build func(p Params, seed int64) *graph.Graph
}

// instanceSeed returns the seed a generator should use: the pinned
// "iseed" parameter when present (experiments replaying a fixed instance),
// the run seed otherwise (sweeps exploring fresh instances per replicate).
func instanceSeed(p Params, seed int64) int64 {
	return int64(p.Int("iseed", int(seed)))
}

var families = map[string]*Family{}

func registerFamily(f *Family) {
	if _, dup := families[f.Name]; dup {
		panic(fmt.Sprintf("scenario: graph family %q registered twice", f.Name))
	}
	families[f.Name] = f
}

// Families returns every registered graph family sorted by name.
func Families() []*Family {
	names := make([]string, 0, len(families))
	for n := range families {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Family, len(names))
	for i, n := range names {
		out[i] = families[n]
	}
	return out
}

func init() {
	for _, f := range []*Family{
		{"gnp", "n=32, p=0.2", "Erdős–Rényi G(n,p)", func(p Params, seed int64) *graph.Graph {
			return gen.GNP(p.Int("n", 32), p.Float("p", 0.2), instanceSeed(p, seed))
		}},
		{"cgnp", "n=32, p=0.2", "G(n,p) conditioned on connectivity (spanning-tree backbone)", func(p Params, seed int64) *graph.Graph {
			return gen.ConnectedGNP(p.Int("n", 32), p.Float("p", 0.2), instanceSeed(p, seed))
		}},
		{"clique", "n=16", "complete graph K_n", func(p Params, seed int64) *graph.Graph {
			return gen.Clique(p.Int("n", 16))
		}},
		{"bipartite", "a=8, b=8", "complete bipartite K_{a,b} (the 2-spanner worst case)", func(p Params, seed int64) *graph.Graph {
			return gen.CompleteBipartite(p.Int("a", 8), p.Int("b", 8))
		}},
		{"random-bipartite", "a=8, b=8, p=0.3", "random bipartite graph", func(p Params, seed int64) *graph.Graph {
			return gen.RandomBipartite(p.Int("a", 8), p.Int("b", 8), p.Float("p", 0.3), instanceSeed(p, seed))
		}},
		{"hypercube", "d=4", "d-dimensional hypercube (the synchronizer topology)", func(p Params, seed int64) *graph.Graph {
			return gen.Hypercube(p.Int("d", 4))
		}},
		{"grid", "rows=6, cols=6", "rows × cols grid", func(p Params, seed int64) *graph.Graph {
			return gen.Grid(p.Int("rows", 6), p.Int("cols", 6))
		}},
		{"path", "n=16", "path graph", func(p Params, seed int64) *graph.Graph {
			return gen.Path(p.Int("n", 16))
		}},
		{"cycle", "n=16", "cycle graph", func(p Params, seed int64) *graph.Graph {
			return gen.Cycle(p.Int("n", 16))
		}},
		{"star", "n=16", "star graph (center 0)", func(p Params, seed int64) *graph.Graph {
			return gen.Star(p.Int("n", 16))
		}},
		{"planted-stars", "c=4, s=8, q=0.4", "c hubs with s satellites each, satellites wired w.p. q", func(p Params, seed int64) *graph.Graph {
			return gen.PlantedStars(p.Int("c", 4), p.Int("s", 8), p.Float("q", 0.4), instanceSeed(p, seed))
		}},
		{"geometric", "n=64, radius=0.25", "random geometric graph in the unit square", func(p Params, seed int64) *graph.Graph {
			return gen.Geometric(p.Int("n", 64), p.Float("radius", 0.25), instanceSeed(p, seed))
		}},
		{"pref-attach", "n=64, m=2", "Barabási–Albert preferential attachment", func(p Params, seed int64) *graph.Graph {
			return gen.PreferentialAttachment(p.Int("n", 64), p.Int("m", 2), instanceSeed(p, seed))
		}},
		{"caterpillar", "spine=8, legs=3", "caterpillar tree (its own 2-spanner; a no-op workload)", func(p Params, seed int64) *graph.Graph {
			return gen.Caterpillar(p.Int("spine", 8), p.Int("legs", 3))
		}},
		{"lollipop", "c=3, s=6, bridge=3", "chain of c s-cliques joined by bridge-length paths", func(p Params, seed int64) *graph.Graph {
			return gen.LollipopChain(p.Int("c", 3), p.Int("s", 6), p.Int("bridge", 3))
		}},
		{"expander", "n=64, chords=2", "ring with random chords (expander-style, no dense stars)", func(p Params, seed int64) *graph.Graph {
			return gen.RingWithChords(p.Int("n", 64), p.Int("chords", 2), instanceSeed(p, seed))
		}},
		{"sbm", "n=64, comm=4, pin=0.5, pout=0.02", "stochastic block model with planted communities", func(p Params, seed int64) *graph.Graph {
			return gen.SBM(p.Int("n", 64), p.Int("comm", 4), p.Float("pin", 0.5), p.Float("pout", 0.02), instanceSeed(p, seed))
		}},
		{"wgeom", "n=64, radius=0.25", "geometric graph weighted by Euclidean edge length", func(p Params, seed int64) *graph.Graph {
			return gen.WeightedGeometric(p.Int("n", 64), p.Float("radius", 0.25), instanceSeed(p, seed))
		}},
	} {
		registerFamily(f)
	}
}

// Build resolves and constructs the instance for one cell. The optional
// "whi" parameter (with "wlo", default 1) layers uniform random weights in
// [wlo, whi] over any unweighted family, exercising the weighted
// algorithms on arbitrary topologies; whi must be finite and at least 0
// (0, the default, leaves the graph unweighted), and when it is positive
// wlo must lie in [0, whi]. A value the family builder or a parameter
// reader cannot use is returned as a *ParamError.
func (gs GraphSpec) Build(p Params, seed int64) (_ *graph.Graph, err error) {
	defer recoverParamError(&err)
	merged := gs.Fixed.Merge(p)
	name := gs.Family
	if name == "" {
		name = merged.Str("family", "cgnp")
	}
	f, ok := families[name]
	if !ok {
		return nil, &ParamError{Key: "family", Value: name, Want: "a registered graph family"}
	}
	whi, wlo := merged.Float("whi", 0), 1.0
	if !(whi >= 0) || math.IsInf(whi, 1) {
		return nil, &ParamError{Key: "whi", Value: merged.Str("whi", ""), Want: "a finite weight >= 0"}
	}
	if whi > 0 {
		if wlo = merged.Float("wlo", wlo); !(wlo >= 0 && wlo <= whi) {
			return nil, &ParamError{Key: "wlo", Value: merged.Str("wlo", "1"), Want: "a weight in [0, whi]"}
		}
	}
	g := f.Build(merged, seed)
	if whi > 0 {
		gen.RandomWeights(g, wlo, whi, instanceSeed(merged, seed)+0x5eed)
	}
	return g, nil
}

// BuildDigraph resolves a directed instance: family "rdg" is a random
// simple digraph (n, p), anything else is interpreted as an undirected
// family oriented uniformly at random with a "twoway" fraction of
// bidirected edges. Like Build, it returns a malformed value as a
// *ParamError.
func (gs GraphSpec) BuildDigraph(p Params, seed int64) (_ *graph.Digraph, err error) {
	defer recoverParamError(&err)
	merged := gs.Fixed.Merge(p)
	name := gs.Family
	if name == "" {
		name = merged.Str("family", "rdg")
	}
	if name == "rdg" {
		return gen.RandomDigraph(merged.Int("n", 24), merged.Float("p", 0.2), instanceSeed(merged, seed)), nil
	}
	under := gs
	under.Family = name
	g, err := under.Build(merged, seed)
	if err != nil {
		return nil, err
	}
	return gen.OrientRandomly(g, merged.Float("twoway", 0.5), instanceSeed(merged, seed)+0x0d1), nil
}

// recoverParamError turns a *ParamError panic, raised by a family builder
// or a parameter reader, into the error *err; any other panic goes on.
func recoverParamError(err *error) {
	if r := recover(); r != nil {
		perr, ok := r.(*ParamError)
		if !ok {
			panic(r)
		}
		*err = perr
	}
}
