package core

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"strconv"
	"testing"

	"distspanner/internal/dist"
	"distspanner/internal/gen"
	"distspanner/internal/graph"
)

// Pins for DirectedTwoSpanner: the whole Result and the engine's Stats
// for fixed (digraph, seed) pairs. The instances reach every part of the
// directed protocol: termination records whose (tail, head) pairs name
// a live neighbor (lollipop, hubring), parking (tail), two iterations
// over a graph dense in two-way pairs (gnp128), a complete digraph
// (rdg40), and a small instance that stops at iteration 0 (rdg20).
var directedPins = []struct {
	name       string
	seed       int64
	size       int
	cost       float64
	edges      string // FNV-1a over the sorted spanner edge indices
	iterations int
	per        []IterationStat
	fallbacks  int64
	stats      dist.Stats
}{
	{"lollipop", 1, 138, 138, "f7483fd39cbddaf8", 1, []IterationStat{{16, 2, 38}, {0, 0, 18}}, 0,
		dist.Stats{Rounds: 12, Messages: 2550, TotalBits: 465114, MaxMessageBits: 320, MaxEdgeRoundBits: 320, ActiveSteps: 444, PeakActive: 56}},
	{"hubring", 1, 2252, 2252, "c5a5e41967f6557b", 1, []IterationStat{{192, 126, 264}, {0, 0, 248}}, 0,
		dist.Stats{Rounds: 12, Messages: 17056, TotalBits: 3175632, MaxMessageBits: 322, MaxEdgeRoundBits: 322, ActiveSteps: 4560, PeakActive: 512}},
	{"tail", 1, 802, 802, "fcd4d02e219f6356", 2, []IterationStat{{1, 1, 0}, {24, 14, 0}, {0, 0, 200}}, 0,
		dist.Stats{Rounds: 19, Messages: 12330, TotalBits: 2707508, MaxMessageBits: 320, MaxEdgeRoundBits: 320, ActiveSteps: 3634, ParkedSteps: 166, PeakActive: 200}},
	{"tail", 2, 710, 710, "c32879b0085086d8", 2, []IterationStat{{2, 2, 0}, {8, 8, 0}, {0, 0, 200}}, 0,
		dist.Stats{Rounds: 19, Messages: 12062, TotalBits: 2563827, MaxMessageBits: 352, MaxEdgeRoundBits: 352, ActiveSteps: 3718, ParkedSteps: 82, PeakActive: 200}},
	{"gnp128", 1, 2567, 2567, "f15a09d81f39692b", 2, []IterationStat{{124, 26, 0}, {42, 13, 0}, {0, 0, 128}}, 0,
		dist.Stats{Rounds: 19, Messages: 66286, TotalBits: 16436070, MaxMessageBits: 514, MaxEdgeRoundBits: 514, ActiveSteps: 2432, PeakActive: 128}},
	{"rdg40", 1, 78, 78, "a6854c7fe59c7c0d", 1, []IterationStat{{40, 1, 0}, {0, 0, 40}}, 0,
		dist.Stats{Rounds: 12, Messages: 14159, TotalBits: 3354948, MaxMessageBits: 462, MaxEdgeRoundBits: 462, ActiveSteps: 480, PeakActive: 40}},
	{"rdg20", 1, 93, 93, "b02a0d60ba145ff0", 0, []IterationStat{{0, 0, 20}}, 0,
		dist.Stats{Rounds: 5, Messages: 656, TotalBits: 126529, MaxMessageBits: 320, MaxEdgeRoundBits: 320, ActiveSteps: 100, PeakActive: 20}},
}

// directedPinGraph builds the digraph a pin names; the pin's seed
// drives the generator, the orientation and the run.
func directedPinGraph(name string, seed int64) *graph.Digraph {
	switch name {
	case "lollipop":
		return gen.OrientRandomly(lollipop(16, 40), 1.0, seed)
	case "hubring":
		return gen.OrientRandomly(hubRing(512, 64, 24), 1.0, seed)
	case "tail":
		return gen.OrientRandomly(tailInstance(48, 200, seed), 1.0, seed)
	case "gnp128":
		return gen.OrientRandomly(gen.ConnectedGNP(128, 0.3, seed), 0.9, seed)
	case "rdg40":
		return gen.RandomDigraph(40, 1.1, seed)
	case "rdg20":
		return gen.RandomDigraph(20, 0.25, seed)
	}
	panic("unknown pin digraph " + name)
}

// lollipop is a k-clique on 0..k-1 with a path of tail further vertices
// hanging off vertex k-1.
func lollipop(k, tail int) *graph.Graph {
	g := graph.New(k + tail)
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			g.AddEdge(a, b)
		}
	}
	for v := k; v < k+tail; v++ {
		g.AddEdge(v-1, v)
	}
	return g
}

// edgeDigest is the FNV-1a hash of the sorted edge indices of s, each
// written in decimal and followed by a comma.
func edgeDigest(s *graph.EdgeSet) string {
	h := fnv.New64a()
	for _, e := range s.Slice() {
		h.Write(strconv.AppendInt(nil, int64(e), 10))
		h.Write([]byte{','})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestDirectedTwoSpannerPinned checks every pin in-process and sharded
// (3 shards over the channel transport). A mismatch prints the observed
// values in the table's field order.
func TestDirectedTwoSpannerPinned(t *testing.T) {
	for _, pin := range directedPins {
		d := directedPinGraph(pin.name, pin.seed)
		for _, shards := range []int{0, 3} {
			res, err := DirectedTwoSpanner(d, Options{Seed: pin.seed, Shards: shards})
			if err != nil {
				t.Fatalf("%s seed %d shards %d: %v", pin.name, pin.seed, shards, err)
			}
			got := []any{res.Spanner.Len(), res.Cost, edgeDigest(res.Spanner), res.Iterations, res.PerIteration, res.Fallbacks, res.Stats}
			want := []any{pin.size, pin.cost, pin.edges, pin.iterations, pin.per, pin.fallbacks, pin.stats}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s seed %d shards %d: result differs from the pin; observed\n%v %v %q %d %+v %d\n%+v",
					pin.name, pin.seed, shards, res.Spanner.Len(), res.Cost, edgeDigest(res.Spanner),
					res.Iterations, res.PerIteration, res.Fallbacks, res.Stats)
			}
		}
	}
}
