package decomp

import (
	"reflect"
	"testing"

	"distspanner/internal/dist"
	"distspanner/internal/gen"
	"distspanner/internal/graph"
)

// Pins for DistributedLinialSaks: the full engine accounting and the
// exact decomposition for fixed (graph, seed) pairs. They hold the
// protocol's logical behaviour fixed — round structure, message sizes,
// and the per-vertex radius draws — so any change to how the protocol is
// executed must reproduce them bit for bit. gnp80 is large enough for
// the engine to step machines in parallel.
var lsPins = []struct {
	graph   string
	seed    int64
	stats   dist.Stats
	cluster []int
	color   []int
	colors  int
}{
	{"gnp20", 1, dist.Stats{Rounds: 65, Messages: 451, TotalBits: 10927, MaxMessageBits: 80, MaxEdgeRoundBits: 80, ActiveSteps: 694, PeakActive: 20},
		[]int{15, 15, 15, 3, 4, 15, 6, 15, 15, 9, 15, 11, 15, 15, 15, 15, 16, 17, 18, 19},
		[]int{0, 0, 0, 4, 1, 0, 2, 3, 0, 2, 0, 3, 3, 3, 3, 3, 4, 0, 1, 0}, 5},
	{"gnp20", 2, dist.Stats{Rounds: 65, Messages: 400, TotalBits: 10372, MaxMessageBits: 65, MaxEdgeRoundBits: 65, ActiveSteps: 331, PeakActive: 20},
		[]int{18, 18, 18, 18, 18, 18, 18, 18, 18, 18, 18, 18, 18, 18, 18, 18, 18, 18, 18, 19},
		[]int{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4}, 5},
	{"grid4x5", 1, dist.Stats{Rounds: 78, Messages: 221, TotalBits: 3737, MaxMessageBits: 50, MaxEdgeRoundBits: 50, ActiveSteps: 604, PeakActive: 20},
		[]int{15, 2, 2, 9, 9, 15, 15, 12, 8, 9, 15, 15, 12, 13, 14, 15, 16, 17, 18, 19},
		[]int{0, 1, 1, 0, 0, 0, 0, 3, 1, 2, 0, 0, 3, 4, 5, 0, 4, 0, 1, 0}, 6},
	{"grid4x5", 2, dist.Stats{Rounds: 65, Messages: 249, TotalBits: 4627, MaxMessageBits: 50, MaxEdgeRoundBits: 50, ActiveSteps: 396, PeakActive: 20},
		[]int{15, 15, 2, 18, 4, 15, 6, 18, 18, 18, 10, 18, 18, 18, 18, 18, 18, 18, 18, 19},
		[]int{0, 0, 2, 0, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 4}, 5},
	{"gnp80", 1, dist.Stats{Rounds: 51, Messages: 2380, TotalBits: 164338, MaxMessageBits: 217, MaxEdgeRoundBits: 217, ActiveSteps: 1608, PeakActive: 80},
		[]int{78, 78, 78, 78, 78, 78, 78, 78, 78, 78, 78, 78, 78, 78, 78, 78, 78, 17, 78, 78,
			78, 21, 78, 78, 78, 78, 78, 78, 78, 78, 78, 78, 78, 78, 78, 78, 78, 37, 66, 78,
			66, 78, 78, 78, 78, 78, 78, 78, 78, 78, 78, 78, 78, 78, 78, 78, 78, 78, 78, 78,
			60, 78, 78, 78, 78, 78, 66, 78, 78, 78, 78, 78, 78, 78, 78, 78, 78, 78, 78, 79},
		[]int{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0,
			0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0,
			1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
			1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2}, 3},
	{"gnp80", 2, dist.Stats{Rounds: 136, Messages: 3212, TotalBits: 175223, MaxMessageBits: 196, MaxEdgeRoundBits: 196, ActiveSteps: 3037, PeakActive: 80},
		[]int{0, 79, 79, 79, 79, 79, 74, 79, 69, 69, 79, 11, 79, 79, 79, 79, 79, 79, 67, 79,
			79, 79, 22, 79, 54, 74, 79, 79, 79, 67, 79, 67, 79, 67, 79, 35, 79, 79, 42, 67,
			74, 41, 42, 74, 79, 69, 79, 79, 79, 79, 79, 79, 79, 79, 54, 79, 56, 79, 79, 69,
			69, 79, 79, 63, 79, 79, 79, 67, 68, 69, 70, 71, 72, 74, 74, 75, 76, 79, 79, 79},
		[]int{1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 1, 2, 1, 1, 1, 1, 1, 1, 0, 1,
			1, 1, 4, 1, 3, 0, 1, 1, 1, 0, 1, 0, 1, 0, 1, 2, 1, 1, 2, 0,
			0, 4, 2, 0, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 4, 1, 3, 1, 1, 0,
			0, 1, 1, 4, 1, 1, 1, 3, 0, 0, 7, 0, 6, 0, 0, 2, 0, 1, 1, 1}, 8},
}

func lsPinGraph(name string) *graph.Graph {
	switch name {
	case "gnp20":
		return gen.ConnectedGNP(20, 0.2, 3)
	case "grid4x5":
		return gen.Grid(4, 5)
	case "gnp80":
		return gen.ConnectedGNP(80, 0.06, 4)
	}
	panic("unknown pin graph " + name)
}

// TestDistributedLinialSaksPinned checks every pin in-process and
// sharded (3 shards over the channel transport): both runs must
// reproduce the pinned Stats and decomposition.
func TestDistributedLinialSaksPinned(t *testing.T) {
	for _, pin := range lsPins {
		g := lsPinGraph(pin.graph)
		for _, shards := range []int{0, 3} {
			d, stats, err := linialSaks(dist.Config{Graph: g, Seed: pin.seed, Shards: shards})
			if err != nil {
				t.Fatalf("%s seed %d shards %d: %v", pin.graph, pin.seed, shards, err)
			}
			if *stats != pin.stats {
				t.Errorf("%s seed %d shards %d: stats\n got %+v\nwant %+v", pin.graph, pin.seed, shards, *stats, pin.stats)
			}
			if !reflect.DeepEqual(d.Cluster, pin.cluster) || !reflect.DeepEqual(d.Color, pin.color) || d.NumColors != pin.colors {
				t.Errorf("%s seed %d shards %d: decomposition\n got cluster %v color %v (%d colors)\nwant cluster %v color %v (%d colors)",
					pin.graph, pin.seed, shards, d.Cluster, d.Color, d.NumColors, pin.cluster, pin.color, pin.colors)
			}
		}
	}
}
