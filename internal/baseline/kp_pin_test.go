package baseline

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"distspanner/internal/gen"
	"distspanner/internal/graph"
	"distspanner/internal/span"
)

// Pins for KortsarzPeleg: the exact spanner the sequential greedy returns
// on fixed graphs, as its size, its cost and an FNV-1a digest of its
// sorted edge indices. Every densest-star choice feeds the next
// iteration's coverage, so a single differing selection anywhere in the
// run moves the pin. The weighted instances carry zero-weight edges, which
// exercise the free-neighbor bonuses of the densest-star instance.
var kpPins = []struct {
	graph  string
	seed   int64
	size   int
	cost   float64
	digest uint64
}{
	{"gnp40", 1, 136, 136, 0x924a69b3666bab05},
	{"gnp40", 2, 141, 141, 0xe37ffc45984167a7},
	{"gnp40", 3, 142, 142, 0x870766c4a0912454},
	{"planted", 1, 29, 29, 0x1dc6cb34b1c8466a},
	{"planted", 2, 29, 29, 0xe5a663e5e2debbc3},
	{"geometric", 1, 65, 65, 0x960e9118f51ab60e},
	{"geometric", 2, 64, 64, 0x62145fe3636b3c50},
	{"clique12", 1, 11, 11, 0x985223c91153ca3b},
	{"wint", 1, 134, 411, 0x4eea25a724703712},
	{"wint", 2, 154, 524, 0xfb4dee7215b5241f},
	{"wint", 3, 142, 425, 0xc2e2c26584b8064d},
	{"wreal", 1, 118, 180.8933997582185, 0xed2c364418dc8892},
	{"wreal", 2, 122, 172.6092411001658, 0xf4d7db13d3f5c889},
	{"wreal", 3, 106, 149.71038205399054, 0x1fb8109a8ab97f4},
}

// kpPinGraph builds the named pin graph for seed. The weighted families
// give each edge weight 0 with probability 0.2 and otherwise an integer
// weight in [1, 8] (wint) or a real weight in [0.5, 4) (wreal).
func kpPinGraph(name string, seed int64) *graph.Graph {
	switch name {
	case "gnp40":
		return gen.ConnectedGNP(40, 0.25, seed)
	case "planted":
		return gen.PlantedStars(3, 8, 0.4, seed)
	case "geometric":
		return gen.Geometric(40, 0.3, seed)
	case "clique12":
		return gen.Clique(12)
	case "wint", "wreal":
		g := gen.ConnectedGNP(32, 0.3, seed)
		rng := rand.New(rand.NewSource(seed + 100))
		for i := 0; i < g.M(); i++ {
			switch {
			case rng.Float64() < 0.2:
				g.SetWeight(i, 0)
			case name == "wint":
				g.SetWeight(i, float64(1+rng.Intn(8)))
			default:
				g.SetWeight(i, 0.5+3.5*rng.Float64())
			}
		}
		return g
	}
	panic("unknown pin graph " + name)
}

func edgeDigest(h *graph.EdgeSet) uint64 {
	d := fnv.New64a()
	for _, i := range h.Slice() {
		fmt.Fprintf(d, "%d,", i)
	}
	return d.Sum64()
}

// TestKortsarzPelegPinned checks every pin.
func TestKortsarzPelegPinned(t *testing.T) {
	for _, pin := range kpPins {
		g := kpPinGraph(pin.graph, pin.seed)
		h := KortsarzPeleg(g)
		if !span.IsKSpanner(g, h, 2) {
			t.Fatalf("%s seed %d: output is not a 2-spanner", pin.graph, pin.seed)
		}
		size, cost, digest := h.Len(), span.Cost(g, h), edgeDigest(h)
		if size != pin.size || cost != pin.cost || digest != pin.digest {
			t.Errorf("%s seed %d: got {%d, %v, %#x}, want {%d, %v, %#x}",
				pin.graph, pin.seed, size, cost, digest, pin.size, pin.cost, pin.digest)
		}
	}
}
