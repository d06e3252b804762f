package trace

import (
	"testing"

	"distspanner/internal/core"
	"distspanner/internal/dist"
	"distspanner/internal/gen"
	"distspanner/internal/graph"
	"distspanner/internal/mds"
)

// algoFamilies enumerates the dist-engine algorithm families the
// scenario registry exposes, each run the way its scenario runs it,
// in-process (shards == 0) or sharded across that many workers.
var algoFamilies = []struct {
	name string
	run  func(g *graph.Graph, seed int64, shards int, tr dist.Tracer) error
}{
	{"twospanner", func(g *graph.Graph, seed int64, shards int, tr dist.Tracer) error {
		_, err := core.TwoSpanner(g, core.Options{Seed: seed, Shards: shards, Tracer: tr})
		return err
	}},
	{"congest", func(g *graph.Graph, seed int64, shards int, tr dist.Tracer) error {
		_, err := core.TwoSpannerCongest(g, core.Options{Seed: seed, Shards: shards, Tracer: tr})
		return err
	}},
	{"directed", func(g *graph.Graph, seed int64, shards int, tr dist.Tracer) error {
		d := gen.OrientRandomly(g, 0.3, seed)
		_, err := core.DirectedTwoSpanner(d, core.Options{Seed: seed, Shards: shards, Tracer: tr})
		return err
	}},
	{"cs", func(g *graph.Graph, seed int64, shards int, tr dist.Tracer) error {
		clients, servers := gen.ClientServerSplit(g, 0.5, 0.8, seed)
		_, err := core.ClientServerTwoSpanner(g, clients, servers, core.Options{Seed: seed, Shards: shards, Tracer: tr})
		return err
	}},
	{"weighted", func(g *graph.Graph, seed int64, shards int, tr dist.Tracer) error {
		wg := g.Clone()
		gen.RandomWeights(wg, 1, 8, seed)
		_, err := core.TwoSpanner(wg, core.Options{Seed: seed, Shards: shards, Tracer: tr})
		return err
	}},
	{"mds", func(g *graph.Graph, seed int64, shards int, tr dist.Tracer) error {
		_, err := mds.Run(g, mds.Options{Seed: seed, Shards: shards, Tracer: tr})
		return err
	}},
}

// Golden run digests for a fixed (graph, seed) per algorithm family.
// These pin the logical transcript itself — message contents, order,
// and vertex lifecycle — not just agreement between execution paths: an
// engine or algorithm change that alters the transcript (even one the
// sharded runner agrees with) must show up here and be consciously
// re-golded.
// Regenerate by running the test: the failure output prints the
// observed values to paste in.
var goldenDigests = map[string]string{
	"twospanner": "11fcb251292f7b19",
	"congest":    "ca5c42e5d213250d",
	"directed":   "abd24ebf829de00d",
	"cs":         "97a13eeb96572506",
	"weighted":   "d09b61af9888478b",
	"mds":        "ea285d0489bf314a",
}

func TestGoldenDigests(t *testing.T) {
	g := gen.ConnectedGNP(32, 0.2, 1)
	const seed = 1
	for _, fam := range algoFamilies {
		t.Run(fam.name, func(t *testing.T) {
			rec := NewRecorder(g.N())
			if err := fam.run(g, seed, 0, rec); err != nil {
				t.Fatal(err)
			}
			got := rec.Digest().Run
			want, ok := goldenDigests[fam.name]
			if !ok {
				t.Fatalf("no golden digest for family %q; observed %q", fam.name, got)
			}
			if got != want {
				t.Errorf("digest = %q, golden = %q — the logical transcript changed; re-gold only if intentional", got, want)
			}
		})
	}
}
