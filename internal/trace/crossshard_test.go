package trace

import (
	"fmt"
	"testing"

	"distspanner/internal/gen"
	"distspanner/internal/graph"
)

// The logical transcript must be invariant under the shard count.
// Running a family distributed across 1, 2, 4, or 7 shard workers
// (Options.Shards, in-process channel transport) must produce per-vertex
// digests identical to the in-process engine — partitioning is an
// execution detail, not an algorithm input. The reference is shards == 0.

var shardCounts = []int{1, 2, 4, 7}

func TestShardCountDigestInvariance(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"gnp48":    gen.ConnectedGNP(48, 0.15, 1),
		"clique12": gen.Clique(12),
		"grid6":    gen.Grid(6, 6),
	}
	for _, fam := range algoFamilies {
		for gname, g := range graphs {
			for seed := int64(1); seed <= 2; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed=%d", fam.name, gname, seed), func(t *testing.T) {
					rec := NewRecorder(g.N())
					if err := fam.run(g, seed, 0, rec); err != nil {
						t.Fatalf("reference run: %v", err)
					}
					if rec.EventCount() == 0 {
						t.Fatal("reference run recorded no events")
					}
					ref := rec.Digest()
					for _, shards := range shardCounts {
						rec := NewRecorder(g.N())
						if err := fam.run(g, seed, shards, rec); err != nil {
							t.Fatalf("shards=%d: %v", shards, err)
						}
						d := rec.Digest()
						if d.Equal(ref) {
							continue
						}
						t.Errorf("shards=%d digest %s diverged from unsharded digest %s",
							shards, d.Run, ref.Run)
						for v := range d.Vertex {
							if d.Vertex[v] != ref.Vertex[v] {
								t.Errorf("  first diverging vertex: %d", v)
								break
							}
						}
					}
				})
			}
		}
	}
}
