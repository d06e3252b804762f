package trace

import (
	"fmt"
	"testing"

	"distspanner/internal/gen"
	"distspanner/internal/graph"
)

// Digest equality across execution paths: every algorithm family, on
// scenario-representative instances, must produce the identical logical
// transcript (same Digest) in-process and sharded across three workers.
// The digest collapses the full per-vertex transcript, so any divergence
// in message content, order, lifecycle, or per-round activity fails
// here. TestShardCountDigestInvariance sweeps the other shard counts.
func TestCrossModeDigestEquality(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"gnp48":    gen.ConnectedGNP(48, 0.15, 1),
		"clique12": gen.Clique(12),
		"grid6":    gen.Grid(6, 6),
	}
	for _, fam := range algoFamilies {
		for gname, g := range graphs {
			for seed := int64(1); seed <= 2; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed=%d", fam.name, gname, seed), func(t *testing.T) {
					var ref Digest
					for i, shards := range []int{0, 3} {
						rec := NewRecorder(g.N())
						if err := fam.run(g, seed, shards, rec); err != nil {
							t.Fatalf("shards=%d: %v", shards, err)
						}
						if rec.EventCount() == 0 {
							t.Fatalf("shards=%d recorded no events", shards)
						}
						d := rec.Digest()
						if i == 0 {
							ref = d
							continue
						}
						if !d.Equal(ref) {
							t.Errorf("sharded digest %s diverged from in-process digest %s", d.Run, ref.Run)
							for v := range d.Vertex {
								if d.Vertex[v] != ref.Vertex[v] {
									t.Errorf("  first diverging vertex: %d", v)
									break
								}
							}
						}
					}
				})
			}
		}
	}
}
