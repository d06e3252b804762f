package decomp

import (
	"testing"

	"distspanner/internal/gen"
)

func BenchmarkDistributedLinialSaks(b *testing.B) {
	g := gen.ConnectedGNP(60, 0.08, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DistributedLinialSaks(g, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
