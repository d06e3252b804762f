package flow

import (
	"math/rand"
	"testing"
)

func BenchmarkMaxFlowRandom(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	type edge struct {
		u, v int
		c    float64
	}
	var edges []edge
	const n = 60
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < 0.1 {
				edges = append(edges, edge{u, v, 1 + rng.Float64()*4})
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewDinic(n)
		for _, e := range edges {
			d.AddEdge(e.u, e.v, e.c)
		}
		d.MaxFlow(0, n-1)
	}
}

func BenchmarkDensestSelection(b *testing.B) {
	in := unitInstance(40, 0.3, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Densest(in); err != nil {
			b.Fatal(err)
		}
	}
}
