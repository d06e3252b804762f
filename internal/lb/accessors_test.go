package lb

import "testing"

func TestFig2CutSideAndDisjoint(t *testing.T) {
	l := 3
	a, b := DisjointInputs(l*l, 0.4, 1)
	f, err := NewFig2(l, a, b)
	if err != nil {
		t.Fatal(err)
	}
	side := f.CutSide()
	bobCount := 0
	for _, s := range side {
		if s {
			bobCount++
		}
	}
	if bobCount != 2*l {
		t.Fatalf("Bob simulates %d vertices, want |Y1| = 2ℓ = %d", bobCount, 2*l)
	}
	if !f.Disjoint() {
		t.Fatal("disjoint inputs misreported")
	}
	a2, b2 := IntersectingInputs(l*l, 1, 0.3, 2)
	fu, err := NewFig2Undirected(l, 4, a2, b2)
	if err != nil {
		t.Fatal(err)
	}
	if fu.Disjoint() {
		t.Fatal("intersecting undirected inputs misreported")
	}
	// The cost of D on the weighted construction.
	cost := f.G.TotalWeight(f.D)
	if cost != float64(l*l) {
		t.Fatalf("D costs %f, want ℓ² = %d", cost, l*l)
	}
}
