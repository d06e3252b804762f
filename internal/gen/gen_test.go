package gen

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGNPDeterministic(t *testing.T) {
	a := GNP(30, 0.3, 7)
	b := GNP(30, 0.3, 7)
	if a.M() != b.M() {
		t.Fatalf("same seed produced different graphs: %d vs %d edges", a.M(), b.M())
	}
	for i := 0; i < a.M(); i++ {
		if a.Edge(i) != b.Edge(i) {
			t.Fatalf("edge %d differs between identical seeds", i)
		}
	}
	c := GNP(30, 0.3, 8)
	if a.M() == c.M() {
		same := true
		for i := 0; i < a.M(); i++ {
			if a.Edge(i) != c.Edge(i) {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical graphs")
		}
	}
}

func TestGNPExtremes(t *testing.T) {
	if g := GNP(10, 0, 1); g.M() != 0 {
		t.Fatalf("G(n,0) has %d edges", g.M())
	}
	if g := GNP(10, 1, 1); g.M() != 45 {
		t.Fatalf("G(10,1) has %d edges, want 45", g.M())
	}
}

func TestConnectedGNP(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := ConnectedGNP(40, 0.02, seed)
		if !g.Connected() {
			t.Fatalf("ConnectedGNP produced disconnected graph at seed %d", seed)
		}
		if g.M() < 39 {
			t.Fatalf("connected graph on 40 vertices has only %d edges", g.M())
		}
	}
}

func TestCompleteBipartite(t *testing.T) {
	g := CompleteBipartite(3, 4)
	if g.N() != 7 || g.M() != 12 {
		t.Fatalf("K(3,4): n=%d m=%d, want 7, 12", g.N(), g.M())
	}
	// No edges within a side.
	for u := 0; u < 3; u++ {
		for v := u + 1; v < 3; v++ {
			if g.HasEdge(u, v) {
				t.Fatalf("edge inside side A: {%d,%d}", u, v)
			}
		}
	}
	for u := 3; u < 7; u++ {
		for v := u + 1; v < 7; v++ {
			if g.HasEdge(u, v) {
				t.Fatalf("edge inside side B: {%d,%d}", u, v)
			}
		}
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(4)
	if g.N() != 16 {
		t.Fatalf("Q4 has %d vertices, want 16", g.N())
	}
	if g.M() != 32 { // d * 2^(d-1)
		t.Fatalf("Q4 has %d edges, want 32", g.M())
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("Q4 vertex %d has degree %d, want 4", v, g.Degree(v))
		}
	}
	if !g.Connected() {
		t.Fatal("hypercube disconnected")
	}
	if Hypercube(0).N() != 1 {
		t.Fatal("Q0 must be a single vertex")
	}
}

func TestGrid(t *testing.T) {
	g := Grid(3, 5)
	if g.N() != 15 {
		t.Fatalf("grid N = %d, want 15", g.N())
	}
	// Edges: 3*4 horizontal + 2*5 vertical = 22.
	if g.M() != 22 {
		t.Fatalf("grid M = %d, want 22", g.M())
	}
	if !g.Connected() {
		t.Fatal("grid disconnected")
	}
	if g.MaxDegree() != 4 {
		t.Fatalf("grid max degree %d, want 4", g.MaxDegree())
	}
}

func TestSmallFamilies(t *testing.T) {
	if g := Path(5); g.M() != 4 || !g.Connected() {
		t.Fatal("path wrong")
	}
	if g := Cycle(5); g.M() != 5 || g.MaxDegree() != 2 {
		t.Fatal("cycle wrong")
	}
	if g := Star(6); g.M() != 5 || g.Degree(0) != 5 {
		t.Fatal("star wrong")
	}
	if g := Clique(5); g.M() != 10 {
		t.Fatal("clique wrong")
	}
}

func TestPlantedStars(t *testing.T) {
	g := PlantedStars(4, 6, 0.3, 3)
	if g.N() != 28 {
		t.Fatalf("planted stars N = %d, want 28", g.N())
	}
	if !g.Connected() {
		t.Fatal("planted stars disconnected (hub chain must connect)")
	}
	// Each hub has degree >= s.
	for i := 0; i < 4; i++ {
		if g.Degree(i*7) < 6 {
			t.Fatalf("hub %d has degree %d < 6", i*7, g.Degree(i*7))
		}
	}
}

func TestRandomDigraph(t *testing.T) {
	g := RandomDigraph(20, 0.5, 11)
	if g.N() != 20 {
		t.Fatal("wrong vertex count")
	}
	if g.M() == 0 || g.M() >= 380 {
		t.Fatalf("implausible edge count %d", g.M())
	}
	h := RandomDigraph(20, 0.5, 11)
	if g.M() != h.M() {
		t.Fatal("same seed produced different digraphs")
	}
}

func TestOrientRandomly(t *testing.T) {
	g := Clique(6)
	d := OrientRandomly(g, 0, 5)
	if d.M() != g.M() {
		t.Fatalf("one-way orientation M = %d, want %d", d.M(), g.M())
	}
	d2 := OrientRandomly(g, 1, 5)
	if d2.M() != 2*g.M() {
		t.Fatalf("two-way orientation M = %d, want %d", d2.M(), 2*g.M())
	}
}

func TestRandomWeights(t *testing.T) {
	g := RandomWeights(GNP(15, 0.5, 2), 1, 10, 3)
	if !g.Weighted() {
		t.Fatal("graph not weighted after RandomWeights")
	}
	for i := 0; i < g.M(); i++ {
		w := g.Weight(i)
		if w < 1 || w > 10 {
			t.Fatalf("weight %f outside [1,10]", w)
		}
	}
}

// RandomWeights refuses a range it cannot draw from: a negative or NaN
// bound, lo above hi, or an infinite hi.
func TestRandomWeightsRejectsBadRange(t *testing.T) {
	for _, r := range [][2]float64{{-1, 4}, {8, 2}, {math.NaN(), 4}, {1, math.NaN()}, {1, math.Inf(1)}, {math.Inf(1), math.Inf(1)}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RandomWeights(lo=%v, hi=%v) did not panic", r[0], r[1])
				}
			}()
			RandomWeights(GNP(5, 0.5, 1), r[0], r[1], 1)
		}()
	}
}

func TestClientServerSplitCoversAllEdges(t *testing.T) {
	g := GNP(25, 0.4, 9)
	clients, servers := ClientServerSplit(g, 0.4, 0.4, 1)
	for i := 0; i < g.M(); i++ {
		if !clients.Has(i) && !servers.Has(i) {
			t.Fatalf("edge %d is neither client nor server", i)
		}
	}
}

// Property: G(n,p) never produces self-loops, duplicates, or out-of-range
// vertices, and edge count is at most C(n,2).
func TestGNPSimpleProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 2 + int(seed%29+29)%29
		g := GNP(n, 0.4, seed)
		if g.M() > n*(n-1)/2 {
			return false
		}
		seen := map[[2]int]bool{}
		for i := 0; i < g.M(); i++ {
			e := g.Edge(i)
			if e.U < 0 || e.V >= n || e.U >= e.V {
				return false
			}
			key := [2]int{e.U, e.V}
			if seen[key] {
				return false
			}
			seen[key] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomBipartite(t *testing.T) {
	g := RandomBipartite(5, 7, 0.5, 3)
	if g.N() != 12 {
		t.Fatalf("N = %d, want 12", g.N())
	}
	for i := 0; i < g.M(); i++ {
		e := g.Edge(i)
		if (e.U < 5) == (e.V < 5) {
			t.Fatalf("edge %v inside one side", e)
		}
	}
	if RandomBipartite(4, 4, 1, 1).M() != 16 {
		t.Fatal("p=1 must produce the complete bipartite graph")
	}
}
