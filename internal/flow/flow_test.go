package flow

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMaxFlowDiamond(t *testing.T) {
	// s=0, t=3; two disjoint paths of capacity 3 and 2, plus a cross edge.
	d := NewDinic(4)
	d.AddEdge(0, 1, 3)
	d.AddEdge(0, 2, 2)
	d.AddEdge(1, 3, 2)
	d.AddEdge(2, 3, 3)
	d.AddEdge(1, 2, 1)
	got := d.MaxFlow(0, 3)
	if math.Abs(got-5) > 1e-6 {
		t.Fatalf("max flow = %f, want 5", got)
	}
}

func TestMaxFlowBottleneck(t *testing.T) {
	// Chain 0 -> 1 -> 2 with caps 10, 1.
	d := NewDinic(3)
	d.AddEdge(0, 1, 10)
	d.AddEdge(1, 2, 1)
	if got := d.MaxFlow(0, 2); math.Abs(got-1) > 1e-6 {
		t.Fatalf("max flow = %f, want 1", got)
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	d := NewDinic(4)
	d.AddEdge(0, 1, 5)
	d.AddEdge(2, 3, 5)
	if got := d.MaxFlow(0, 3); got != 0 {
		t.Fatalf("max flow across disconnected = %f, want 0", got)
	}
}

func TestMinCutSide(t *testing.T) {
	// 0 -> 1 (cap 1) -> 2 (cap 100): min cut is the first edge, so the
	// source side is {0}.
	d := NewDinic(3)
	d.AddEdge(0, 1, 1)
	d.AddEdge(1, 2, 100)
	d.MaxFlow(0, 2)
	side := d.MinCutSourceSide()
	if !side[0] || side[1] || side[2] {
		t.Fatalf("cut side = %v, want [true false false]", side)
	}
}

func TestDinicPanics(t *testing.T) {
	d := NewDinic(2)
	mustPanic(t, "same s and t", func() { d.MaxFlow(1, 1) })
	mustPanic(t, "negative cap", func() { d.AddEdge(0, 1, -1) })
	mustPanic(t, "out of range", func() { d.AddEdge(0, 2, 1) })
}

// Property: max-flow from 0 to n-1 in a random network equals the brute
// min-cut over all vertex bipartitions (checked on tiny networks).
func TestMaxFlowMinCutProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(4) // 3..6 nodes
		caps := make(map[[2]int]float64)
		d := NewDinic(n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Float64() < 0.5 {
					c := float64(1 + rng.Intn(5))
					d.AddEdge(u, v, c)
					caps[[2]int{u, v}] += c
				}
			}
		}
		got := d.MaxFlow(0, n-1)

		// Brute-force min cut: enumerate all source sides containing 0 and
		// not n-1.
		best := math.Inf(1)
		for mask := 0; mask < 1<<uint(n); mask++ {
			if mask&1 == 0 || mask&(1<<uint(n-1)) != 0 {
				continue
			}
			cut := 0.0
			for e, c := range caps {
				if mask&(1<<uint(e[0])) != 0 && mask&(1<<uint(e[1])) == 0 {
					cut += c
				}
			}
			if cut < best {
				best = cut
			}
		}
		return math.Abs(got-best) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDensestTriangle(t *testing.T) {
	// Three items of cost 1 forming a triangle of pairs: the densest
	// selection is all three, density 3/3 = 1.
	in := &DensestInstance{
		NumItems: 3,
		Cost:     []float64{1, 1, 1},
		Bonus:    []float64{0, 0, 0},
		Pairs:    [][2]int{{0, 1}, {1, 2}, {0, 2}},
	}
	sel, density, err := Densest(in)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(density-1) > 1e-6 {
		t.Fatalf("density = %f, want 1", density)
	}
	for u, s := range sel {
		if !s {
			t.Fatalf("item %d not selected; want all of the triangle", u)
		}
	}
}

func TestDensestPrefersDenseCore(t *testing.T) {
	// Items 0..3 form a K4 (6 pairs); item 4 dangles with one pair to 0.
	// K4 alone has density 6/4 = 1.5; adding item 4 gives 7/5 = 1.4.
	in := &DensestInstance{
		NumItems: 5,
		Cost:     []float64{1, 1, 1, 1, 1},
		Bonus:    []float64{0, 0, 0, 0, 0},
		Pairs:    [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {0, 4}},
	}
	sel, density, err := Densest(in)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(density-1.5) > 1e-6 {
		t.Fatalf("density = %f, want 1.5", density)
	}
	if sel[4] {
		t.Fatal("dangling item selected; it dilutes density")
	}
}

func TestDensestNoPairs(t *testing.T) {
	// No pairs, no bonuses: density 0, but the selection must be non-empty.
	in := &DensestInstance{
		NumItems: 3,
		Cost:     []float64{1, 1, 1},
		Bonus:    []float64{0, 0, 0},
	}
	sel, density, err := Densest(in)
	if err != nil {
		t.Fatal(err)
	}
	if density != 0 {
		t.Fatalf("density = %f, want 0", density)
	}
	count := 0
	for _, s := range sel {
		if s {
			count++
		}
	}
	if count == 0 {
		t.Fatal("selection must be non-empty even at density 0")
	}
}

func TestDensestBonusOnly(t *testing.T) {
	// Item 1 has bonus 5 at cost 2 (ratio 2.5); item 0 has bonus 1 at cost
	// 1. Selecting only item 1 is best.
	in := &DensestInstance{
		NumItems: 2,
		Cost:     []float64{1, 2},
		Bonus:    []float64{1, 5},
	}
	sel, density, err := Densest(in)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(density-2.5) > 1e-6 {
		t.Fatalf("density = %f, want 2.5", density)
	}
	if sel[0] || !sel[1] {
		t.Fatalf("selection = %v, want only item 1", sel)
	}
}

func TestDensestWeightedCosts(t *testing.T) {
	// A pair between two items of cost 0.5 each: density = 1/1 = 1.
	// A competing pair between items of cost 2 each: density 1/4.
	in := &DensestInstance{
		NumItems: 4,
		Cost:     []float64{0.5, 0.5, 2, 2},
		Bonus:    []float64{0, 0, 0, 0},
		Pairs:    [][2]int{{0, 1}, {2, 3}},
	}
	sel, density, err := Densest(in)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(density-1) > 1e-6 {
		t.Fatalf("density = %f, want 1", density)
	}
	if !sel[0] || !sel[1] || sel[2] || sel[3] {
		t.Fatalf("selection = %v, want items 0,1 only", sel)
	}
}

func TestDensestValidation(t *testing.T) {
	if _, _, err := Densest(&DensestInstance{NumItems: 0}); err == nil {
		t.Fatal("zero items must error")
	}
	bad := &DensestInstance{NumItems: 1, Cost: []float64{0}, Bonus: []float64{0}}
	if _, _, err := Densest(bad); err == nil {
		t.Fatal("zero cost must error")
	}
	badPair := &DensestInstance{
		NumItems: 2, Cost: []float64{1, 1}, Bonus: []float64{0, 0},
		Pairs: [][2]int{{0, 0}},
	}
	if _, _, err := Densest(badPair); err == nil {
		t.Fatal("self-pair must error")
	}
}

// Property: Densest matches brute-force enumeration on random instances of
// up to 12 items with unit costs. Some instances must need several min-cut
// solves, so the reuse of one flow network across Dinkelbach steps is
// exercised.
func TestDensestMatchesBruteProperty(t *testing.T) {
	maxSolves := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(11) // 2..12 items
		in := &DensestInstance{
			NumItems: n,
			Cost:     make([]float64, n),
			Bonus:    make([]float64, n),
		}
		for u := 0; u < n; u++ {
			in.Cost[u] = 1
			if rng.Intn(4) == 0 {
				in.Bonus[u] = float64(rng.Intn(3))
			}
		}
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if rng.Float64() < 0.4 {
					in.Pairs = append(in.Pairs, [2]int{a, b})
				}
			}
		}
		return matchesBrute(in, &maxSolves)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
	if maxSolves < 3 {
		t.Fatalf("no instance needed more than %d min-cut solves; network reuse untested", maxSolves)
	}
}

// matchesBrute reports whether Densest's density equals the best density
// over all non-empty selections, and whether the returned selection
// achieves it. It raises *maxSolves to the instance's solve count.
func matchesBrute(in *DensestInstance, maxSolves *int) bool {
	sel, got, err := Densest(in)
	if err != nil {
		return false
	}
	if _, _, solves := in.dinkelbach(); solves > *maxSolves {
		*maxSolves = solves
	}
	if p, c := in.Value(sel); math.Abs(p/c-got) > 1e-9 {
		return false
	}
	n := in.NumItems
	best := 0.0
	T := make([]bool, n)
	for mask := 1; mask < 1<<uint(n); mask++ {
		for u := 0; u < n; u++ {
			T[u] = mask&(1<<uint(u)) != 0
		}
		p, c := in.Value(T)
		if d := p / c; d > best {
			best = d
		}
	}
	return math.Abs(got-best) < 1e-6
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	fn()
}

// Property: Densest with non-unit costs matches brute force on up to 12
// items, again with some instances needing several min-cut solves.
func TestDensestWeightedMatchesBruteProperty(t *testing.T) {
	maxSolves := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(11) // 2..12 items
		in := &DensestInstance{
			NumItems: n,
			Cost:     make([]float64, n),
			Bonus:    make([]float64, n),
		}
		for u := 0; u < n; u++ {
			in.Cost[u] = 0.5 + float64(rng.Intn(4))
			in.Bonus[u] = float64(rng.Intn(2))
		}
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if rng.Float64() < 0.5 {
					in.Pairs = append(in.Pairs, [2]int{a, b})
				}
			}
		}
		return matchesBrute(in, &maxSolves)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	if maxSolves < 3 {
		t.Fatalf("no instance needed more than %d min-cut solves; network reuse untested", maxSolves)
	}
}

// Densest builds its flow network once per call, so what it allocates does
// not depend on how many Dinkelbach steps it takes: an instance needing
// three min-cut solves allocates exactly as much as one that stops after
// the first.
func TestDensestAllocsIndependentOfSteps(t *testing.T) {
	multi := unitInstance(40, 0.3, 2)
	if _, _, solves := multi.dinkelbach(); solves < 3 {
		t.Fatalf("fixture takes %d min-cut solves, want >= 3", solves)
	}
	single := unitInstance(40, 0, 2) // no pairs: the first solve finds no gain
	if _, _, solves := single.dinkelbach(); solves != 1 {
		t.Fatalf("pairless fixture takes %d min-cut solves, want 1", solves)
	}
	allocs := func(in *DensestInstance) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, _, err := Densest(in); err != nil {
				t.Fatal(err)
			}
		})
	}
	got, base := allocs(multi), allocs(single)
	if got != base {
		t.Fatalf("Densest allocates %.0f objects over 3+ solves but %.0f over one", got, base)
	}
	if got > 16 {
		t.Fatalf("Densest allocates %.0f objects per call, want a small constant", got)
	}
}

// unitInstance returns a densest instance over k unit-cost items, pairing
// each two items with probability p.
func unitInstance(k int, p float64, seed int64) *DensestInstance {
	rng := rand.New(rand.NewSource(seed))
	in := &DensestInstance{NumItems: k, Cost: make([]float64, k), Bonus: make([]float64, k)}
	for i := 0; i < k; i++ {
		in.Cost[i] = 1
	}
	for a := 0; a < k; a++ {
		for c := a + 1; c < k; c++ {
			if rng.Float64() < p {
				in.Pairs = append(in.Pairs, [2]int{a, c})
			}
		}
	}
	return in
}
