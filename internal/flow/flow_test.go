package flow

import (
	"math"
	"math/rand"
	"slices"
	"sync"
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

// Property: Densest, and the singleton start it falls back to, match
// brute-force enumeration on random instances of up to 12 items with unit
// costs. Some instances must take the singleton start through several
// min-cut solves, so the reuse of one flow network across Dinkelbach steps
// is exercised.
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
// achieves it; the same for the singleton start, which Densest falls back
// to. It raises *maxSolves to the singleton start's solve count.
func matchesBrute(in *DensestInstance, maxSolves *int) bool {
	sel, got, err := Densest(in)
	if err != nil {
		return false
	}
	ref, refDensity, solves := singletonStart(in)
	*maxSolves = max(*maxSolves, solves)
	best := bruteDensity(in)
	for _, c := range []struct {
		sel     []bool
		density float64
	}{{sel, got}, {ref, refDensity}} {
		if p, cost := in.Value(c.sel); math.Abs(p/cost-c.density) > 1e-9 || math.Abs(c.density-best) >= 1e-6 {
			return false
		}
	}
	return true
}

// bruteDensity returns the best density over all non-empty selections of
// a small instance.
func bruteDensity(in *DensestInstance) float64 {
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
	return best
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

// Property: Densest and its singleton start match brute force with
// non-unit costs on up to 12 items, again with some instances taking the
// singleton start through several min-cut solves.
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

// Densest builds at most one flow network per call, in buffers its
// pooled solver keeps, so once they have grown a call allocates nothing
// beyond the selection it returns, whatever path the instance takes: no
// profit on offer, the peeled start answered at its first solve or
// needing more, or the singleton start. The solver is held directly
// rather than drawn from Densest's pool, whose reuse the race detector
// randomizes.
func TestDensestAllocsIndependentOfSteps(t *testing.T) {
	fixtures := []struct {
		name   string
		in     *DensestInstance
		peeled bool
		solves int
	}{
		{"no profit", unitInstance(40, 0, 2), false, 0},
		{"peeled, first solve", unitInstance(40, 0.3, 2), true, 1},
		{"peeled, more solves", randomInstance(rand.New(rand.NewSource(19))), true, 4},
		{"singleton start", randomInstance(rand.New(rand.NewSource(47))), false, 3},
	}
	s := new(solver)
	for _, f := range fixtures {
		if _, _, peeled, solves := s.densest(f.in); peeled != f.peeled || solves != f.solves {
			t.Fatalf("%s fixture: peeled start %v after %d min-cut solves, want %v after %d", f.name, peeled, solves, f.peeled, f.solves)
		}
	}
	for _, f := range fixtures {
		if got := testing.AllocsPerRun(20, func() { s.densest(f.in) }); got != 0 {
			t.Errorf("%s: a warm solver allocates %.0f objects per call, want 0", f.name, got)
		}
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

// singletonStart runs Dinkelbach from the best singleton over the network
// of the whole instance, as Densest does when the peeled set is not
// denser, and as it did on every instance before it peeled. It also
// returns the number of min-cut solves taken. Densest must return exactly
// what it returns.
func singletonStart(in *DensestInstance) (best []bool, density float64, solves int) {
	s := new(solver)
	single, g := bestSingleton(in)
	s.best = make([]bool, in.NumItems)
	s.best[single] = true
	return s.dinkelbach(in, s.goldberg(in, nil), g)
}

// selectionNetwork builds into s.net the project-selection network for the
// instance and returns the total profit on offer. It has one node per item
// and one per pair: source -> item with capacity Bonus[u], item -> sink
// with capacity g*Cost[u], source -> pair with capacity 1, and pair -> each
// of its items with infinite capacity. Its minimal min cut selects the
// minimal maximizer of the same gain as Goldberg's network, with a node per
// pair instead of an arc, so it is the reference Densest must match.
func (s *solver) selectionNetwork(in *DensestInstance) float64 {
	totalProfit := 0.0
	for _, b := range in.Bonus {
		totalProfit += b
	}
	totalProfit += float64(len(in.Pairs))
	inf := totalProfit + 1
	pairNode := func(p int) int { return 2 + in.NumItems + p }
	var arcs []netArc
	s.items = s.items[:0]
	for u := 0; u < in.NumItems; u++ {
		if in.Bonus[u] > 0 {
			arcs = append(arcs, netArc{source, itemNode(u), in.Bonus[u], 0})
		}
		arcs = append(arcs, netArc{itemNode(u), sink, 0, 0})
		s.items = append(s.items, u)
	}
	for p, pr := range in.Pairs {
		arcs = append(arcs,
			netArc{source, pairNode(p), 1, 0},
			netArc{pairNode(p), itemNode(pr[0]), inf, 0},
			netArc{pairNode(p), itemNode(pr[1]), inf, 0})
	}
	s.net.build(2+in.NumItems+len(in.Pairs), arcs)
	return totalProfit
}

// randomInstance draws a densest instance of 1-90 items with unit,
// integer (1-16) or real costs, integer bonuses 0-3 on some items, and a
// pair density drawn per instance.
func randomInstance(rng *rand.Rand) *DensestInstance {
	k := 1 + rng.Intn(90)
	in := &DensestInstance{NumItems: k, Cost: make([]float64, k), Bonus: make([]float64, k)}
	costs := rng.Intn(3)
	bonusP := []float64{0, 0.1, 0.5}[rng.Intn(3)]
	for u := 0; u < k; u++ {
		switch costs {
		case 0:
			in.Cost[u] = 1
		case 1:
			in.Cost[u] = float64(1 + rng.Intn(16))
		default:
			in.Cost[u] = 0.01 + 10*rng.Float64()
		}
		if rng.Float64() < bonusP {
			in.Bonus[u] = float64(rng.Intn(4))
		}
	}
	p := 0.01 + 0.3*rng.Float64()*rng.Float64()
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			if rng.Float64() < p {
				in.Pairs = append(in.Pairs, [2]int{a, b})
			}
		}
	}
	return in
}

// TestGoldbergMatchesSelectionNetwork is the differential check of the
// network swap. On 10,000 seeded random instances it steps Dinkelbach's
// densities through Goldberg's network and the project-selection network
// side by side and requires the same selection at every step. Densest
// must then return that run's final selection with the same density bits,
// and every path Densest can take must be taken by enough instances: no
// profit on offer, the singleton start, and the peeled start answered at
// its first solve or needing more.
func TestGoldbergMatchesSelectionNetwork(t *testing.T) {
	const instances = 10000
	steps, deep := 0, 0
	paths := []struct {
		name        string
		count, want int
	}{{"no profit", 0, 200}, {"singleton start", 0, 2000}, {"peeled, first solve", 0, 800}, {"peeled, more solves", 0, 1500}}
	for seed := int64(0); seed < instances; seed++ {
		in := randomInstance(rand.New(rand.NewSource(seed)))
		gs, rs := new(solver), new(solver)
		gProfit, rProfit := gs.goldberg(in, nil), rs.selectionNetwork(in)
		gT, rT := make([]bool, in.NumItems), make([]bool, in.NumItems)
		// Dinkelbach's start: the best singleton.
		best := make([]bool, in.NumItems)
		bestIdx := 0
		for u := range in.Cost {
			if in.Bonus[u]/in.Cost[u] > in.Bonus[bestIdx]/in.Cost[bestIdx] {
				bestIdx = u
			}
		}
		best[bestIdx] = true
		g := in.Bonus[bestIdx] / in.Cost[bestIdx]
		for step := 1; ; step++ {
			steps++
			gOK := gs.maxGainSelection(in, gProfit, g, gT)
			rOK := rs.maxGainSelection(in, rProfit, g, rT)
			if gOK != rOK || (gOK && !slices.Equal(gT, rT)) {
				t.Fatalf("seed %d step %d (g=%v): Goldberg %v %v, selection network %v %v", seed, step, g, gOK, gT, rOK, rT)
			}
			if !gOK {
				break
			}
			profit, cost := in.Value(gT)
			if profit/cost <= g+eps {
				break
			}
			copy(best, gT)
			g = profit / cost
			if step == 3 {
				deep++
			}
		}
		sel, d, err := Densest(in)
		if err != nil || math.Float64bits(d) != math.Float64bits(g) || !slices.Equal(sel, best) {
			t.Fatalf("seed %d: Densest %v %v %v, selection network %v %v", seed, sel, d, err, best, g)
		}
		switch _, _, peeled, solves := new(solver).densest(in); {
		case solves == 0:
			paths[0].count++
		case !peeled:
			paths[1].count++
		case solves == 1:
			paths[2].count++
		default:
			paths[3].count++
		}
	}
	if deep < instances/10 {
		t.Fatalf("only %d instances took more than three steps; the comparison is too shallow", deep)
	}
	for _, p := range paths {
		if p.count < p.want {
			t.Errorf("only %d instances took the path %q, want at least %d", p.count, p.name, p.want)
		}
	}
	t.Logf("%d instances, %d min-cut steps compared, %d instances took 4+ steps; paths %v", instances, steps, deep, paths)
}

// TestDensestConcurrent calls Densest from several goroutines, each on a
// different instance at any moment, and requires every answer to equal a
// single-goroutine run of the same instance: pooled solvers must never be
// shared between callers or leak state from one instance into the next.
func TestDensestConcurrent(t *testing.T) {
	const workers, calls = 4, 48
	ins := make([]*DensestInstance, 12)
	wantSel := make([][]bool, len(ins))
	wantD := make([]float64, len(ins))
	for i := range ins {
		ins[i] = randomInstance(rand.New(rand.NewSource(int64(100 + i))))
		sel, d, err := Densest(ins[i])
		if err != nil {
			t.Fatal(err)
		}
		wantSel[i], wantD[i] = sel, d
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for c := 0; c < calls; c++ {
				i := (w*len(ins)/workers + c) % len(ins)
				sel, d, err := Densest(ins[i])
				if err != nil || math.Float64bits(d) != math.Float64bits(wantD[i]) || !slices.Equal(sel, wantSel[i]) {
					t.Errorf("worker %d instance %d: got %v %v %v, want %v %v", w, i, sel, d, err, wantSel[i], wantD[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
