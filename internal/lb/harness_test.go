package lb

import (
	"testing"
	"testing/quick"

	"distspanner/internal/dist"
	"distspanner/internal/graph"
)

func TestPairsBits(t *testing.T) {
	p := Pairs{Space: 16} // empty: one length word
	if p.Bits() != dist.IDBits(16) {
		t.Fatalf("empty Pairs = %d bits", p.Bits())
	}
	p.Values = append(p.Values, [2]int{1, 2}, [2]int{3, 4})
	if p.Bits() != 5*dist.IDBits(16) {
		t.Fatalf("2-pair Pairs = %d bits, want %d", p.Bits(), 5*dist.IDBits(16))
	}
	if got := p.rec().Ints; len(got) != 4 || got[0] != 1 || got[1] != 2 || got[2] != 3 || got[3] != 4 {
		t.Fatalf("Pairs record tail = %v, want [1 2 3 4]", got)
	}
}

// TestPairsBitsConformance audits the ball protocol's Pairs message.
func TestPairsBitsConformance(t *testing.T) {
	p := Pairs{Space: 100, Values: [][2]int{{1, 2}, {3, 4}, {5, 6}}}
	accounted := map[string]int{"Space": 0, "Values": 2 * dist.IDBits(100)}
	if err := dist.AuditPayloadFields(p, p.Bits(), accounted); err != nil {
		t.Fatal(err)
	}
}

func TestMeterLearnBallOnFig1(t *testing.T) {
	l, beta := 3, 4
	a, b := DisjointInputs(l*l, 0.4, 1)
	f, err := NewFig1(l, beta, a, b)
	if err != nil {
		t.Fatal(err)
	}
	comm, _ := f.G.Underlying()
	cut := f.CutSide()
	report, err := MeterLearnBall(comm, cut, 5, 32, l*l)
	if err != nil {
		t.Fatal(err)
	}
	if report.CutEdges != 3*l {
		t.Fatalf("cut edges = %d, want 3ℓ", report.CutEdges)
	}
	if report.Stats.CutBits == 0 {
		t.Fatal("learning 5-balls must push bits across the cut")
	}
	if report.ImpliedRounds <= 0 {
		t.Fatal("implied round bound missing")
	}
	// The implied bound for this instance: ℓ² bits through 3ℓ edges of 32
	// bits each.
	want := float64(l*l) / float64(3*l*32)
	if report.ImpliedRounds != want {
		t.Fatalf("implied rounds = %f, want %f", report.ImpliedRounds, want)
	}
}

func TestMeterLearnBallValidation(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1)
	if _, err := MeterLearnBall(g, []bool{true, false}, 0, 8, 4); err == nil {
		t.Fatal("depth 0 must error")
	}
}

func TestDecideDisjointnessRule(t *testing.T) {
	l, beta := 3, 45 // β > 7αℓ = 42 so that β² > α·7ℓβ for α = 2
	alpha := 2.0
	// Disjoint instance: even an adversarial α-approximation (optimal
	// plus α·t junk D-edges) must still be declared disjoint... the rule
	// tolerates up to α·t D-edges.
	a, b := DisjointInputs(l*l, 0.4, 3)
	f, err := NewFig1(l, beta, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if ThresholdGap(f, alpha) <= 0 {
		t.Fatalf("instance parameters leave no dichotomy margin: %f", ThresholdGap(f, alpha))
	}
	h := f.MinimalSpanner()
	// Adversarially pad with D-edges up to the α·t budget.
	budget := int(alpha * float64(7*f.L*f.Beta))
	added := 0
	f.D.ForEach(func(i int) {
		if added < budget && !h.Has(i) {
			h.Add(i)
			added++
		}
	})
	if !DecideDisjointness(f, h, alpha) {
		t.Fatal("rule rejected a valid α-approximate spanner of a disjoint instance")
	}

	// Intersecting instance: ANY k-spanner includes >= β² D-edges, which
	// exceeds α·t, so the rule must say "not disjoint" even on the
	// optimal spanner.
	a2, b2 := IntersectingInputs(l*l, 1, 0.3, 5)
	f2, err := NewFig1(l, beta, a2, b2)
	if err != nil {
		t.Fatal(err)
	}
	if DecideDisjointness(f2, f2.MinimalSpanner(), alpha) {
		t.Fatal("rule accepted an intersecting instance as disjoint")
	}
}

func TestDecideGapDisjointnessRule(t *testing.T) {
	// Gap regime: β ≤ ℓ; disjoint vs far-from-disjoint. Soundness needs
	// α·7 < β²/12, i.e. β² > 84α.
	l, beta := 12, 11
	alpha := 1.2
	// Soundness needs α·7ℓ² < β²ℓ²/12, i.e. α·7 < β²/12.
	if alpha*7 >= float64(beta*beta)/12 {
		t.Fatal("test parameters leave no gap margin")
	}
	a, b := DisjointInputs(l*l, 0.3, 2)
	f, err := NewFig1(l, beta, a, b)
	if err != nil {
		t.Fatal(err)
	}
	h := f.MinimalSpanner()
	// Pad up to α·t.
	budget := int(alpha * float64(7*f.L*f.L))
	added := 0
	f.D.ForEach(func(i int) {
		if added < budget && !h.Has(i) {
			h.Add(i)
			added++
		}
	})
	if DecideGapDisjointness(f, h, alpha) {
		t.Fatal("rule declared a disjoint instance far-from-disjoint")
	}
	af, bf := FarFromDisjointInputs(l*l, 4)
	f2, err := NewFig1(l, beta, af, bf)
	if err != nil {
		t.Fatal(err)
	}
	if !DecideGapDisjointness(f2, f2.MinimalSpanner(), alpha) {
		t.Fatal("rule missed a far-from-disjoint instance")
	}
}

// Property: with parameters satisfying the Theorem 1.1 margin (β > 7αℓ),
// the Lemma 2.4 decision rule classifies random disjoint and intersecting
// instances correctly from the structurally minimal spanner.
func TestDecisionRuleProperty(t *testing.T) {
	f := func(seed int64) bool {
		l := 2 + int((seed%2+2)%2) // 2..3
		alpha := 1.5
		beta := int(7*alpha*float64(l)) + 2
		var a, b []bool
		disjoint := seed%2 == 0
		if disjoint {
			a, b = DisjointInputs(l*l, 0.4, seed)
		} else {
			a, b = IntersectingInputs(l*l, 1, 0.3, seed)
		}
		fig, err := NewFig1(l, beta, a, b)
		if err != nil {
			return false
		}
		if ThresholdGap(fig, alpha) <= 0 {
			return false
		}
		return DecideDisjointness(fig, fig.MinimalSpanner(), alpha) == disjoint
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
