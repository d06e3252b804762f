package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"distspanner/internal/gen"
	"distspanner/internal/span"
)

// Property: across random instances and seeds, the undirected algorithm
// always returns a valid 2-spanner, never takes the Claim 4.4 fallback,
// and stays within the analysis's ratio envelope against the n-1 bound.
func TestTwoSpannerAlwaysValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(25)
		g := gen.ConnectedGNP(n, 0.15+rng.Float64()*0.4, seed)
		res, err := TwoSpanner(g, Options{Seed: seed})
		if err != nil {
			return false
		}
		if !span.IsKSpanner(g, res.Spanner, 2) || res.Fallbacks != 0 {
			return false
		}
		bound := 80 * (math.Log2(math.Max(2, float64(g.M())/float64(g.N()))) + 2)
		return res.Cost/float64(g.N()-1) <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the directed algorithm always returns a valid directed
// 2-spanner on random digraphs.
func TestDirectedAlwaysValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(15)
		d := gen.RandomDigraph(n, 0.15+rng.Float64()*0.35, seed)
		res, err := DirectedTwoSpanner(d, Options{Seed: seed})
		if err != nil {
			return false
		}
		return span.IsDirectedKSpanner(d, res.Spanner, 2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: client-server runs are always valid for random splits.
func TestClientServerAlwaysValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(18)
		g := gen.ConnectedGNP(n, 0.3, seed)
		clients, servers := gen.ClientServerSplit(g, 0.3+rng.Float64()*0.5, 0.5+rng.Float64()*0.4, seed)
		res, err := ClientServerTwoSpanner(g, clients, servers, Options{Seed: seed})
		if err != nil {
			return false
		}
		return span.ClientServerValid(g, clients, servers, res.Spanner, 2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: weighted runs remain valid with arbitrary weight spreads,
// including zero-weight edges.
func TestWeightedAlwaysValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(15)
		g := gen.ConnectedGNP(n, 0.35, seed)
		for i := 0; i < g.M(); i++ {
			switch rng.Intn(4) {
			case 0:
				g.SetWeight(i, 0)
			default:
				g.SetWeight(i, 0.5+rng.Float64()*float64(int64(1)<<uint(rng.Intn(8))))
			}
		}
		res, err := TwoSpanner(g, Options{Seed: seed})
		if err != nil {
			return false
		}
		return span.IsKSpanner(g, res.Spanner, 2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: CONGEST and LOCAL executions agree exactly on random
// unweighted instances.
func TestCongestLocalAgreementProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(14)
		g := gen.ConnectedGNP(n, 0.3, seed)
		local, err := TwoSpanner(g, Options{Seed: seed})
		if err != nil {
			return false
		}
		congest, err := TwoSpannerCongest(g, Options{Seed: seed})
		if err != nil {
			return false
		}
		return local.Spanner.Equal(congest.Spanner) &&
			congest.Stats.MaxEdgeRoundBits <= congest.Bandwidth
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// Property: chooseStar always returns a star of density >= rho/4 with
// respect to the view whenever a star of rounded density rho exists
// (fresh path), on random local views.
func TestChooseStarDensityInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 3 + rng.Intn(8)
		sel := make(map[int]float64, k)
		for i := 0; i < k; i++ {
			sel[i] = 1
		}
		var h [][2]int
		for a := 0; a < k; a++ {
			for b := a + 1; b < k; b++ {
				if rng.Float64() < 0.5 {
					h = append(h, [2]int{a, b})
				}
			}
		}
		v := viewOf(sel, nil, h)
		if v == nil {
			return true // no H_v edge: no view, never a candidate
		}
		dsel, raw := v.densestStar(nil)
		if dsel == nil || raw == 0 {
			return true
		}
		rho := RoundUpPow2(raw)
		mask, fb := v.chooseStar(rho, nil)
		if fb {
			return false
		}
		return v.density(mask) >= rho/4-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: RoundUpPow2 returns the unique power p with p/2 <= x < p.
func TestRoundUpPow2Property(t *testing.T) {
	f := func(raw float64) bool {
		x := math.Abs(raw)
		if x == 0 || math.IsInf(x, 0) || math.IsNaN(x) || x > 1e300 || x < 1e-300 {
			return true
		}
		p := RoundUpPow2(x)
		return p > x && p/2 <= x
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
