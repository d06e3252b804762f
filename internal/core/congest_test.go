package core

import (
	"testing"

	"distspanner/internal/dist"
	"distspanner/internal/gen"
	"distspanner/internal/graph"
	"distspanner/internal/span"
)

func mustCongest(t *testing.T, g *graph.Graph, seed int64) *CongestResult {
	t.Helper()
	res, err := TwoSpannerCongest(g, Options{Seed: seed})
	if err != nil {
		t.Fatalf("TwoSpannerCongest failed: %v", err)
	}
	return res
}

func TestCongestProducesValidSpanner(t *testing.T) {
	families := map[string]*graph.Graph{
		"clique":  gen.Clique(12),
		"gnp":     gen.ConnectedGNP(25, 0.25, 1),
		"planted": gen.PlantedStars(3, 6, 0.5, 2),
		"cycle":   gen.Cycle(10),
	}
	for name, g := range families {
		res := mustCongest(t, g, 3)
		if !span.IsKSpanner(g, res.Spanner, 2) {
			t.Errorf("%s: CONGEST run produced an invalid spanner", name)
		}
		if res.Fallbacks != 0 {
			t.Errorf("%s: Claim 4.4 fallback in CONGEST mode", name)
		}
	}
}

func TestCongestMatchesLocalOutput(t *testing.T) {
	// Same algorithm, same seed: the fragmented CONGEST execution must
	// produce exactly the same spanner as the LOCAL execution.
	g := gen.ConnectedGNP(20, 0.3, 5)
	local, err := TwoSpanner(g, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	congest := mustCongest(t, g, 7)
	if !local.Spanner.Equal(congest.Spanner) {
		t.Fatalf("CONGEST spanner (%d edges) differs from LOCAL (%d edges)",
			congest.Spanner.Len(), local.Spanner.Len())
	}
	if local.Iterations != congest.Iterations {
		t.Fatalf("iteration counts differ: %d vs %d", local.Iterations, congest.Iterations)
	}
}

func TestCongestBandwidthRespected(t *testing.T) {
	// Enforcement is on inside TwoSpannerCongest: reaching here means no
	// violation; additionally the recorded max must be within budget.
	g := gen.Clique(14)
	res := mustCongest(t, g, 2)
	if res.Stats.MaxEdgeRoundBits > res.Bandwidth {
		t.Fatalf("max edge-round bits %d exceed enforced budget %d",
			res.Stats.MaxEdgeRoundBits, res.Bandwidth)
	}
}

func TestCongestOverheadIsThetaDelta(t *testing.T) {
	// Section 1.3: the direct CONGEST implementation pays Θ(Δ) physical
	// rounds per logical round. Subrounds must grow linearly with Δ and
	// total rounds must be ≈ subrounds × local rounds.
	prev := 0
	for _, n := range []int{8, 16, 32} {
		g := gen.Clique(n)
		res := mustCongest(t, g, 1)
		if res.Subrounds <= prev {
			t.Fatalf("subrounds did not grow with Δ: %d after %d", res.Subrounds, prev)
		}
		prev = res.Subrounds
		local, err := TwoSpanner(g, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		wantRounds := local.Stats.Rounds * res.Subrounds
		if res.Stats.Rounds != wantRounds {
			t.Fatalf("n=%d: CONGEST rounds %d != local %d × subrounds %d",
				n, res.Stats.Rounds, local.Stats.Rounds, res.Subrounds)
		}
	}
}

func TestCongestRejectsWeighted(t *testing.T) {
	g := gen.Clique(4)
	g.SetWeight(0, 2)
	if _, err := TwoSpannerCongest(g, Options{}); err == nil {
		t.Fatal("weighted graph must be rejected in CONGEST mode")
	}
}

func TestPayloadCodecRoundTrip(t *testing.T) {
	n := 64
	recs := []struct {
		name string
		r    dist.Rec
	}{
		{"spanList", spanListMsg{nbrs: []int{1, 5, 9}, n: n}.rec(tagSpan)},
		{"uncov", uncovMsg{nbrs: []int{2, 3}, n: n}.rec(tagUncov)},
		{"uncov-full", uncovMsg{nbrs: []int{2, 3}, full: true, n: n}.rec(tagUncov)},
		{"uncov-empty", uncovMsg{n: n}.rec(tagUncov)},
		{"dens", densMsg{rho: 4, raw: 3.5, wmax: 1, num: 7, den: 2}.rec()},
		{"max", maxMsg{rho: 4, raw: 7.0 / 3.0, wmax: 1, num: 7, den: 3}.rec()},
		{"star", starMsg{star: []int{7, 8, 20}, r: (int64(3) << 31) | 12345, n: n}.rec()},
		{"term", termMsg{added: []int{4}, n: n}.rec()},
		{"vote", voteMsg{pairs: []int{1, 2, 3, 4}, n: n}.rec()},
		{"accept", acceptMsg{star: []int{0, 63}, n: n}.rec()},
	}
	for _, tc := range recs {
		kind, words, err := encodePayload(tc.r)
		if err != nil {
			t.Fatalf("%s: encode failed: %v", tc.name, err)
		}
		got, err := decodePayload(kind, words, n)
		if err != nil {
			t.Fatalf("%s: decode failed: %v", tc.name, err)
		}
		if got.Tag != tc.r.Tag || got.Flag != tc.r.Flag {
			t.Fatalf("%s: tag/flag round trip: got %+v want %+v", tc.name, got, tc.r)
		}
		switch tc.r.Tag {
		case tagDens, tagMax:
			// The float fields are recomputed from the shipped rational:
			// identical to the sender's division, rounding included.
			if got.F1 != tc.r.F1 || got.F0 != RoundUpPow2(tc.r.F1) || got.A != tc.r.A || got.B != tc.r.B {
				t.Fatalf("%s round trip: got %+v want %+v", tc.name, got, tc.r)
			}
		default:
			if got.A != tc.r.A {
				t.Fatalf("%s: scalar round trip: got %d want %d", tc.name, got.A, tc.r.A)
			}
			if len(got.Ints) != len(tc.r.Ints) {
				t.Fatalf("%s: tail length round trip: got %v want %v", tc.name, got.Ints, tc.r.Ints)
			}
			for i := range got.Ints {
				if got.Ints[i] != tc.r.Ints[i] {
					t.Fatalf("%s: tail round trip: got %v want %v", tc.name, got.Ints, tc.r.Ints)
				}
			}
		}
	}
	// Decoding a corrupted stream fails rather than panicking downstream.
	if _, err := decodePayload(kindDens, []int{1}, n); err == nil {
		t.Fatal("short density fragment must fail to decode")
	}
	if _, err := decodePayload(kindVote, []int{1, 2, 3}, n); err == nil {
		t.Fatal("odd vote fragment must fail to decode")
	}
	if _, err := decodePayload(99, nil, n); err == nil {
		t.Fatal("unknown kind must fail to decode")
	}
}

func TestRatValue(t *testing.T) {
	if ratValue(7, 3) != 7.0/3.0 {
		t.Fatal("ratValue must be the plain float division")
	}
	if ratValue(0, 1) != 0 {
		t.Fatal("zero rational")
	}
	if ratValue(5, 0) != 0 {
		t.Fatal("zero denominator must read as density 0")
	}
}

func TestDensityMaxPropagationMatchesLocal(t *testing.T) {
	// The CONGEST codec must preserve candidate decisions: run both modes
	// on a graph rich in distinct densities and require identical output.
	g := gen.PlantedStars(3, 7, 0.5, 9)
	local, err := TwoSpanner(g, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	congest := mustCongest(t, g, 11)
	if !local.Spanner.Equal(congest.Spanner) {
		t.Fatal("CONGEST and LOCAL diverged on planted-star instance")
	}
}
