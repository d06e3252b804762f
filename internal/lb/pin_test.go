package lb

import (
	"testing"

	"distspanner/internal/dist"
)

// TestMeterLearnBallPinned pins the whole report of the ball-learning
// harness on three Fig. 1 instances — engine accounting (cut bits
// included) and the derived reduction fields — so the way the protocol
// is executed cannot change what it meters. The ℓ = 5 instance has 65
// vertices, enough for the engine to step machines in parallel. Each
// instance also runs sharded (3 shards over the channel transport),
// which must reproduce the pinned Stats.
func TestMeterLearnBallPinned(t *testing.T) {
	for _, tc := range []struct {
		l, depth int
		disjoint bool
		want     TwoPartyReport
	}{
		{3, 5, true, TwoPartyReport{
			Stats:    dist.Stats{Rounds: 5, Messages: 1900, TotalBits: 877800, MaxMessageBits: 1818, MaxEdgeRoundBits: 1818, CutBits: 41580, ActiveSteps: 195, PeakActive: 39},
			CutEdges: 9, BitsNeeded: 9, ImpliedRounds: 0.03125}},
		{3, 2, false, TwoPartyReport{
			Stats:    dist.Stats{Rounds: 2, Messages: 760, TotalBits: 643920, MaxMessageBits: 1818, MaxEdgeRoundBits: 1818, CutBits: 6960, ActiveSteps: 78, PeakActive: 39},
			CutEdges: 9, BitsNeeded: 9, ImpliedRounds: 0.03125}},
		{5, 3, true, TwoPartyReport{
			Stats:    dist.Stats{Rounds: 3, Messages: 2922, TotalBits: 6007918, MaxMessageBits: 5705, MaxEdgeRoundBits: 5705, CutBits: 113064, ActiveSteps: 195, PeakActive: 65},
			CutEdges: 15, BitsNeeded: 25, ImpliedRounds: 0.052083333333333336}},
	} {
		const beta = 4
		a, b := DisjointInputs(tc.l*tc.l, 0.4, 1)
		if !tc.disjoint {
			a, b = IntersectingInputs(tc.l*tc.l, 1, 0.3, 5)
		}
		f, err := NewFig1(tc.l, beta, a, b)
		if err != nil {
			t.Fatal(err)
		}
		comm, _ := f.G.Underlying()
		got, err := MeterLearnBall(comm, f.CutSide(), tc.depth, 32, tc.l*tc.l)
		if err != nil {
			t.Fatal(err)
		}
		if *got != tc.want {
			t.Errorf("l=%d depth %d disjoint=%v:\n got %+v\nwant %+v", tc.l, tc.depth, tc.disjoint, *got, tc.want)
		}
		sharded, err := dist.RunMachines(dist.Config{Graph: comm, Seed: 1, CutSide: f.CutSide(), Shards: 3}, ballMachines(tc.depth))
		if err != nil {
			t.Fatalf("l=%d depth %d sharded: %v", tc.l, tc.depth, err)
		}
		if *sharded != tc.want.Stats {
			t.Errorf("l=%d depth %d disjoint=%v sharded:\n got %+v\nwant %+v", tc.l, tc.depth, tc.disjoint, *sharded, tc.want.Stats)
		}
	}
}
