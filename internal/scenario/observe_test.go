package scenario

import (
	"reflect"
	"testing"

	"distspanner/internal/dist"
	"distspanner/internal/distrun"
	"distspanner/internal/graph"
	"distspanner/internal/trace"
)

// TestObserverSeam pins the observer registry that cmd/spanner's -trace
// and -dot and spannerd's live stream reach a run through. A traced run
// records the transcript the distributed runner's in-process reference
// (distrun's RunLocal, what coord -verify compares against) records on
// the same GraphSpec graph; OnRound sees every round; Spanner receives
// exactly the verified spanner; timing=1 cannot share a run with an
// observer tracer; and a released token runs unobserved with the same
// metrics.
func TestObserverSeam(t *testing.T) {
	cell := Params{"family": "cgnp", "n": "32", "p": "0.2"}
	for _, tc := range []struct{ scenario, family string }{
		{"twospanner", "twospanner"},
		{"twospanner-congest", "congest"},
		{"mds", "mds"},
	} {
		sc, ok := Get(tc.scenario)
		if !ok {
			t.Fatalf("scenario %q not registered", tc.scenario)
		}
		f, ok := distrun.Get(tc.family)
		if !ok {
			t.Fatalf("distrun family %q not registered", tc.family)
		}
		for _, seed := range []int64{1, 2} {
			var (
				rec     *trace.Recorder
				spanner *graph.EdgeSet
				rounds  int
			)
			token, release := RegisterObserver(&Observer{
				OnRound: func(dist.RoundActivity) { rounds++ },
				Tracer:  func(n int) dist.Tracer { rec = trace.NewRecorder(n); return rec },
				Spanner: func(_ *graph.Graph, h *graph.EdgeSet) { spanner = h },
			})
			observed := sc.Defaults.Merge(cell).Merge(Params{"obs": token})
			m, err := sc.Run(observed, seed, nil)
			if err != nil {
				t.Fatalf("%s seed %d: %v", tc.scenario, seed, err)
			}
			if rec == nil {
				t.Fatalf("%s seed %d: observer tracer never installed", tc.scenario, seed)
			}

			g, err := GraphSpec{}.Build(cell, seed)
			if err != nil {
				t.Fatal(err)
			}
			ref := trace.NewRecorder(g.N())
			cfg := f.CoordConfig(g, seed)
			cfg.Tracer = ref
			if _, _, err := f.RunLocal(cfg); err != nil {
				t.Fatalf("%s seed %d: distrun reference: %v", tc.family, seed, err)
			}
			got := rec.Digest()
			if !got.Equal(ref.Digest()) {
				t.Errorf("%s seed %d: digest %s, distrun %s gives %s", tc.scenario, seed, got.Run, tc.family, ref.Digest().Run)
			}
			if tc.scenario == "twospanner" && seed == 1 && got.Run != "11fcb251292f7b19" {
				t.Errorf("twospanner seed 1: digest %s, want 11fcb251292f7b19", got.Run)
			}
			if float64(rounds) != m["rounds"] {
				t.Errorf("%s seed %d: OnRound saw %d rounds, metric says %v", tc.scenario, seed, rounds, m["rounds"])
			}
			switch {
			case tc.scenario == "mds" && spanner != nil:
				t.Errorf("mds reported a spanner")
			case tc.scenario != "mds" && (spanner == nil || float64(spanner.Len()) != m["size"]):
				t.Errorf("%s seed %d: Spanner got %v, size metric %v", tc.scenario, seed, spanner, m["size"])
			}

			if _, err := sc.Run(observed.Merge(Params{"timing": "1"}), seed, nil); err == nil {
				t.Errorf("%s seed %d: timing=1 with an observer tracer ran", tc.scenario, seed)
			}

			release()
			rec, spanner, rounds = nil, nil, 0
			again, err := sc.Run(observed, seed, nil)
			if err != nil {
				t.Fatalf("%s seed %d (released): %v", tc.scenario, seed, err)
			}
			if rec != nil || spanner != nil || rounds != 0 {
				t.Errorf("%s seed %d: released observer still saw the run", tc.scenario, seed)
			}
			if !reflect.DeepEqual(m, again) {
				t.Errorf("%s seed %d: metrics changed once unobserved:\n  observed:   %v\n  unobserved: %v", tc.scenario, seed, m, again)
			}
		}
	}
}
