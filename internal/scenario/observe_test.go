package scenario

import (
	"reflect"
	"testing"

	"distspanner/internal/dist"
	"distspanner/internal/graph"
	"distspanner/internal/trace"
)

// TestObserverSeam pins the observer registry that cmd/spanner's -trace
// and -dot and spannerd's live stream reach a run through, and one
// instance derivation per protocol: for every scenario with a Program,
// a traced run records the transcript, Stats and outputs that
// dist.RunLocal of the scenario's program on the same cell gives (what
// coord -verify compares a distributed run against). OnRound sees every
// round; Spanner receives exactly the verified spanner; timing=1 cannot
// share a run with an observer tracer; and a released token runs
// unobserved with the same metrics.
func TestObserverSeam(t *testing.T) {
	cell := Params{"family": "cgnp", "n": "32", "p": "0.2"}
	for _, name := range ProgramNames() {
		sc, _ := Get(name)
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
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if rec == nil {
				t.Fatalf("%s seed %d: observer tracer never installed", name, seed)
			}

			prog, err := program(sc, sc.Defaults.Merge(cell), seed)
			if err != nil {
				t.Fatal(err)
			}
			ref := trace.NewRecorder(prog.Graph.N())
			stats, err := dist.RunLocal(prog, dist.Config{Seed: seed, Tracer: ref})
			if err != nil {
				t.Fatalf("%s seed %d: program run: %v", name, seed, err)
			}
			got := rec.Digest()
			if !got.Equal(ref.Digest()) {
				t.Errorf("%s seed %d: digest %s, its program gives %s", name, seed, got.Run, ref.Digest().Run)
			}
			if name == "twospanner" && seed == 1 && got.Run != "11fcb251292f7b19" {
				t.Errorf("twospanner seed 1: digest %s, want 11fcb251292f7b19", got.Run)
			}
			for k, v := range statsMetrics(*stats, Metrics{}) {
				if m[k] != v {
					t.Errorf("%s seed %d: metric %s = %v, its program's Stats give %v", name, seed, k, m[k], v)
				}
			}
			if size := outputSize(name, prog); float64(size) != m["size"] {
				t.Errorf("%s seed %d: program outputs hold %d members, size metric %v", name, seed, size, m["size"])
			}
			if float64(rounds) != m["rounds"] {
				t.Errorf("%s seed %d: OnRound saw %d rounds, metric says %v", name, seed, rounds, m["rounds"])
			}
			// The scenarios that verify an undirected spanner hand it to
			// the observer: it is exactly the program's output.
			switch name {
			case "twospanner", "twospanner-congest", "twospanner-weighted":
				if spanner == nil || !sameEdges(spanner, prog) {
					t.Errorf("%s seed %d: Spanner got %v, not the program's output", name, seed, spanner)
				}
			default:
				if spanner != nil {
					t.Errorf("%s seed %d: reported a spanner", name, seed)
				}
			}

			if _, err := sc.Run(observed.Merge(Params{"timing": "1"}), seed, nil); err == nil {
				t.Errorf("%s seed %d: timing=1 with an observer tracer ran", name, seed)
			}

			release()
			rec, spanner, rounds = nil, nil, 0
			again, err := sc.Run(observed, seed, nil)
			if err != nil {
				t.Fatalf("%s seed %d (released): %v", name, seed, err)
			}
			if rec != nil || spanner != nil || rounds != 0 {
				t.Errorf("%s seed %d: released observer still saw the run", name, seed)
			}
			if !reflect.DeepEqual(m, again) {
				t.Errorf("%s seed %d: metrics changed once unobserved:\n  observed:   %v\n  unobserved: %v", name, seed, m, again)
			}
		}
	}
}

// outputSize counts what a finished program's outputs hold: the
// dominating-set members of mds, the distinct spanner edge (or arc)
// indices of the 2-spanner programs.
func outputSize(name string, prog dist.ShardProgram) int {
	members := map[int]bool{}
	for v := 0; v < prog.Graph.N(); v++ {
		for _, e := range prog.Output(v) {
			if name == "mds" {
				e = v // mds outputs [1] at a member
			}
			members[e] = true
		}
	}
	return len(members)
}

// sameEdges reports whether h is exactly the set of edge indices a
// finished 2-spanner program lists.
func sameEdges(h *graph.EdgeSet, prog dist.ShardProgram) bool {
	out := graph.NewEdgeSet(h.Universe())
	for v := 0; v < prog.Graph.N(); v++ {
		for _, e := range prog.Output(v) {
			out.Add(e)
		}
	}
	return out.Equal(h)
}
