// Algorithm-level reproducibility: for a fixed seed, the distributed
// algorithms are deterministic end to end — identical edge sets AND
// identical engine statistics across runs, independent of goroutine
// scheduling. CI additionally runs these under -race, where the scheduler
// is deliberately perturbed.
package distspanner_test

import (
	"reflect"
	"testing"

	"distspanner"
)

func TestBuild2SpannerReproducible(t *testing.T) {
	g := distspanner.RandomGraph(40, 0.25, 17)
	var first *distspanner.Result
	for run := 0; run < 3; run++ {
		res, err := distspanner.Build2Spanner(g, distspanner.Options{Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
			continue
		}
		if !first.Spanner.Equal(res.Spanner) {
			t.Fatalf("run %d: spanner differs from run 0", run)
		}
		if first.Stats != res.Stats {
			t.Fatalf("run %d: stats differ:\n%+v\n%+v", run, first.Stats, res.Stats)
		}
		if first.Iterations != res.Iterations || first.Cost != res.Cost {
			t.Fatalf("run %d: telemetry differs", run)
		}
	}
}

func TestBuildMDSReproducible(t *testing.T) {
	g := distspanner.RandomGraph(40, 0.2, 23)
	var first *distspanner.MDSResult
	for run := 0; run < 3; run++ {
		res, err := distspanner.BuildMDS(g, distspanner.MDSOptions{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
			continue
		}
		if !reflect.DeepEqual(first.DominatingSet, res.DominatingSet) {
			t.Fatalf("run %d: dominating set differs from run 0", run)
		}
		if first.Stats != res.Stats {
			t.Fatalf("run %d: stats differ:\n%+v\n%+v", run, first.Stats, res.Stats)
		}
	}
}

// TestCrossModeTranscriptsIdentical is the execution-path contract at
// the algorithm level, through the public API: for a fixed (graph, seed),
// the in-process engine and a run sharded across three workers
// (Options.Shards) must produce bit-identical transcripts — the same
// spanner edge set, the same dominating set, and the same engine
// statistics (rounds, messages, bits), field for field.
func TestCrossModeTranscriptsIdentical(t *testing.T) {
	g := distspanner.RandomGraph(60, 0.15, 41)
	base, err := distspanner.Build2Spanner(g, distspanner.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := distspanner.Build2Spanner(g, distspanner.Options{Seed: 5, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !base.Spanner.Equal(res.Spanner) {
		t.Fatal("2-spanner edge sets differ between the in-process and sharded runs")
	}
	if base.Stats != res.Stats {
		t.Fatalf("2-spanner stats differ:\nin-process: %+v\nsharded:    %+v", base.Stats, res.Stats)
	}
	if base.Iterations != res.Iterations || base.Cost != res.Cost {
		t.Fatal("2-spanner telemetry differs between the in-process and sharded runs")
	}

	mg := distspanner.RandomGraph(48, 0.18, 13)
	mb, err := distspanner.BuildMDS(mg, distspanner.MDSOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	mr, err := distspanner.BuildMDS(mg, distspanner.MDSOptions{Seed: 9, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mb.DominatingSet, mr.DominatingSet) || mb.Stats != mr.Stats {
		t.Fatalf("MDS transcripts differ:\nin-process: %v %+v\nsharded:    %v %+v",
			mb.DominatingSet, mb.Stats, mr.DominatingSet, mr.Stats)
	}
}

func TestCongestRunReproducible(t *testing.T) {
	g := distspanner.RandomGraph(14, 0.4, 31)
	a, err := distspanner.Build2SpannerCongest(g, distspanner.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := distspanner.Build2SpannerCongest(g, distspanner.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Spanner.Equal(b.Spanner) || a.Stats != b.Stats || a.Subrounds != b.Subrounds {
		t.Fatal("CONGEST execution is not reproducible for a fixed seed")
	}
}
