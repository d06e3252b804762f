package core

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"distspanner/internal/gen"
	"distspanner/internal/graph"
	"distspanner/internal/span"
)

// ringChords returns a degree-4 ring with chords: deterministic, cheap to
// build at any size, and sparse enough that the 2-spanner converges in a
// bounded number of iterations independent of n — the scale-test family.
func ringChords(n int) *graph.Graph {
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.AddEdge(v, (v+1)%n)
		g.AddEdge(v, (v+2)%n)
	}
	return g
}

// hubRing is ringChords plus planted hub stars every `spacing` vertices
// (each hub also linked to the `span` vertices ahead of it): the hubs are
// locally-densest stars, so the run exercises real candidacy, voting, and
// fringe parking instead of terminating on the first density check.
func hubRing(n, spacing, span int) *graph.Graph {
	g := ringChords(n)
	for h := 0; h < n; h += spacing {
		for j := 3; j < span; j++ {
			g.AddEdge(h, (h+j)%n)
		}
	}
	return g
}

// TestTwoSpannerMillionVertexStep is the scale contract of the step
// engine: a full two-spanner run at n = 1,000,000 on one box, under a
// peak-RSS budget. The engine holds one small machine struct per vertex
// (no goroutine stack) and scans the active set. Skipped under -short,
// under the race detector, and on machines where the process may use
// less than scaleTestMemory.
func TestTwoSpannerMillionVertexStep(t *testing.T) {
	if testing.Short() {
		t.Skip("million-vertex smoke test skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("million-vertex smoke test skipped under the race detector")
	}
	if avail, source, ok := usableMemory(); ok && avail < scaleTestMemory {
		t.Skipf("million-vertex smoke test needs %.0f GiB of memory; this process may use %.1f GiB (%s)",
			float64(scaleTestMemory)/(1<<30), float64(avail)/(1<<30), source)
	}
	const n = 1_000_000
	g := hubRing(n, 2048, 256)
	res, err := TwoSpanner(g, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !span.IsKSpanner(g, res.Spanner, 2) {
		t.Fatal("invalid 2-spanner at n=1e6")
	}
	if res.Stats.Rounds == 0 || res.Stats.Messages == 0 {
		t.Fatalf("implausible stats: %+v", res.Stats)
	}
	t.Logf("n=%d: %d spanner edges, %d iterations, %d rounds, %d messages",
		n, res.Spanner.Len(), res.Iterations, res.Stats.Rounds, res.Stats.Messages)
	hwm, ok := peakRSS()
	if !ok {
		t.Log("peak RSS unreadable (no /proc/self/status VmHWM); budget not checked")
		return
	}
	t.Logf("peak RSS %.2f GB, %.2f KB per vertex (budget %.2f KB)", float64(hwm)/1e9, float64(hwm)/1e3/n, scaleTestPeakKBPerVertex)
	if float64(hwm) > scaleTestPeakKBPerVertex*1e3*n {
		t.Fatalf("peak RSS %.2f GB exceeds the budget of %.2f KB per vertex (%.2f GB)",
			float64(hwm)/1e9, scaleTestPeakKBPerVertex, scaleTestPeakKBPerVertex*1e3*n/1e9)
	}
}

// scaleTestMemory is the memory TestTwoSpannerMillionVertexStep needs
// before it runs: more than twice the peak RSS its budget allows, so the
// run leaves room for the rest of go test ./... beside it.
const scaleTestMemory = 7 << 30

// scaleTestPeakKBPerVertex is the run's peak-RSS budget in KB (10^3
// bytes) per vertex. On Go 1.24, 2 cores, 7.8 GiB, the test binary's
// VmHWM was 2.46-2.51 GB over three runs alone and 2.47 GB inside
// go test ./..., at most 2.51 KB per vertex; the budget is that plus
// 14%, rounded to a tenth.
const scaleTestPeakKBPerVertex = 2.9

// usableMemory returns the memory this process may use and where that
// figure came from: the cgroup v2 limit in memory.max when one is set,
// otherwise the machine's MemTotal. ok is false when neither can be read.
func usableMemory() (bytes uint64, source string, ok bool) {
	if data, err := os.ReadFile("/sys/fs/cgroup/memory.max"); err == nil {
		if limit, err := strconv.ParseUint(strings.TrimSpace(string(data)), 10, 64); err == nil {
			return limit, "cgroup memory.max", true
		}
	}
	bytes, ok = procKB("/proc/meminfo", "MemTotal")
	return bytes, "MemTotal", ok
}

// peakRSS returns the process's peak resident set size (VmHWM) in bytes;
// ok is false where /proc/self/status cannot be read.
func peakRSS() (bytes uint64, ok bool) { return procKB("/proc/self/status", "VmHWM") }

// procKB reads the "key: N kB" line of a /proc file as bytes.
func procKB(path, key string) (bytes uint64, ok bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, found := strings.CutPrefix(line, key+":"); found {
			kb, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10, err == nil
		}
	}
	return 0, false
}

// TestCrossModeByteEqualityLarge extends the execution-path transcript
// contract to n = 4096: the in-process run and a run sharded across two
// workers must produce byte-identical outputs, rounds, and message
// counts on both the busy G(n, 8/n) workload and the ring+chords
// scale-test family.
func TestCrossModeByteEqualityLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("n=4096 in-process vs sharded equality skipped in -short mode")
	}
	const n = 4096
	graphs := map[string]*graph.Graph{
		"gnp":        gen.ConnectedGNP(n, 8.0/float64(n), 1),
		"ringchords": ringChords(n),
	}
	for name, g := range graphs {
		base, err := TwoSpanner(g, Options{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		res, err := TwoSpanner(g, Options{Seed: 11, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !base.Spanner.Equal(res.Spanner) {
			t.Fatalf("%s: spanner differs between the in-process and sharded runs", name)
		}
		if base.Stats != res.Stats {
			t.Fatalf("%s: stats differ:\nin-process: %+v\nsharded:    %+v", name, base.Stats, res.Stats)
		}
		if base.Iterations != res.Iterations || base.Cost != res.Cost {
			t.Fatalf("%s: telemetry differs between the in-process and sharded runs", name)
		}
	}
}
