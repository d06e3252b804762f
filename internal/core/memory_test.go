package core

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"distspanner/internal/dist"
	"distspanner/internal/mds"
)

// Exact live memory by owner. With runtime.MemProfileRate = 1 every heap
// allocation is profiled, and two forced GCs at a round boundary publish
// a heap profile whose in-use bytes are the live heap at that boundary
// (sync.Pool contents are dropped by the second cycle). Each profile
// record is charged to its owner: the first frame of its allocation stack
// that lies inside the module and outside a test file, so a growslice is
// charged to the function that appended. The count is exact, not a
// sample, so a memory change shows as a deterministic number instead of
// a VmHWM step that moves with GC timing.

// liveOwnerPrefix marks the module's frames; it is trimmed from owner
// names.
const liveOwnerPrefix = "distspanner/internal/"

// ownerOf names the owner of one allocation stack: its first in-module
// frame outside a test file, or "" when it has none (the runtime, the
// testing package, or this harness).
func ownerOf(stack []uintptr) string {
	frames := runtime.CallersFrames(stack)
	for {
		f, more := frames.Next()
		if strings.HasPrefix(f.Function, "distspanner/") && !strings.HasSuffix(f.File, "_test.go") {
			return strings.TrimPrefix(f.Function, liveOwnerPrefix)
		}
		if !more {
			return ""
		}
	}
}

// liveByOwner forces two GCs and returns the in-use heap bytes of every
// owner, with their total.
func liveByOwner() (map[string]int64, int64) {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+n/4+16)
	}
	owners := make(map[string]int64)
	var total int64
	for i := range recs {
		b := recs[i].InUseBytes()
		if b == 0 {
			continue
		}
		if o := ownerOf(recs[i].Stack()); o != "" {
			owners[o] += b
			total += b
		}
	}
	return owners, total
}

// ownerRow is one owner's live bytes at a round.
type ownerRow struct {
	owner string
	bytes int64
}

// liveProfile is a run's live heap at the round boundary where it peaked.
type liveProfile struct {
	round  int
	total  int64
	owners []ownerRow // descending bytes
}

// peakLive runs run with a round hook that measures the live heap by
// owner at every round boundary and returns the round where the total
// peaked. Bytes already live before run (other tests' leftovers) are
// subtracted from the totals. Under -v it logs every round's owners.
func peakLive(t *testing.T, n int, run func(hook func(dist.RoundActivity)) error) liveProfile {
	t.Helper()
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	_, base := liveByOwner()
	var peak liveProfile
	err := run(func(a dist.RoundActivity) {
		owners, total := liveByOwner()
		total -= base
		rows := make([]ownerRow, 0, len(owners))
		for o, b := range owners {
			rows = append(rows, ownerRow{o, b})
		}
		slices.SortFunc(rows, func(x, y ownerRow) int {
			return cmp.Or(cmp.Compare(y.bytes, x.bytes), strings.Compare(x.owner, y.owner))
		})
		if testing.Verbose() {
			t.Logf("round %d: %.3f KB live per vertex", a.Round, float64(total)/1e3/float64(n))
			logOwners(t, n, total, rows)
		}
		if total > peak.total {
			peak = liveProfile{round: a.Round, total: total, owners: rows}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return peak
}

// logOwners logs the owners holding at least 1% of total live bytes, in
// KB per vertex.
func logOwners(t *testing.T, n int, total int64, rows []ownerRow) {
	t.Helper()
	for _, r := range rows {
		if r.bytes*100 < total {
			return
		}
		t.Logf("  %-48s %7.3f KB/vertex", r.owner, float64(r.bytes)/1e3/float64(n))
	}
}

// TestLiveBytesPerVertexPinned pins the exact live heap per vertex at the
// round where it peaks, for the 2-spanner and for MDS on the scale-test
// family at n = 10^4. A change that grows or shrinks what a run keeps
// alive moves the figure beyond the tolerance, and must update the pin
// with the owner table `go test -v -run TestLiveBytesPerVertexPinned`
// prints. The graph is built under the profiling rate, so it is counted
// (about 0.11 KB per vertex, owned by graph.(*Graph).AddEdge). Skipped
// under the race detector, whose shadow allocations would be charged to
// the owners.
func TestLiveBytesPerVertexPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("live-heap pins skipped under the race detector")
	}
	const n = 10_000
	cases := []struct {
		name string
		want float64 // live KB (10^3 bytes) per vertex at the peak round
		run  func(hook func(dist.RoundActivity)) error
	}{
		{"twospanner", twoSpannerLiveKBPerVertex, func(hook func(dist.RoundActivity)) error {
			_, err := TwoSpanner(hubRing(n, 2048, 256), Options{Seed: 6, RoundHook: hook})
			return err
		}},
		{"mds", mdsLiveKBPerVertex, func(hook func(dist.RoundActivity)) error {
			_, err := mds.Run(hubRing(n, 2048, 256), mds.Options{Seed: 6, RoundHook: hook})
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			peak := peakLive(t, n, tc.run)
			got := float64(peak.total) / 1e3 / n
			t.Logf("peak at round %d: %.3f KB live per vertex (pinned %.3f)", peak.round, got, tc.want)
			logOwners(t, n, peak.total, peak.owners)
			if math.Abs(got/tc.want-1) > liveTolerance {
				t.Fatalf("live heap %.3f KB per vertex at round %d, pinned %.3f (±%.0f%%)",
					got, peak.round, tc.want, liveTolerance*100)
			}
		})
	}
}

// The pinned peaks, in KB per vertex, and their relative tolerance.
const (
	twoSpannerLiveKBPerVertex = 1.954
	mdsLiveKBPerVertex        = 1.222
	liveTolerance             = 0.01
)
