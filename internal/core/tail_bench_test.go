package core

import (
	"fmt"
	"testing"

	"distspanner/internal/dist"
	"distspanner/internal/gen"
	"distspanner/internal/mds"
)

// Real-algorithm tail benchmarks: the spanner/MDS runs whose late rounds
// leave most vertices parked or retired — the regime the activity-aware
// ports (parking, delta messaging) target. Custom metrics report
// rounds/sec plus the per-round activity means, so the bench artifact
// records the activity profile alongside the throughput trajectory.

// reportTail attaches the shared tail metrics.
func reportTail(b *testing.B, s dist.Stats) {
	b.ReportMetric(float64(s.Rounds)*float64(b.N)/b.Elapsed().Seconds(), "rounds/sec")
	if s.Rounds > 0 {
		b.ReportMetric(float64(s.ActiveSteps)/float64(s.Rounds), "meanActive")
		b.ReportMetric(float64(s.ParkedSteps)/float64(s.Rounds), "meanParked")
	}
}

// benchRun times run b.N times and reports the last run's tail metrics.
func benchRun(b *testing.B, run func() (dist.Stats, error)) {
	var stats dist.Stats
	for i := 0; i < b.N; i++ {
		s, err := run()
		if err != nil {
			b.Fatal(err)
		}
		stats = s
	}
	b.StopTimer()
	reportTail(b, stats)
}

// BenchmarkTwoSpannerTail runs the weighted 2-spanner on a core+fringe
// instance at n >= 4096.
func BenchmarkTwoSpannerTail(b *testing.B) {
	for _, n := range []int{4096, 8192} {
		g := tailInstance(512, n, 3)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchRun(b, func() (dist.Stats, error) {
				res, err := TwoSpanner(g, Options{Seed: 1})
				if err != nil {
					return dist.Stats{}, err
				}
				return res.Stats, nil
			})
		})
	}
}

// BenchmarkTwoSpannerDeepTail stretches the tail with the NoRounding
// ablation (exact-maximum candidacy resolves one small region at a time):
// hundreds of iterations whose rounds touch a few hundred vertices while
// thousands stay parked. Smaller n keeps it benchable; the activity
// profile, not the instance size, is the point.
func BenchmarkTwoSpannerDeepTail(b *testing.B) {
	g := tailInstance(96, 1024, 3)
	b.Run(fmt.Sprintf("n=%d", g.N()), func(b *testing.B) {
		benchRun(b, func() (dist.Stats, error) {
			res, err := TwoSpanner(g, Options{Seed: 1, NoRounding: true})
			if err != nil {
				return dist.Stats{}, err
			}
			return res.Stats, nil
		})
	})
}

// BenchmarkTwoSpannerBusy is the tail-less counterweight to the tail
// benchmarks: a uniform sparse G(n, 8/n) where density levels resolve
// nearly in lockstep, so most vertices are active in most rounds and the
// run is dominated by busy phases — the regime that pays the delta
// receivers' per-message decode cost rather than profiting from parking.
// This is the yardstick for the flat-buffer inbox path.
func BenchmarkTwoSpannerBusy(b *testing.B) {
	for _, n := range []int{4096, 8192} {
		g := gen.ConnectedGNP(n, 8.0/float64(n), 1)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchRun(b, func() (dist.Stats, error) {
				res, err := TwoSpanner(g, Options{Seed: 1})
				if err != nil {
					return dist.Stats{}, err
				}
				return res.Stats, nil
			})
		})
	}
}

// BenchmarkMDSTail runs the CONGEST MDS on a sparse G(n, 8/n) where
// domination spreads in waves and the covered interior halts or parks.
func BenchmarkMDSTail(b *testing.B) {
	for _, n := range []int{4096, 8192} {
		g := gen.ConnectedGNP(n, 8.0/float64(n), 1)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchRun(b, func() (dist.Stats, error) {
				res, err := mds.Run(g, mds.Options{Seed: 1})
				if err != nil {
					return dist.Stats{}, err
				}
				return res.Stats, nil
			})
		})
	}
}
