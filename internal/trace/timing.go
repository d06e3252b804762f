package trace

import (
	"time"

	"distspanner/internal/dist"
)

func duration(ns int64) time.Duration { return time.Duration(ns) }

// TimingSummary aggregates a run's timing channel: the per-round wall
// distribution and the scheduler-phase shares of total wall time. All
// values are wall-clock telemetry — nondeterministic, never part of the
// logical transcript or its digest.
type TimingSummary struct {
	// Rounds is the number of measured rounds.
	Rounds int
	// WallMeanNs and WallMaxNs summarize the per-round wall time.
	WallMeanNs float64
	WallMaxNs  int64
	// TotalWallNs is the summed round wall time.
	TotalWallNs int64
	// StepShare, RouteShare, and SyncShare are each phase's fraction of
	// TotalWallNs (in [0,1], summing to ~1; see dist.RoundTiming).
	StepShare  float64
	RouteShare float64
	SyncShare  float64
}

// SummarizeTimings folds a timing channel into its summary. An empty
// channel yields the zero summary.
func SummarizeTimings(ts []dist.RoundTiming) TimingSummary {
	var s TimingSummary
	if len(ts) == 0 {
		return s
	}
	var step, route, sync int64
	for _, t := range ts {
		w := t.Wall.Nanoseconds()
		s.TotalWallNs += w
		if w > s.WallMaxNs {
			s.WallMaxNs = w
		}
		step += t.Step.Nanoseconds()
		route += t.Route.Nanoseconds()
		sync += t.Sync.Nanoseconds()
	}
	s.Rounds = len(ts)
	s.WallMeanNs = float64(s.TotalWallNs) / float64(s.Rounds)
	if s.TotalWallNs > 0 {
		s.StepShare = float64(step) / float64(s.TotalWallNs)
		s.RouteShare = float64(route) / float64(s.TotalWallNs)
		s.SyncShare = float64(sync) / float64(s.TotalWallNs)
	}
	return s
}
