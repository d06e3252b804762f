// Package scenario is the declarative experiment layer: every workload the
// repo can run — the paper's 2-spanner variants, CONGEST MDS, the LOCAL
// (1+ε) scheme, baselines, lower-bound constructions — is a named,
// self-describing Scenario in a global registry. A Scenario couples a
// graph source (GraphSpec), an algorithm, a model budget (LOCAL vs
// CONGEST bandwidth), and verification + metric extraction into one
// function of (Params, seed).
//
// The registry serves two consumers: cmd/sweep runs any scenario over an
// arbitrary parameter grid via internal/sweep, and cmd/experiments replays
// the paper's E1–E15 reproduction suite, each experiment being nothing
// more than a registered scenario with default cases. Adding a workload is
// adding a Register call — no driver code changes.
//
// Every scenario that executes on the internal/dist engine (the spanner
// variants, MDS, and the E1–E15 experiments built on them) runs it on the
// step engine. The spanner and MDS scenarios also honor the shared
// "transport" parameter ("local", or "chanK" to shard the run across K
// workers). Results are transport-independent by the dist package's
// conformance contract, so "transport" is an execution-only parameter:
// it is excluded from instance identity (Params.InstanceKey), and
// sweeping transport={local,chan4} compares wall-clock cost over
// identical instances.
package scenario

import (
	"fmt"
	"sort"
)

// Scenario is one registered workload.
type Scenario struct {
	// Name is the registry key, e.g. "twospanner" or "e6".
	Name string
	// Title is a one-line human description.
	Title string
	// Doc is the longer paper-context paragraph (what is measured, what
	// the paper predicts); it feeds the generated EXPERIMENTS.md.
	Doc string
	// Model names the computation model exercised: "LOCAL", "CONGEST",
	// "two-party", "analytic", or "sequential".
	Model string
	// Defaults are parameter values assumed by Run when a cell does not
	// set them; they also document the scenario's parameter surface.
	Defaults Params
	// Grid is the default sweep (nil when Cases is set or the scenario is
	// single-cell). cmd/sweep overrides it with -grid.
	Grid Grid
	// Cases is an explicit default cell list for workloads whose natural
	// sub-cases are ragged rather than a cartesian product (most of the
	// paper experiments). When set, it takes precedence over Grid.
	Cases []Params
	// Replicates is the default number of seed replicates per cell
	// (0 means 1).
	Replicates int
	// Run executes one cell: build the instance, run the algorithm,
	// verify the output, extract metrics. A non-nil error means the cell
	// FAILED verification (not merely measured something slow) — sweeps
	// record it and drivers exit non-zero. cancel, when non-nil, asks the
	// run to abort promptly once closed (dist-engine scenarios plumb it
	// into dist.Config.Cancel; sequential and analytic scenarios may
	// ignore it): it is how sweep timeouts stop the losing run instead of
	// abandoning its goroutine mid-flight.
	Run func(p Params, seed int64, cancel <-chan struct{}) (Metrics, error)
}

// DefaultCells returns the scenario's default cell list: Cases when set,
// otherwise the expansion of Grid (a single empty cell when both are nil).
func (s *Scenario) DefaultCells() []Params {
	if len(s.Cases) > 0 {
		cells := make([]Params, len(s.Cases))
		for i, c := range s.Cases {
			cells[i] = c.Merge(nil)
		}
		return cells
	}
	return s.Grid.Cells()
}

// EffectiveReplicates returns the default replicate count, at least 1.
func (s *Scenario) EffectiveReplicates() int {
	if s.Replicates < 1 {
		return 1
	}
	return s.Replicates
}

var (
	registry = map[string]*Scenario{}
	order    []string
)

// Register adds s to the registry. Duplicate or empty names panic: the
// registry is assembled from init functions, so either is a code bug.
func Register(s *Scenario) {
	if s.Name == "" {
		panic("scenario: Register with empty name")
	}
	if s.Run == nil {
		panic(fmt.Sprintf("scenario: %q has no Run function", s.Name))
	}
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("scenario: %q registered twice", s.Name))
	}
	registry[s.Name] = s
	order = append(order, s.Name)
}

// Get returns the named scenario.
func Get(name string) (*Scenario, bool) {
	s, ok := registry[name]
	return s, ok
}

// All returns every registered scenario in registration order — for the
// experiment suite that order is the E1..E15 presentation order.
func All() []*Scenario {
	out := make([]*Scenario, 0, len(order))
	for _, name := range order {
		out = append(out, registry[name])
	}
	return out
}

// Names returns the registered names sorted alphabetically (the stable
// order for -list style output).
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// boolMetric converts a verification outcome into a 0/1 metric so it
// aggregates like everything else (a cell's min over replicates is 1 iff
// every replicate passed).
func boolMetric(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}
