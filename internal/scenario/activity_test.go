package scenario

import "testing"

// TestScenarioActivityMetrics asserts the activity columns every
// simulated scenario now reports: the totals are present and consistent,
// and on a workload with staggered termination the run is strictly
// cheaper than all-spinning execution (active_steps < rounds × n) — the
// measurable effect of the parking algorithm ports.
func TestScenarioActivityMetrics(t *testing.T) {
	for _, tc := range []struct {
		scenario string
		cell     Params
	}{
		{"twospanner", Params{"family": "planted-stars", "c": "4", "s": "10", "q": "0.4"}},
		{"mds", Params{"n": "64", "p": "0.08"}},
	} {
		sc, ok := Get(tc.scenario)
		if !ok {
			t.Fatalf("scenario %q not registered", tc.scenario)
		}
		m, err := sc.Run(sc.Defaults.Merge(tc.cell), 7, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.scenario, err)
		}
		for _, key := range []string{"active_steps", "parked_steps", "peak_active", "mean_active", "mean_parked"} {
			if _, ok := m[key]; !ok {
				t.Fatalf("%s: missing activity metric %q", tc.scenario, key)
			}
		}
		n, rounds := m["n"], m["rounds"]
		if m["peak_active"] > n {
			t.Fatalf("%s: peak_active %v exceeds n %v", tc.scenario, m["peak_active"], n)
		}
		if m["active_steps"]+m["parked_steps"] > rounds*n {
			t.Fatalf("%s: active %v + parked %v exceed rounds×n = %v",
				tc.scenario, m["active_steps"], m["parked_steps"], rounds*n)
		}
		if m["active_steps"] >= rounds*n {
			t.Fatalf("%s: no activity saved (active_steps %v at rounds×n = %v)",
				tc.scenario, m["active_steps"], rounds*n)
		}
	}
}
