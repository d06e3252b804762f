package scenario

import (
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestCrossTransportScenarioEquivalence is the execution-path check at
// the workload level: the same (scenario, cell, seed) run with the local
// in-process engine and distributed across shard workers over the
// in-process channel transport (the execution-only "transport"
// parameter) must produce identical metrics — same spanner/dominating-set
// size, same round count, same metered bits, bit for bit. Cells and seeds
// are randomized so every run exercises fresh instances; any divergence
// is an engine bug, not a flaky workload.
func TestCrossTransportScenarioEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	cases := []struct {
		scenario string
		cell     func() Params
	}{
		{"twospanner", func() Params {
			return Params{
				"n": strconv.Itoa(24 + rng.Intn(40)),
				"p": []string{"0.1", "0.15", "0.25"}[rng.Intn(3)],
			}
		}},
		{"twospanner-congest", func() Params {
			return Params{"n": strconv.Itoa(12 + rng.Intn(12))}
		}},
		{"twospanner-directed", func() Params {
			return Params{"n": strconv.Itoa(12 + rng.Intn(12)), "p": "0.2"}
		}},
		{"twospanner-weighted", func() Params {
			return Params{"n": strconv.Itoa(20 + rng.Intn(16)), "whi": "16"}
		}},
		{"twospanner-cs", func() Params {
			return Params{"n": strconv.Itoa(20 + rng.Intn(16))}
		}},
		{"mds", func() Params {
			return Params{
				"family": []string{"cgnp", "expander"}[rng.Intn(2)],
				"n":      strconv.Itoa(16 + rng.Intn(24)),
			}
		}},
	}
	for _, tc := range cases {
		sc, ok := Get(tc.scenario)
		if !ok {
			t.Fatalf("scenario %q not registered", tc.scenario)
		}
		for rep := 0; rep < 2; rep++ {
			cell := tc.cell()
			seed := rng.Int63()
			transports := []string{"local", "chan2", "chan5"}
			metrics := make([]Metrics, len(transports))
			errs := make([]error, len(transports))
			for i, tr := range transports {
				p := sc.Defaults.Merge(cell).Merge(Params{"transport": tr})
				metrics[i], errs[i] = sc.Run(p, seed, nil)
			}
			for i := 1; i < len(transports); i++ {
				if (errs[0] == nil) != (errs[i] == nil) {
					t.Fatalf("%s %v seed %d: transports disagree on failure: %s=%v %s=%v",
						tc.scenario, cell, seed, transports[0], errs[0], transports[i], errs[i])
				}
				if !reflect.DeepEqual(metrics[0], metrics[i]) {
					t.Fatalf("%s %v seed %d: metrics diverge across transports:\n%s: %v\n%s: %v",
						tc.scenario, cell, seed, transports[0], metrics[0], transports[i], metrics[i])
				}
			}
		}
	}
}

// TestTransportParamValidation pins the parameter surface: unknown
// transport values fail the run loudly rather than silently running
// local, on the core scenarios and on mds alike.
func TestTransportParamValidation(t *testing.T) {
	for _, name := range []string{"twospanner", "mds"} {
		sc, ok := Get(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		for _, bad := range []string{"tcp", "chan0", "chan-1", "chanx", ""} {
			p := sc.Defaults.Merge(Params{"transport": bad})
			if _, err := sc.Run(p, 1, nil); err == nil || !strings.Contains(err.Error(), "unknown transport") {
				t.Errorf("%s transport=%q: err = %v, want an unknown-transport error", name, bad, err)
			}
		}
	}
	if got, err := transportShards(Params{}); got != 0 || err != nil {
		t.Errorf("default transport = %d, %v, want 0 shards", got, err)
	}
	if got, err := transportShards(Params{"transport": "chan7"}); got != 7 || err != nil {
		t.Errorf("chan7 = %d, %v, want 7 shards", got, err)
	}
}
