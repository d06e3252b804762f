package main

import (
	"encoding/json"
	"os"
	"testing"

	"distspanner/internal/scenario"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests compare with
// the metric catalog.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricEntry `json:"end_to_end"`
	PerLayer []metricEntry `json:"per_layer"`
}

type metricEntry struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, c := range []struct {
		kind string
		file []metricEntry
		defs []metricDef
	}{{"end_to_end", f.EndToEnd, endToEnd}, {"per_layer", f.PerLayer, perLayer}} {
		if len(c.file) != len(c.defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the catalog %d", c.kind, len(c.file), len(c.defs))
		}
		for i, d := range c.defs {
			if e := c.file[i]; e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the catalog %+v", c.kind, i, e, d)
			}
		}
	}
	ws := workloads()
	if len(f.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench runs %d", len(f.Workloads), len(ws))
	}
	for i, w := range ws {
		if f.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, perfbench %q", i, f.Workloads[i].Name, w.name)
		}
	}
}

// tinyScenario is a scenario workload small enough for a unit test.
var tinyScenario = scenarioSpec{
	name: "tiny", scenario: "twospanner",
	cell:       scenario.Params{"family": "cgnp", "n": "40", "p": "0.2", "ref": "lb"},
	warm:       scenario.Params{"n": "16"},
	perStratum: 1, pool: 8,
}

// tinyService is a service mix small enough for a unit test.
var tinyService = serviceSpec{
	name:         "tiny-service",
	deck:         map[string]int{"hit": 2, "mds": 1, "twospanner-weighted": 1, "inline_hit": 1, "twospanner": 1, "inline_cold": 1},
	cacheEntries: 8,
	hitSeeds:     1, inlineHits: 1,
	inlineGraphs: 2, inlineN: 64, inlineP: 0.05,
	checkEvery: 2, checks: 2,
}

func pinnedTiny(t *testing.T) []pin {
	t.Helper()
	pool, err := pinPool(tinyScenario, 1, int64(tinyScenario.pool))
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

// emitted renders out and checks that the result line carries exactly
// the metrics BENCHMARK.json names for the run's kind, with their units.
func emitted(t *testing.T, name string, cfg config, out *outcome) result {
	t.Helper()
	_, last, err := render(name, cfg, out)
	if err != nil {
		t.Fatal(err)
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatal(err)
	}
	f := readBenchmarkFile(t)
	want := f.EndToEnd
	if cfg.trace {
		want = f.PerLayer
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: emitted %d metrics, BENCHMARK.json names %d", name, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("%s: metric %s emitted as %+v (present %v), want unit %s", name, m.Name, got, ok, m.Unit)
		}
	}
	return res
}

func TestSmokeEachWorkload(t *testing.T) {
	pool := pinnedTiny(t)
	for _, traced := range []bool{false, true} {
		cfg := config{seed: 3, seconds: 0.5, trace: traced}
		out, err := runScenario(tinyScenario, pool, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res := emitted(t, "tiny", cfg, out); !res.Correct || res.Failed != 0 {
			t.Errorf("scenario smoke (trace %v): %+v, errors %v", traced, res, out.detail["errors"])
		}

		cfg.seconds = 1.5
		out, err = runServiceWorkload(tinyService, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res := emitted(t, "tiny-service", cfg, out); res.Failed != 0 {
			t.Errorf("service smoke (trace %v): %+v, errors %v", traced, res, out.detail["errors"])
		}
	}
}

func TestCorruptedFingerprintFails(t *testing.T) {
	pool := pinnedTiny(t)
	for i := range pool {
		pool[i].Messages++
	}
	cfg := config{seed: 3, seconds: 0.2, trace: true}
	out, err := runScenario(tinyScenario, pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := emitted(t, "tiny", cfg, out)
	if res.Correct || res.Failed == 0 || res.Metrics["bench.failed_share"].Value <= 0 {
		t.Fatalf("corrupted pins passed: %+v", res)
	}
}

func TestOpListKeepsStrataAndSeedsDiffer(t *testing.T) {
	pool := pins[denseBusy.name]
	a, err := opList(denseBusy, pool, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := opList(denseBusy, pool, 1)
	c, _ := opList(denseBusy, pool, 2)
	count := func(l []pin) map[int64]int {
		m := map[int64]int{}
		for _, p := range l {
			m[p.Rounds]++
		}
		return m
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 1 drew two lists: %v and %v", a, b)
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Errorf("seeds 1 and 2 drew the same list %v", a)
	}
	ca, cc := count(a), count(c)
	for r, n := range ca {
		if cc[r] != n || n != denseBusy.perStratum {
			t.Errorf("stratum %d rounds: %d and %d ops, want %d", r, n, cc[r], denseBusy.perStratum)
		}
	}
}

func TestSelfTimesAddUpToWall(t *testing.T) {
	l := newSpanLog()
	l.call("op", 1, -1, false, func(root int) {
		l.call("a", 1, root, false, func(a int) {
			l.call("b", 1, a, false, func(int) {})
		})
	})
	serve := l.find(1, "a", 0)
	l.add("c", 1, serve, 0)
	_, self, walls, rem := l.layerTimes()
	total := rem[0] + self["a"][0] + self["b"][0] + self["c"][0]
	if d := total - walls[0]; d > 1e-9 || d < -1e-9 {
		t.Errorf("self times %v plus remainder %v = %v, wall %v", self, rem, total, walls[0])
	}
}
