package main

import (
	"bytes"
	"fmt"
	"go/format"
	"io"
	"math/rand/v2"
	"sort"
	"time"

	"distspanner/internal/scenario"
	"distspanner/internal/sweep"
)

// scenarioSpec is a closed-loop workload with one caller: each op is one
// verified sweep.Single run of a registered scenario on one cell, over a
// fixed list of pinned graph seeds drawn from the workload seed.
type scenarioSpec struct {
	name     string
	scenario string
	// cell overrides the scenario defaults for every op.
	cell scenario.Params
	// warm is layered over cell for the warm-up run inside set-up: the
	// same code paths on a smaller graph.
	warm scenario.Params
	// perStratum ops are drawn from every stratum of the pinned pool.
	perStratum int
	// pool is the number of pinned graph seeds, 1..pool.
	pool int
}

// The pinned pools are split into strata by their exact round count (the
// run time of one op follows it), and every op list takes perStratum
// seeds from each stratum that holds at least twice that many. Seeds
// change which instances run, not the workload's composition, so two
// seeds measure the same mix.
var (
	denseBusy = scenarioSpec{
		name: "dense-busy", scenario: "twospanner",
		cell:       scenario.Params{"family": "cgnp", "n": "512", "p": "0.1", "ref": "lb"},
		warm:       scenario.Params{"n": "192"},
		perStratum: 2, pool: 36,
	}
	// n=32768 keeps one run near 2 s and 530 MB peak RSS, so a run fits several
	// cycles and the benchmark stays small on a shared 8 GB machine.
	sparseScale = scenarioSpec{
		name: "sparse-scale", scenario: "twospanner",
		cell:       scenario.Params{"family": "pref-attach", "n": "32768", "m": "3", "ref": "lb"},
		warm:       scenario.Params{"n": "4096"},
		perStratum: 3, pool: 12,
	}
)

// pin is one pinned graph seed and the outcome sweep.Single gave for it
// when the benchmark was created.
type pin struct {
	Seed int64
	fingerprint
}

// opList draws the workload seed's fixed op list from the pinned pool.
func opList(spec scenarioSpec, pool []pin, seed int64) ([]pin, error) {
	strata := map[int64][]pin{}
	for _, p := range pool {
		strata[p.Rounds] = append(strata[p.Rounds], p)
	}
	rounds := make([]int64, 0, len(strata))
	for r, ps := range strata {
		if len(ps) >= 2*spec.perStratum {
			rounds = append(rounds, r)
		}
	}
	sort.Slice(rounds, func(a, b int) bool { return rounds[a] < rounds[b] })
	if len(rounds) == 0 {
		return nil, fmt.Errorf("%s: no pinned stratum holds %d seeds", spec.name, 2*spec.perStratum)
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5eed))
	var list []pin
	for _, r := range rounds {
		ps := append([]pin(nil), strata[r]...)
		rng.Shuffle(len(ps), func(a, b int) { ps[a], ps[b] = ps[b], ps[a] })
		list = append(list, ps[:spec.perStratum]...)
	}
	rng.Shuffle(len(list), func(a, b int) { list[a], list[b] = list[b], list[a] })
	return list, nil
}

// runScenario runs spec over op lists drawn from pool for cfg.seconds:
// untraced, it reports the end-to-end metrics; traced, it runs half the
// time untraced and half as traced replays and reports the per-layer
// breakdown.
func runScenario(spec scenarioSpec, pool []pin, cfg config) (*outcome, error) {
	sc, ok := scenario.Get(spec.scenario)
	if !ok {
		return nil, fmt.Errorf("%s: scenario %q is not registered", spec.name, spec.scenario)
	}
	cell := sc.Defaults.Merge(spec.cell)
	var setups, wallSetups []float64
	var list []pin
	for range 3 {
		t, c := time.Now(), cpuTime()
		var err error
		if list, err = opList(spec, pool, cfg.seed); err != nil {
			return nil, err
		}
		if _, err := sweep.Single(sc, cell.Merge(spec.warm), cfg.seed, 0, nil); err != nil {
			return nil, fmt.Errorf("%s: warm-up run: %w", spec.name, err)
		}
		setups = append(setups, (cpuTime() - c).Seconds())
		wallSetups = append(wallSetups, since(t))
	}

	out := &outcome{metrics: map[string]float64{}, detail: map[string]any{}}
	seeds := make([]int64, len(list))
	for i, p := range list {
		seeds[i] = p.Seed
	}
	out.detail["inputs"] = map[string]any{"scenario": sc.Name, "cell": cell, "graph_seeds": seeds}
	var errs []string
	fail := func(p pin, err error) {
		out.failed++
		if len(errs) < 5 {
			errs = append(errs, fmt.Sprintf("seed %d: %v", p.Seed, err))
		}
	}
	var measured []fingerprint
	direct := func(p pin) {
		m, err := sweep.Single(sc, cell, p.Seed, 0, nil)
		if err == nil {
			if got := fingerprintOf(m); got != p.fingerprint {
				err = fmt.Errorf("fingerprint %+v, pinned %+v", got, p.fingerprint)
			} else if len(measured) < len(list) {
				measured = append(measured, got)
			}
		}
		if err != nil {
			fail(p, err)
		}
	}

	if !cfg.trace {
		c := cycles(cfg.seconds, list, out, direct)
		out.metrics["setup_s"] = median(setups)
		out.metrics["cpu_ms_per_op"] = mean(c.cpus)
		out.metrics["peak_rss_bytes"] = peakRSS()
		out.metrics["alloc_bytes_per_op"] = mean(c.allocs)
		var rounds, msgs []float64
		for _, f := range measured {
			rounds = append(rounds, float64(f.Rounds))
			msgs = append(msgs, float64(f.Messages))
		}
		out.metrics["model_rounds_per_op"] = mean(rounds)
		out.metrics["model_messages_per_op"] = mean(msgs)
		out.detail["setup_cpu_s"] = setups
		out.detail["setup_wall_s"] = wallSetups
		out.detail["wall"] = c.wallSummary()
		out.detail["errors"] = errs
		return out, nil
	}

	// Traced: the same cycles untraced, then as replays, so the overhead
	// compares like with like.
	plain := cycles(cfg.seconds/2, list, out, direct)
	l := newSpanLog()
	op := 0
	traced := cycles(cfg.seconds/2, list, out, func(p pin) {
		op++
		var got fingerprint
		var err error
		l.call("op", op, -1, false, func(root int) {
			l.call("sweep", op, root, false, func(sw int) {
				replayed := &scenario.Scenario{Name: sc.Name, Run: func(cp scenario.Params, seed int64, _ <-chan struct{}) (scenario.Metrics, error) {
					got, err = replayScenario(l, op, sw, false, sc.Name, cp, seed)
					return nil, err
				}}
				_, err = sweep.Single(replayed, cell, p.Seed, 0, nil)
			})
			if err == nil && got != p.fingerprint {
				err = fmt.Errorf("replay fingerprint %+v, pinned %+v", got, p.fingerprint)
			}
		})
		if err != nil {
			fail(p, err)
		}
	})
	layerMetrics(l, out)
	out.metrics["wall.latency_ms_p50"] = median(plain.walls)
	out.metrics["wall.throughput_per_s"] = float64(len(plain.walls)) / plain.elapsed
	out.metrics["trace.overhead_share"] = mean(traced.walls)/mean(plain.walls) - 1
	out.detail["untraced_ops"] = len(plain.walls)
	out.detail["traced_ops"] = len(traced.walls)
	out.detail["errors"] = errs
	return out, nil
}

// loop is what a closed loop measured: per-op wall times, CPU times (ms)
// and heap bytes allocated, and the elapsed seconds.
type loop struct {
	walls, cpus, allocs []float64
	elapsed             float64
}

// wallSummary gives the wall-clock view of a loop for the detail line.
func (c loop) wallSummary() map[string]float64 {
	return map[string]float64{
		"latency_ms_p50":   median(c.walls),
		"latency_ms_p90":   quantile(c.walls, 0.9),
		"latency_ms_mean":  mean(c.walls),
		"throughput_per_s": float64(len(c.walls)) / c.elapsed,
	}
}

// cycles runs whole passes over list until the next pass would overrun
// seconds (at least one pass), measuring every op.
func cycles(seconds float64, list []pin, out *outcome, op func(pin)) loop {
	var c loop
	start := time.Now()
	for {
		pass := time.Now()
		for _, p := range list {
			a, cpu, t := allocated(), cpuTime(), time.Now()
			op(p)
			c.walls = append(c.walls, ms(time.Since(t).Nanoseconds()))
			c.cpus = append(c.cpus, ms((cpuTime() - cpu).Nanoseconds()))
			c.allocs = append(c.allocs, float64(allocated()-a))
			out.attempted++
		}
		if since(start)+since(pass) > seconds {
			c.elapsed = since(start)
			return c
		}
	}
}

// layerMetrics reduces a traced run's spans and samples to every
// per-layer metric; layers the workload did not reach read 0. Callers
// add the metrics that do not come from spans.
func layerMetrics(l *spanLog, out *outcome) {
	busy, self, walls, remainders := l.layerTimes()
	for _, m := range perLayer {
		out.metrics[m.name] = 0
	}
	for metric, name := range map[string]string{
		"gen.busy_ms": "gen", "engine.busy_ms": "engine", "verify.busy_ms": "verify",
		"stretch.busy_ms": "stretch", "ref.busy_ms": "ref",
		"svc.decode_ms": "svc.decode", "svc.inline_build_ms": "svc.inline_build", "svc.hash_ms": "svc.hash",
		"svc.inline_params_ms": "svc.inline_params", "svc.cache_get_ms": "svc.cache_get",
		"svc.encode_ms": "svc.encode", "svc.run_ms": "svc.run",
	} {
		out.metrics[metric] = median(busy[name])
	}
	for metric, name := range map[string]string{
		"sweep.self_ms": "sweep", "svc.handler_self_ms": "svc.serve", "svc.net_ms": "svc.net",
	} {
		out.metrics[metric] = median(self[name])
	}
	for _, name := range []string{"engine.step_ms", "engine.route_ms", "engine.sync_ms", "engine.alloc_bytes",
		"engine.active_share", "engine.peak_active", "verify.searches", "verify.alloc_bytes"} {
		out.metrics[name] = median(l.samples[name])
	}
	for _, name := range []string{"engine.rounds", "engine.messages", "engine.bits"} {
		out.metrics[name] = mean(l.samples[name])
	}
	out.metrics["ref.calls"] = sum(l.samples["ref.calls"])
	out.metrics["trace.remainder_ms"] = median(remainders)
	out.metrics["bench.failed_share"] = float64(out.failed) / float64(max(out.attempted, 1))

	// The accounting check: per op, the self times of its spans plus the
	// remainder add up to its wall time by construction; report the
	// shares so a reader can see where the wall time went.
	total := sum(walls)
	shares := map[string]float64{"remainder": sum(remainders) / total}
	for name, v := range self {
		shares[name] = sum(v) / total
	}
	out.detail["self_time_shares"] = shares
	out.detail["op_wall_ms_p50"] = median(walls)
}

// writePins recomputes the pinned pools with sweep.Single and writes them
// as Go source.
func writePins(w io.Writer) error {
	var b bytes.Buffer
	b.WriteString("// Code generated by perfbench -pin; DO NOT EDIT.\n\n")
	b.WriteString("package main\n\n")
	b.WriteString("// pins holds, per scenario workload, the outcome sweep.Single gave for\n")
	b.WriteString("// each graph seed of the pool when the benchmark was created. Every run\n")
	b.WriteString("// must reproduce it exactly.\n")
	b.WriteString("var pins = map[string][]pin{\n")
	for _, spec := range []scenarioSpec{denseBusy, sparseScale} {
		pool, err := pinPool(spec, 1, int64(spec.pool))
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "%q: {\n", spec.name)
		for _, p := range pool {
			fmt.Fprintf(&b, "{%d, fingerprint{%d, %d, %d, %d}},\n", p.Seed, p.Size, p.Rounds, p.Messages, p.TotalBits)
		}
		b.WriteString("},\n")
	}
	b.WriteString("}\n")
	src, err := format.Source(b.Bytes())
	if err != nil {
		return err
	}
	_, err = w.Write(src)
	return err
}

// pinPool runs graph seeds from..to of spec with sweep.Single and returns
// their fingerprints.
func pinPool(spec scenarioSpec, from, to int64) ([]pin, error) {
	sc, ok := scenario.Get(spec.scenario)
	if !ok {
		return nil, fmt.Errorf("%s: scenario %q is not registered", spec.name, spec.scenario)
	}
	cell := sc.Defaults.Merge(spec.cell)
	var pool []pin
	for s := from; s <= to; s++ {
		m, err := sweep.Single(sc, cell, s, 0, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: seed %d: %w", spec.name, s, err)
		}
		pool = append(pool, pin{Seed: s, fingerprint: fingerprintOf(m)})
	}
	return pool, nil
}
