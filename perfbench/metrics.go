package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; the tests hold the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the figures a user of the system pays, reported by every
// workload with tracing off. On the scenario workloads an op is one
// verified sweep.Single run; on service-mix it is one HTTP request.
//
// Time is CPU time. On a shared two-core virtual machine the wall time of
// the same op moves by a fifth between runs, with the time the host gives
// to other guests, while its CPU time moves by a few percent; wall-clock
// latency and throughput are reported beside it (wall.* in the traced
// run, and in every run's detail line) but do not gate.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},                   // median CPU time of three set-ups: inputs, warm-up, server boot and priming
	{"cpu_ms_per_op", "ms", "lower"},            // process CPU time per op, all threads (service-mix: client and server)
	{"peak_rss_bytes", "bytes", "lower"},        // peak resident set of the whole process
	{"alloc_bytes_per_op", "bytes", "lower"},    // heap bytes allocated per op
	{"model_rounds_per_op", "count", "lower"},   // mean engine rounds over the seed's fixed op list
	{"model_messages_per_op", "count", "lower"}, // mean engine messages over the seed's fixed op list
}

// perLayer is the traced breakdown. Busy times are medians over the calls
// into a layer; counts are totals over the traced phase unless the name
// says otherwise. Layers a workload does not reach report 0.
var perLayer = []metricDef{
	{"wall.latency_ms_p50", "ms", "lower"},
	{"wall.throughput_per_s", "1/s", "higher"},
	{"gen.busy_ms", "ms", "lower"},
	{"engine.busy_ms", "ms", "lower"},
	{"engine.step_ms", "ms", "lower"},
	{"engine.route_ms", "ms", "lower"},
	{"engine.sync_ms", "ms", "lower"},
	{"engine.alloc_bytes", "bytes", "lower"},
	{"engine.active_share", "ratio", "lower"},
	{"engine.peak_active", "count", "lower"},
	{"engine.rounds", "count", "lower"},
	{"engine.messages", "count", "lower"},
	{"engine.bits", "bits", "lower"},
	{"verify.busy_ms", "ms", "lower"},
	{"stretch.busy_ms", "ms", "lower"},
	{"verify.searches", "count", "lower"},
	{"verify.alloc_bytes", "bytes", "lower"},
	{"ref.busy_ms", "ms", "lower"},
	{"ref.calls", "count", "lower"},
	{"sweep.self_ms", "ms", "lower"},
	{"svc.decode_ms", "ms", "lower"},
	{"svc.inline_build_ms", "ms", "lower"},
	{"svc.hash_ms", "ms", "lower"},
	{"svc.inline_params_ms", "ms", "lower"},
	{"svc.cache_get_ms", "ms", "lower"},
	{"svc.encode_ms", "ms", "lower"},
	{"svc.handler_self_ms", "ms", "lower"},
	{"svc.net_ms", "ms", "lower"},
	{"svc.queue_wait_ms", "ms", "lower"},
	{"svc.run_ms", "ms", "lower"},
	{"svc.queued_peak", "count", "lower"},
	{"svc.hits", "count", "higher"},
	{"svc.misses", "count", "lower"},
	{"svc.coalesced", "count", "higher"},
	{"svc.evictions", "count", "lower"},
	{"svc.hit_share", "ratio", "higher"},
	{"svc.hit_ms_p50", "ms", "lower"},
	{"svc.hit_ms_p90", "ms", "lower"},
	{"svc.inline_hit_ms_p50", "ms", "lower"},
	{"svc.inline_hit_ms_p90", "ms", "lower"},
	{"svc.cold_ms_p50", "ms", "lower"},
	{"svc.cold_ms_p90", "ms", "lower"},
	{"loadgen.lateness_ms_p90", "ms", "lower"},
	{"loadgen.backlog_growth", "count", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
	{"trace.remainder_ms", "ms", "lower"},
	{"bench.failed_share", "ratio", "lower"},
}

// quantile returns the q-quantile of vals by linear interpolation between
// order statistics (0 for an empty sample). +Inf entries, the latency of
// failed requests, sort last.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// mean averages the finite entries of vals.
func mean(vals []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range vals {
		if !math.IsInf(v, 0) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func sum(vals []float64) float64 {
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s
}

// peakRSS returns the process's peak resident set in bytes (VmHWM), or
// the runtime's reserved memory where /proc is unavailable.
func peakRSS() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
				if err == nil {
					return kb * 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys)
}

// allocated returns the cumulative heap bytes allocated by the process.
func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// cpuTime returns the CPU time, user and system over all threads, the
// process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ms converts nanoseconds to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }
