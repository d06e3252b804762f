// Package trace records, hashes, and exports the execution narration
// the dist engine emits through dist.Config.Tracer.
//
// The narration has two strictly separated channels (see dist/trace.go):
// the logical transcript — per-vertex send/deliver/wake/park/retire
// events plus per-round activity snapshots, a deterministic function of
// (Graph, Seed, protocol) — and the wall-clock timing channel, which is
// not deterministic and never enters the transcript. This package keeps
// the separation: Digest hashes only the logical channel, exporters
// carry both but label them apart, and TimingRecorder drops the logical
// channel entirely when only telemetry is wanted.
//
// The canonical artifacts:
//
//   - Recorder: the standard Tracer. Logical events land in per-vertex
//     append-only buffers — within one vertex the order is the engine's
//     deterministic emission order, and cross-vertex interleaving (the
//     one thing that varies between execution paths) is never stored.
//   - Digest: an FNV-64a hash per vertex plus a whole-run hash. Equal
//     digests mean equal logical transcripts; the shard-invariance and
//     transport-conformance tests assert equality between the in-process
//     engine and the sharded runner over every transport.
//   - WriteJSONL / ReadJSONL / Check: the line-oriented interchange
//     format, one JSON object per line, self-validating (the trailing
//     digest line must match a recomputation over the lines above it).
//   - WriteChrome: the Chrome trace_event rendering of the timing
//     channel with activity counters, for chrome://tracing / Perfetto.
package trace

import (
	"fmt"

	"distspanner/internal/dist"
)

// Recorder is the standard dist.Tracer: it records the full narration
// of one run. The engine serializes all Tracer calls, so Recorder has
// no internal locking — do not share one Recorder between concurrent
// runs, and use a fresh Recorder per run (buffers only ever grow).
type Recorder struct {
	events  [][]dist.TraceEvent
	phases  []dist.RoundActivity
	timings []dist.RoundTiming
}

// NewRecorder returns a Recorder for an n-vertex run.
func NewRecorder(n int) *Recorder {
	return &Recorder{events: make([][]dist.TraceEvent, n)}
}

// Event appends ev to its vertex's transcript buffer.
func (r *Recorder) Event(ev dist.TraceEvent) {
	r.events[ev.V] = append(r.events[ev.V], ev)
}

// Phase appends the completed round's activity snapshot.
func (r *Recorder) Phase(act dist.RoundActivity) {
	r.phases = append(r.phases, act)
}

// RoundTime appends the completed round's wall-clock measurement.
func (r *Recorder) RoundTime(t dist.RoundTiming) {
	r.timings = append(r.timings, t)
}

// N returns the vertex count the Recorder was built for.
func (r *Recorder) N() int { return len(r.events) }

// VertexEvents returns vertex v's transcript buffer. The slice is the
// live buffer; callers must not modify it.
func (r *Recorder) VertexEvents(v int) []dist.TraceEvent { return r.events[v] }

// Phases returns the per-round activity snapshots in round order.
func (r *Recorder) Phases() []dist.RoundActivity { return r.phases }

// Timings returns the timing channel in round order.
func (r *Recorder) Timings() []dist.RoundTiming { return r.timings }

// EventCount returns the total number of logical events recorded.
func (r *Recorder) EventCount() int {
	n := 0
	for _, evs := range r.events {
		n += len(evs)
	}
	return n
}

// addEvent rebuilds a Recorder from deserialized lines, validating the
// vertex id.
func (r *Recorder) addEvent(ev dist.TraceEvent) error {
	if ev.V < 0 || ev.V >= len(r.events) {
		return fmt.Errorf("trace: event vertex %d out of range [0,%d)", ev.V, len(r.events))
	}
	r.events[ev.V] = append(r.events[ev.V], ev)
	return nil
}

// TimingRecorder is a dist.Tracer that keeps only the timing channel,
// discarding logical events — the cheap choice when a run only wants
// wall-clock telemetry (the sweep timing metrics use it). Like
// Recorder, one TimingRecorder serves one run.
type TimingRecorder struct {
	timings []dist.RoundTiming
}

// Event discards the logical event.
func (t *TimingRecorder) Event(dist.TraceEvent) {}

// Phase discards the activity snapshot.
func (t *TimingRecorder) Phase(dist.RoundActivity) {}

// RoundTime appends the completed round's measurement.
func (t *TimingRecorder) RoundTime(rt dist.RoundTiming) {
	t.timings = append(t.timings, rt)
}

// Timings returns the recorded timing channel in round order.
func (t *TimingRecorder) Timings() []dist.RoundTiming { return t.timings }
