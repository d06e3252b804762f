package trace

import "distspanner/internal/dist"

// Digest is the canonical hash of one run's logical transcript: one
// FNV-64a hash per vertex over that vertex's event buffer, and a
// whole-run hash folding the vertex hashes (in id order) with the
// per-round activity snapshots. The timing channel never enters it.
//
// Two successful runs have equal Digests iff their logical transcripts
// are equal — same events per vertex in the same per-vertex order, same
// activity curve. The determinism contract this pins down: for a fixed
// (Graph, Seed, protocol), the in-process engine and the sharded runner
// produce the same Digest at every shard count (asserted by the
// shard-invariance and transport-conformance tests), and the
// golden-digest tests keep it stable across refactors. Aborted runs
// (round limit, cancellation, enforcement, panic) truncate the narration
// at path-dependent points and carry no digest guarantee.
type Digest struct {
	// Run is the whole-run hash, 16 hex digits.
	Run string
	// Vertex holds the per-vertex hashes, indexed by vertex id.
	Vertex []string
}

// FNV-64a parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// mix folds one 64-bit value into an FNV-64a state, byte by byte,
// little-endian. Fixed-width folding keeps the encoding unambiguous
// without separators.
func mix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// mixEvent folds one logical event. The vertex id is not folded — it is
// implied by which buffer the event lives in — so a per-vertex hash is
// a pure function of that vertex's own transcript.
func mixEvent(h uint64, ev dist.TraceEvent) uint64 {
	h = mix(h, uint64(ev.Kind))
	h = mix(h, uint64(ev.Round))
	h = mix(h, uint64(int64(ev.Peer)))
	h = mix(h, uint64(ev.Tag))
	// A zero word where events once carried a boxed-payload flag (always
	// false for records): folding it keeps every golden and previously
	// recorded digest unchanged.
	h = mix(h, 0)
	return mix(h, uint64(ev.Bits))
}

// mixPhase folds one per-round activity snapshot.
func mixPhase(h uint64, act dist.RoundActivity) uint64 {
	h = mix(h, uint64(act.Round))
	h = mix(h, uint64(act.Active))
	h = mix(h, uint64(act.Parked))
	h = mix(h, uint64(act.Senders))
	h = mix(h, uint64(act.Delivered))
	return mix(h, uint64(act.DeliveredBits))
}

const hexDigits = "0123456789abcdef"

// hex64 formats h as 16 lowercase hex digits.
func hex64(h uint64) string {
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexDigits[h&0xf]
		h >>= 4
	}
	return string(b[:])
}

// Digest computes the canonical transcript hash of the recorded run.
func (r *Recorder) Digest() Digest {
	d := Digest{Vertex: make([]string, len(r.events))}
	run := mix(fnvOffset, uint64(len(r.events)))
	for v, evs := range r.events {
		h := mix(fnvOffset, uint64(len(evs)))
		for _, ev := range evs {
			h = mixEvent(h, ev)
		}
		d.Vertex[v] = hex64(h)
		run = mix(run, h)
	}
	run = mix(run, uint64(len(r.phases)))
	for _, act := range r.phases {
		run = mixPhase(run, act)
	}
	d.Run = hex64(run)
	return d
}

// Equal reports whether two digests are identical (same run hash and
// same per-vertex hashes).
func (d Digest) Equal(o Digest) bool {
	if d.Run != o.Run || len(d.Vertex) != len(o.Vertex) {
		return false
	}
	for i := range d.Vertex {
		if d.Vertex[i] != o.Vertex[i] {
			return false
		}
	}
	return true
}
