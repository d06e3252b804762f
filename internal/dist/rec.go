package dist

import (
	"math"
	"sort"
)

// Records, the engine's one message family. Every message is a flat,
// type-tagged record; nothing on its path is boxed in an interface, and
// the engine pays once per sent record, not once per copy, which is what
// keeps busy phases (every vertex broadcasting small state deltas every
// round) cheap:
//
//   - A Rec has two scalar words, three floats, an optional []int tail,
//     and a protocol-defined Tag/Flag pair. A protocol's message structs
//     map themselves onto it (the rec() builders of internal/core,
//     internal/mds, internal/lb, and internal/decomp).
//   - Ctx.SendRec stages a record into per-vertex append-only out arenas:
//     one outHdr per sent record (its header, metered size and tail
//     span), an int32 neighbor position per destination, and the int
//     tails packed in a third arena. Consecutive sends of an identical
//     record (same tag, flag, size, bitwise-equal scalars and floats, and
//     the same staged tail) extend the last header's run of positions, so
//     a broadcast to d neighbors stages one header, d positions and one
//     tail.
//   - deliver walks the round's sends in ascending sender id, each
//     sender's in send order, twice. The first pass counts each live
//     receiver's deliveries and wakes parked receivers; the engine then
//     carves every inbox from one per-engine arena. The second pass copies
//     each delivered record's header once into a per-round table and
//     writes 16-byte InRec entries, sender id plus a pointer into that
//     table, into the receivers' inboxes.
//   - Receivers iterate their inbox in place via StepIn.Recs. The record
//     an InRec points at, and its Ints tail, are shared with every other
//     receiver of the send: read-only, and valid only during the Step
//     call. A tail aliases the sender's out arena from the previous round
//     (or, sharded, the inbound RecBatch): each Ctx keeps two tail arenas
//     and clearSends swaps them when a round commits, so a tail stays
//     untouched while its receivers step in the next round — in parallel
//     or on another shard — and the sender writes the other arena. Every
//     arena is truncated, never freed, so steady-state rounds allocate
//     nothing.
//   - Across shards a send travels as one BatchRec per destination: the
//     flat header plus its packed tail (RecBatch).
//
// Metering: a record's bit size is declared by the sender at SendRec
// time, computed by the protocol's Bits method for that message under
// CONGEST accounting (AuditPayloadFields and spanlint's bitsacct check
// that every transmitted field is billed), and every destination is
// metered on its own: meterSender sums a sender's bits per edge in the
// metering part's scratch, not in the sender's Ctx. The determinism
// contract (ARCHITECTURE.md) covers records end to end.

// Rec is one flat typed record: the unit of the flat-buffer inbox path.
// Tag identifies the record type (protocol-defined; zero is fine), Flag
// carries protocol flag bits, A/B are scalar words, F0..F2 are float
// fields, and Ints is the variable-length tail. Unused fields are simply
// left zero; the engine never interprets any of them.
type Rec struct {
	Tag  uint8
	Flag uint8
	A, B int64
	F0   float64
	F1   float64
	F2   float64
	Ints []int
}

// InRec is one delivered record: the sender id plus a pointer to the
// record, whose fields read through the embedded pointer (r.Tag, r.Ints).
// The record is shared with every other receiver of the send, and its
// Ints tail aliases the sender's arena from the previous round: both are
// read-only, valid only during the Step call that received them, and
// must be copied if kept longer.
type InRec struct {
	From int
	*Rec
}

// recKey is a staged record as coalescing compares it: the header, the
// metered size and the staged tail span [off, off+n) in the sender's
// outInts arena. Floats are kept as their bit patterns, so == compares
// them bitwise: +0 and -0 are different records.
type recKey struct {
	tag, flag  uint8
	off, n     int32
	bits       int64
	a, b       int64
	f0, f1, f2 uint64
}

// outHdr is one sent record: its key plus the end of its run of
// destination neighbor positions in Ctx.outTo. The run starts where the
// previous header's ends.
type outHdr struct {
	recKey
	end int32
}

// SendRec queues rec for delivery to the neighbor to at the next round
// boundary, metered at bits bits (negative is clamped to zero). rec.Ints
// is copied into the sender's arena: consecutive SendRec calls passing
// the same Ints slice (a broadcast) stage the tail once and share it,
// and consecutive calls passing an identical record share one header.
// Sends are committed when the step that queued them returns — including
// a retiring step (StepDone): a vertex's last words ride the round in
// flight, and when they could only reach already-retired peers they are
// metered and dropped without charging a round. Sending to a non-neighbor
// (or to yourself) panics: the model only has channels along graph
// edges.
func (c *Ctx) SendRec(to int, rec Rec, bits int) {
	i := c.nbrIndex(to) // validates
	off, n := c.stageInts(rec.Ints)
	k := recKey{
		tag: rec.Tag, flag: rec.Flag, off: off, n: n, bits: int64(bits),
		a: rec.A, b: rec.B,
		f0: math.Float64bits(rec.F0), f1: math.Float64bits(rec.F1), f2: math.Float64bits(rec.F2),
	}
	c.outTo = append(c.outTo, int32(i))
	if last := len(c.outHdrs) - 1; last >= 0 && c.outHdrs[last].recKey == k {
		c.outHdrs[last].end++
		return
	}
	c.outHdrs = append(c.outHdrs, outHdr{recKey: k, end: int32(len(c.outTo))})
}

// BroadcastRec queues rec for every neighbor, staging it once.
func (c *Ctx) BroadcastRec(rec Rec, bits int) {
	for _, u := range c.nbrs {
		c.SendRec(u, rec, bits)
	}
}

// stageInts copies ints into the out arena and returns the staged span.
// When the caller passes the same backing slice as the previous call (the
// broadcast pattern) the previous span is reused instead of re-copied;
// callers must not mutate a slice between sends that pass it.
func (c *Ctx) stageInts(ints []int) (off, n int32) {
	if len(ints) == 0 {
		return 0, 0
	}
	if len(c.lastStaged) == len(ints) && &c.lastStaged[0] == &ints[0] {
		return c.lastOff, int32(len(ints))
	}
	off = int32(len(c.outInts))
	c.outInts = append(c.outInts, ints...)
	c.lastStaged, c.lastOff = ints, off
	return off, int32(len(ints))
}

// clearSends empties the send queue once its records are delivered (or
// discarded) and swaps the tail arenas: the tails just delivered stay
// intact for their receivers' next step while this vertex stages into
// the other arena, which nobody reads any more.
func (c *Ctx) clearSends() {
	c.outHdrs = c.outHdrs[:0]
	c.outTo = c.outTo[:0]
	c.outInts, c.prevInts = c.prevInts[:0], c.outInts
	c.lastStaged = nil
}

// SeekPos resolves a sender id to its position in the sorted neighbor
// list, resuming a monotone scan at j. Inboxes arrive sorted by sender,
// so decoding one inbox advances j once across the neighbor slice — a
// merge scan in place of a per-message map lookup. from must be present
// in nbrs at or after position j (the engine only delivers along edges).
func SeekPos(nbrs []int, j, from int) int {
	if nbrs[j] == from {
		return j
	}
	if j+1 < len(nbrs) && nbrs[j+1] == from {
		return j + 1
	}
	return j + sort.SearchInts(nbrs[j:], from)
}

// hasSends reports whether any send is queued.
func (c *Ctx) hasSends() bool {
	return len(c.outHdrs) > 0
}

// run returns the destination neighbor positions of header hi.
func (c *Ctx) run(hi int) []int32 {
	lo := int32(0)
	if hi > 0 {
		lo = c.outHdrs[hi-1].end
	}
	return c.outTo[lo:c.outHdrs[hi].end]
}

// rec rebuilds the record a key was staged from, its tail spanning ints.
func (k *recKey) rec(ints []int) Rec {
	return Rec{
		Tag: k.tag, Flag: k.flag, A: k.a, B: k.b,
		F0: math.Float64frombits(k.f0), F1: math.Float64frombits(k.f1), F2: math.Float64frombits(k.f2),
		Ints: span(ints, k.off, k.n),
	}
}

// span returns the tail [off, off+n) of an int arena; nil when empty.
// Its capacity ends with the tail, so a receiver appending to a shared
// tail copies it instead of writing over the arena.
func span(ints []int, off, n int32) []int {
	if n == 0 {
		return nil
	}
	return ints[off : off+n : off+n]
}
