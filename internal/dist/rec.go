package dist

import "sort"

// Records, the engine's one message family. Every message is a flat,
// type-tagged record; nothing on its path is boxed in an interface, which
// is what keeps hot busy phases (every vertex broadcasting small state
// deltas every round) cheap:
//
//   - A Rec has two scalar words, three floats, an optional []int tail,
//     and a protocol-defined Tag/Flag pair. A protocol's message structs
//     map themselves onto it (the rec() builders of internal/core,
//     internal/mds, internal/lb, and internal/decomp).
//   - Senders queue records with Ctx.SendRec into a per-vertex append-only
//     out arena (record headers in one slice, int tails packed in
//     another). Broadcasting the same record to many neighbors stages its
//     tail once and shares the span.
//   - Delivery copies each record's header into the receiver's inbox —
//     contiguous, type-tagged, in ascending sender id with ties in send
//     order — and points its Ints at the tail where the sender staged
//     it. A broadcast tail is stored once however many neighbors read it.
//   - Receivers iterate the inbox in place via StepIn.Recs. A record's
//     Ints tail aliases the sender's out arena from the previous round
//     (or, sharded, the inbound RecBatch): it is shared with every other
//     receiver of the broadcast, read-only, and valid only during the
//     Step call. Each Ctx keeps two tail arenas and clearSends swaps
//     them when a round commits, so a tail stays untouched while its
//     receivers step in the next round — in parallel or on another
//     shard — and the sender writes the other arena. Arenas are
//     truncated, never freed, so steady-state rounds allocate nothing.
//   - The flat header plus the packed tail is also the wire format: a
//     record crosses shards (RecBatch) unchanged.
//
// Metering: a record's bit size is declared by the sender at SendRec
// time, computed by the protocol's Bits method for that message under
// CONGEST accounting (AuditPayloadFields and spanlint's bitsacct check
// that every transmitted field is billed). The determinism contract
// (ARCHITECTURE.md) covers records end to end.

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

// InRec is one delivered record: the sender id plus the record. Ints
// aliases the sender's tail arena from the previous round and is shared
// with the broadcast's other receivers: it is read-only, valid only
// during the Step call that received it, and must be copied if kept
// longer.
type InRec struct {
	From int
	Rec
}

// outRec is one queued record send. The tail lives in the sender's
// outInts arena at [off, off+n); scalar fields are stored flat so a
// queued record is a fixed-size header plus a shared span.
type outRec struct {
	to, nbrIdx int32
	off, n     int32
	tag, flag  uint8
	bits       int64
	a, b       int64
	f0, f1, f2 float64
}

// SendRec queues rec for delivery to the neighbor to at the next round
// boundary, metered at bits bits (negative is clamped to zero). rec.Ints
// is copied into the sender's arena: consecutive SendRec calls passing
// the same Ints slice (a broadcast) stage the tail once and share it.
// Sends are committed when the step that queued them returns — including
// a retiring step (StepDone): a vertex's last words ride the round in
// flight, and when they could only reach already-retired peers they are
// metered and dropped without charging a round. Sending to a non-neighbor
// (or to yourself) panics: the model only has channels along graph
// edges.
func (c *Ctx) SendRec(to int, rec Rec, bits int) {
	i := c.nbrIndex(to) // validates
	c.ensureScratch()
	off, n := c.stageInts(rec.Ints)
	c.outRecs = append(c.outRecs, outRec{
		to: int32(to), nbrIdx: int32(i), bits: int64(bits),
		off: off, n: n,
		tag: rec.Tag, flag: rec.Flag,
		a: rec.A, b: rec.B, f0: rec.F0, f1: rec.F1, f2: rec.F2,
	})
}

// BroadcastRec queues rec for every neighbor, staging the tail once.
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

// takeRecs hands the delivered batch to the vertex, truncating the inbox
// for the next round (capacity is kept: one allocation amortizes across
// all rounds).
func (c *Ctx) takeRecs() []InRec {
	recs := c.inRecs
	c.inRecs = c.inRecs[:0]
	return recs
}

// clearSends empties the send queue once its records are delivered (or
// discarded) and swaps the tail arenas: the tails just delivered stay
// intact for their receivers' next step while this vertex stages into
// the other arena, which nobody reads any more.
func (c *Ctx) clearSends() {
	c.outRecs = c.outRecs[:0]
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
	return len(c.outRecs) > 0
}

// fill copies the queued record's header into a delivered slot (the tail
// is set by deliverRec).
func (o *outRec) fill(r *Rec) {
	r.Tag, r.Flag, r.A, r.B, r.F0, r.F1, r.F2 = o.tag, o.flag, o.a, o.b, o.f0, o.f1, o.f2
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
