package dist

import "sort"

// The flat-buffer typed inbox path. The boxed Message/Payload API routes
// every payload through an interface value: senders box, the router copies
// interface headers, and receivers type-switch per message. Protocols with
// hot busy phases (every vertex broadcasting small state deltas every
// round) pay that per-message overhead thousands of times per round, which
// is what the record path removes:
//
//   - A Rec is a flat, type-tagged record: two scalar words, three floats,
//     an optional []int tail, and a protocol-defined Tag/Flag pair. No
//     interface boxing anywhere on its path.
//   - Senders queue records with Ctx.SendRec into a per-vertex append-only
//     out arena (record headers in one slice, int tails packed in
//     another). Broadcasting the same record to many neighbors stages its
//     tail once and shares the span.
//   - The router copies records straight into the receivers' in arenas —
//     contiguous, type-tagged, sender order preserved (ascending sender
//     id, ties in send order, exactly like the boxed inbox).
//   - Receivers iterate the arena in place via StepIn.Recs. The records
//     alias the arena (zero-copy): a record's Ints tail is a view into
//     the inbox buffer, valid only during the Step call. Arenas are
//     truncated, never freed, so steady-state rounds allocate nothing.
//
// Metering: a record's bit size is supplied by the sender at SendRec time
// (protocols compute it from the same accounting rules as a boxed
// payload's Bits method), so Stats are identical whichever path a protocol
// uses. The determinism contract (ARCHITECTURE.md) applies to records
// unchanged.
//
// A protocol should use one family — records or boxed payloads — for all
// of its traffic. The engine delivers both (a mixed round wakes a parked
// receiver either way) in separate inboxes, StepIn.Msgs and StepIn.Recs,
// so mixed-family protocols must read both.

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
// aliases the receiving vertex's inbox arena — it is valid only during
// the Step call that received it and must be copied if kept longer.
type InRec struct {
	From int
	Rec
	off, n int32 // tail span in the inbox arena, bound to Ints at read time
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
// boundary, metered at bits bits (negative is clamped to zero — compute
// bits with the same accounting rules a boxed payload's Bits method would
// use). rec.Ints is copied into the sender's arena: consecutive SendRec
// calls passing the same Ints slice (a broadcast) stage the tail once and
// share it. Like Send, sending to a non-neighbor panics, and sends are
// committed when the step returns.
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

// takeRecs binds each delivered record's Ints view into the arena and
// hands the batch to the vertex, truncating the arena for the next round
// (capacity is kept: one allocation amortizes across all rounds).
func (c *Ctx) takeRecs() []InRec {
	recs := c.inRecs
	for i := range recs {
		if recs[i].n > 0 {
			recs[i].Ints = c.inInts[recs[i].off : recs[i].off+recs[i].n]
		}
	}
	c.inRecs = c.inRecs[:0]
	c.inInts = c.inInts[:0]
	return recs
}

// takeMessages hands the boxed inbox to the vertex.
func (c *Ctx) takeMessages() []Message {
	inbox := c.inbox
	c.inbox = nil
	return inbox
}

// clearSends discards all queued-but-uncommitted sends of both families.
func (c *Ctx) clearSends() {
	c.outbox = c.outbox[:0]
	c.outRecs = c.outRecs[:0]
	c.outInts = c.outInts[:0]
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

// hasSends reports whether any send (boxed or record) is queued.
func (c *Ctx) hasSends() bool {
	return len(c.outbox) > 0 || len(c.outRecs) > 0
}
