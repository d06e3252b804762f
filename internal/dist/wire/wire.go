// Package wire implements the binary frame codec and the TCP transport
// for the dist package's sharded runner. Frames are length-prefixed
// (u32 little-endian payload length) and the payload is a fixed-width
// little-endian encoding: a version byte, the frame type, then the
// frame body. The Rec flat-buffer layout (dist.BatchRec) is the
// serialization for cross-shard record sends — no reflection, no
// per-field tags, and the decoder rejects truncated or malformed input
// without panicking or over-allocating.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"distspanner/internal/dist"
)

// MaxFrameBytes bounds a single frame's payload; ReadFrame rejects
// longer length prefixes before allocating.
const MaxFrameBytes = 1 << 28

// frameVersion is the codec version; a mismatch is a decode error.
const frameVersion = 3

// writer is an append-only little-endian encoder.
type writer struct {
	b []byte
}

func (w *writer) u8(v byte)     { w.b = append(w.b, v) }
func (w *writer) u64(v uint64)  { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *writer) int_(v int)    { w.u64(uint64(int64(v))) }
func (w *writer) i64(v int64)   { w.u64(uint64(v)) }
func (w *writer) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *writer) str(s string)  { w.int_(len(s)); w.b = append(w.b, s...) }
func (w *writer) bool_(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *writer) ints(v []int) {
	w.int_(len(v))
	for _, x := range v {
		w.int_(x)
	}
}

// reader is a bounds-checked decoder; the first failure latches err and
// turns every further read into a zero-value no-op.
type reader struct {
	p   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: "+format, args...)
	}
}

func (r *reader) remaining() int { return len(r.p) - r.off }

func (r *reader) u8() byte {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 1 {
		r.fail("truncated frame")
		return 0
	}
	v := r.p[r.off]
	r.off++
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 8 {
		r.fail("truncated frame")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.p[r.off:])
	r.off += 8
	return v
}

func (r *reader) int_() int    { return int(int64(r.u64())) }
func (r *reader) i64() int64   { return int64(r.u64()) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *reader) bool_() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("invalid bool byte")
		return false
	}
}

// count reads a non-negative element count and verifies the remaining
// bytes can plausibly hold it (minSize bytes per element), so garbage
// lengths cannot trigger huge allocations.
func (r *reader) count(minSize int) int {
	c := r.int_()
	if r.err != nil {
		return 0
	}
	if c < 0 || (minSize > 0 && c > r.remaining()/minSize) {
		r.fail("implausible count %d for %d remaining bytes", c, r.remaining())
		return 0
	}
	return c
}

func (r *reader) str() string {
	n := r.count(1)
	if r.err != nil || n == 0 {
		return ""
	}
	s := string(r.p[r.off : r.off+n])
	r.off += n
	return s
}

func (r *reader) ints() []int {
	n := r.count(8)
	if r.err != nil || n == 0 {
		return nil
	}
	v := make([]int, n)
	for i := range v {
		v[i] = r.int_()
	}
	return v
}

// i32 reads an int that must fit int32 (BatchRec header fields).
func (r *reader) i32() int32 {
	v := r.int_()
	if r.err == nil && (v < math.MinInt32 || v > math.MaxInt32) {
		r.fail("value %d overflows int32 field", v)
	}
	return int32(v)
}

func putBools(w *writer, v []bool) {
	w.int_(len(v))
	for _, b := range v {
		w.bool_(b)
	}
}

func getBools(r *reader) []bool {
	n := r.count(1)
	if r.err != nil || n == 0 {
		return nil
	}
	v := make([]bool, n)
	for i := range v {
		v[i] = r.bool_()
	}
	return v
}

// batchRecWire is the fixed on-wire size of one BatchRec.
const batchRecWire = 10*8 + 2

func putBatch(w *writer, b *dist.RecBatch) {
	w.int_(len(b.Recs))
	for i := range b.Recs {
		rec := &b.Recs[i]
		w.int_(int(rec.From))
		w.int_(int(rec.To))
		w.u8(rec.Tag)
		w.u8(rec.Flag)
		w.i64(rec.Bits)
		w.i64(rec.A)
		w.i64(rec.B)
		w.f64(rec.F0)
		w.f64(rec.F1)
		w.f64(rec.F2)
		w.int_(int(rec.Off))
		w.int_(int(rec.N))
	}
	w.ints(b.Ints)
}

func getBatch(r *reader) dist.RecBatch {
	var b dist.RecBatch
	n := r.count(batchRecWire)
	if r.err != nil {
		return b
	}
	if n > 0 {
		b.Recs = make([]dist.BatchRec, n)
		for i := range b.Recs {
			rec := &b.Recs[i]
			rec.From = r.i32()
			rec.To = r.i32()
			rec.Tag = r.u8()
			rec.Flag = r.u8()
			rec.Bits = r.i64()
			rec.A = r.i64()
			rec.B = r.i64()
			rec.F0 = r.f64()
			rec.F1 = r.f64()
			rec.F2 = r.f64()
			rec.Off = r.i32()
			rec.N = r.i32()
		}
	}
	b.Ints = r.ints()
	// Tail spans must stay inside the arena so the receiver never
	// slices out of bounds.
	for i := range b.Recs {
		rec := &b.Recs[i]
		if r.err != nil {
			break
		}
		if rec.Off < 0 || rec.N < 0 || int(rec.Off)+int(rec.N) > len(b.Ints) {
			r.fail("record tail [%d,%d) outside arena of %d ints", rec.Off, int(rec.Off)+int(rec.N), len(b.Ints))
		}
	}
	return b
}

func putBatches(w *writer, bs []dist.RecBatch) {
	w.int_(len(bs))
	for i := range bs {
		putBatch(w, &bs[i])
	}
}

func getBatches(r *reader) []dist.RecBatch {
	n := r.count(8)
	if r.err != nil || n == 0 {
		return nil
	}
	bs := make([]dist.RecBatch, n)
	for i := range bs {
		bs[i] = getBatch(r)
	}
	return bs
}

func putMeter(w *writer, m *dist.MeterReport) {
	w.i64(m.Msgs)
	w.i64(m.Bits)
	w.i64(m.CutBits)
	w.int_(m.MaxMsg)
	w.int_(m.MaxEdge)
	w.int_(m.ViolSender)
	w.int_(m.ViolTo)
	w.int_(m.ViolBits)
}

func getMeter(r *reader) dist.MeterReport {
	return dist.MeterReport{
		Msgs: r.i64(), Bits: r.i64(), CutBits: r.i64(),
		MaxMsg: r.int_(), MaxEdge: r.int_(),
		ViolSender: r.int_(), ViolTo: r.int_(), ViolBits: r.int_(),
	}
}

func putEvents(w *writer, evs [][]dist.TraceEvent) {
	w.int_(len(evs))
	for _, ve := range evs {
		w.int_(len(ve))
		for i := range ve {
			ev := &ve[i]
			w.u8(byte(ev.Kind))
			w.int_(ev.Round)
			w.int_(ev.V)
			w.int_(ev.Peer)
			w.u8(ev.Tag)
			w.int_(ev.Bits)
		}
	}
}

const traceEventWire = 4*8 + 2

func getEvents(r *reader) [][]dist.TraceEvent {
	n := r.count(8)
	if r.err != nil || n == 0 {
		return nil
	}
	evs := make([][]dist.TraceEvent, n)
	for v := range evs {
		c := r.count(traceEventWire)
		if r.err != nil {
			return nil
		}
		if c == 0 {
			continue
		}
		ve := make([]dist.TraceEvent, c)
		for i := range ve {
			ve[i] = dist.TraceEvent{
				Kind:  dist.TraceKind(r.u8()),
				Round: r.int_(),
				V:     r.int_(),
				Peer:  r.int_(),
				Tag:   r.u8(),
				Bits:  r.int_(),
			}
		}
		evs[v] = ve
	}
	return evs
}

func putOutputs(w *writer, outs [][]int) {
	w.int_(len(outs))
	for _, o := range outs {
		w.ints(o)
	}
}

func getOutputs(r *reader) [][]int {
	n := r.count(8)
	if r.err != nil || n == 0 {
		return nil
	}
	outs := make([][]int, n)
	for i := range outs {
		outs[i] = r.ints()
	}
	return outs
}

// EncodeFrame serializes one frame payload (without the length prefix).
func EncodeFrame(f *dist.Frame) ([]byte, error) {
	if f == nil {
		return nil, fmt.Errorf("wire: nil frame")
	}
	w := &writer{b: make([]byte, 0, 64)}
	w.u8(frameVersion)
	w.u8(byte(f.Type))
	switch f.Type {
	case dist.FrameSetup:
		s := f.Setup
		if s == nil {
			return nil, fmt.Errorf("wire: setup frame without body")
		}
		w.int_(s.Shard)
		w.int_(s.Workers)
		w.ints(s.Cuts)
		w.str(s.Algo)
		w.i64(s.Seed)
		w.u64(s.Fingerprint)
		w.int_(s.Bandwidth)
		putBools(w, s.Cut)
		w.bool_(s.Trace)
		w.bool_(s.Collect)
	case dist.FrameRound:
		rf := f.Round
		if rf == nil {
			return nil, fmt.Errorf("wire: round frame without body")
		}
		w.int_(rf.Stepped)
		w.int_(rf.Yielded)
		w.int_(rf.ParkedNow)
		w.int_(rf.DoneTotal)
		w.int_(rf.Senders)
		putMeter(w, &rf.Meter)
		putBatches(w, rf.Out)
		w.str(rf.Err)
	case dist.FrameBatches:
		b := f.Batches
		if b == nil {
			return nil, fmt.Errorf("wire: batches frame without body")
		}
		putBatches(w, b.In)
	case dist.FrameWake:
		wf := f.Wake
		if wf == nil {
			return nil, fmt.Errorf("wire: wake frame without body")
		}
		w.bool_(wf.WouldWake)
		w.int_(wf.Woken)
		w.int_(wf.Delivered)
		w.i64(wf.DeliveredBits)
	case dist.FrameDecision:
		d := f.Decision
		if d == nil {
			return nil, fmt.Errorf("wire: decision frame without body")
		}
		w.u8(byte(d.Kind))
		w.int_(d.Round)
	case dist.FrameResult:
		res := f.Result
		if res == nil {
			return nil, fmt.Errorf("wire: result frame without body")
		}
		putOutputs(w, res.Outputs)
		putEvents(w, res.Events)
		w.str(res.Err)
	default:
		return nil, fmt.Errorf("wire: unknown frame type %d", f.Type)
	}
	if len(w.b) > MaxFrameBytes {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", len(w.b))
	}
	return w.b, nil
}

// DecodeFrame parses one frame payload. Every byte must be consumed;
// truncated, trailing, or malformed input is an error, never a panic.
func DecodeFrame(p []byte) (*dist.Frame, error) {
	r := &reader{p: p}
	if v := r.u8(); r.err == nil && v != frameVersion {
		return nil, fmt.Errorf("wire: unsupported frame version %d", v)
	}
	f := &dist.Frame{Type: dist.FrameType(r.u8())}
	switch f.Type {
	case dist.FrameSetup:
		s := &dist.SetupFrame{}
		s.Shard = r.int_()
		s.Workers = r.int_()
		s.Cuts = r.ints()
		s.Algo = r.str()
		s.Seed = r.i64()
		s.Fingerprint = r.u64()
		s.Bandwidth = r.int_()
		s.Cut = getBools(r)
		s.Trace = r.bool_()
		s.Collect = r.bool_()
		f.Setup = s
	case dist.FrameRound:
		rf := &dist.RoundFrame{}
		rf.Stepped = r.int_()
		rf.Yielded = r.int_()
		rf.ParkedNow = r.int_()
		rf.DoneTotal = r.int_()
		rf.Senders = r.int_()
		rf.Meter = getMeter(r)
		rf.Out = getBatches(r)
		rf.Err = r.str()
		f.Round = rf
	case dist.FrameBatches:
		f.Batches = &dist.BatchesFrame{In: getBatches(r)}
	case dist.FrameWake:
		f.Wake = &dist.WakeFrame{
			WouldWake:     r.bool_(),
			Woken:         r.int_(),
			Delivered:     r.int_(),
			DeliveredBits: r.i64(),
		}
	case dist.FrameDecision:
		d := &dist.DecisionFrame{Kind: dist.DecisionKind(r.u8()), Round: r.int_()}
		if r.err == nil && (d.Kind < dist.DecideCommit || d.Kind > dist.DecideAbort) {
			return nil, fmt.Errorf("wire: unknown decision kind %d", d.Kind)
		}
		f.Decision = d
	case dist.FrameResult:
		res := &dist.ResultFrame{}
		res.Outputs = getOutputs(r)
		res.Events = getEvents(r)
		res.Err = r.str()
		f.Result = res
	default:
		if r.err == nil {
			return nil, fmt.Errorf("wire: unknown frame type %d", f.Type)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(p) {
		return nil, fmt.Errorf("wire: %d trailing bytes after frame", len(p)-r.off)
	}
	return f, nil
}
