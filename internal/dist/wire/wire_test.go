package wire

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"distspanner/internal/dist"
)

// sampleFrames covers every frame type with representative payloads:
// graph fingerprints with the top bit set and clear, cut sides, negative
// sentinel fields, record batches with shared tails, buffered trace
// events.
func sampleFrames() []*dist.Frame {
	return []*dist.Frame{
		{Type: dist.FrameSetup, Setup: &dist.SetupFrame{
			Shard: 1, Workers: 3, Cuts: []int{0, 2, 3, 4},
			Algo: "twospanner", Seed: -42, Fingerprint: 0xcbf29ce484222325, Bandwidth: 96,
			Cut: []bool{true, false, false, true}, Trace: true, Collect: true,
		}},
		{Type: dist.FrameSetup, Setup: &dist.SetupFrame{
			Shard: 0, Workers: 1, Cuts: []int{0, 3}, Seed: 7, Fingerprint: 0x0123456789abcdef,
		}},
		{Type: dist.FrameRound, Round: &dist.RoundFrame{
			Stepped: 5, Yielded: 3, ParkedNow: 1, DoneTotal: 1, Senders: 2,
			Meter: dist.MeterReport{
				Msgs: 9, Bits: 512, CutBits: 64, MaxMsg: 4, MaxEdge: 128,
				ViolSender: 3, ViolTo: 0, ViolBits: 640,
			},
			Out: []dist.RecBatch{
				{},
				{Recs: []dist.BatchRec{
					{From: 0, To: 2, Tag: 1, Flag: 3, Bits: 64, A: -5, B: 9,
						F0: 1.25, F1: -0.5, F2: 3e9, Off: 0, N: 2},
					{From: 1, To: 3, Tag: 2, Bits: 32, Off: 2, N: 0},
				}, Ints: []int{10, -20}},
			},
		}},
		{Type: dist.FrameRound, Round: &dist.RoundFrame{
			Meter: dist.MeterReport{ViolSender: -1, ViolTo: -1},
			Err:   "vertex 6 panicked: boom",
		}},
		{Type: dist.FrameBatches, Batches: &dist.BatchesFrame{
			In: []dist.RecBatch{{Recs: []dist.BatchRec{{From: 2, To: 0, Bits: 8}}}, {}},
		}},
		{Type: dist.FrameBatches, Batches: &dist.BatchesFrame{}},
		{Type: dist.FrameWake, Wake: &dist.WakeFrame{
			WouldWake: true, Woken: 2, Delivered: 7, DeliveredBits: 448,
		}},
		{Type: dist.FrameDecision, Decision: &dist.DecisionFrame{Kind: dist.DecideCommit, Round: 12}},
		{Type: dist.FrameDecision, Decision: &dist.DecisionFrame{Kind: dist.DecideAbort, Round: 3}},
		{Type: dist.FrameResult, Result: &dist.ResultFrame{
			Outputs: [][]int{{1, 2, 3}, nil, {9}},
			Events: [][]dist.TraceEvent{
				{
					{Kind: dist.TraceSend, Round: 1, V: 0, Peer: 1, Tag: 2, Bits: 64},
					{Kind: dist.TracePark, Round: 2, V: 0, Peer: -1},
				},
				nil,
			},
		}},
		{Type: dist.FrameResult, Result: &dist.ResultFrame{Err: "epilogue failed"}},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for i, f := range sampleFrames() {
		p, err := EncodeFrame(f)
		if err != nil {
			t.Fatalf("frame %d: encode: %v", i, err)
		}
		g, err := DecodeFrame(p)
		if err != nil {
			t.Fatalf("frame %d: decode: %v", i, err)
		}
		// Encoding is canonical: re-encoding the decoded frame must
		// reproduce the bytes.
		p2, err := EncodeFrame(g)
		if err != nil {
			t.Fatalf("frame %d: re-encode: %v", i, err)
		}
		if !bytes.Equal(p, p2) {
			t.Fatalf("frame %d: encoding not canonical", i)
		}
		if g.Type != f.Type {
			t.Fatalf("frame %d: type %d → %d", i, f.Type, g.Type)
		}
	}
}

func TestFrameRoundTripFields(t *testing.T) {
	for i, f := range sampleFrames() {
		p, _ := EncodeFrame(f)
		g, err := DecodeFrame(p)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		// Canonicalize nil-vs-empty before comparing: the decoder keeps
		// empty slices nil.
		if f.Type == dist.FrameRound && f.Round.Out != nil {
			for j := range f.Round.Out {
				if len(f.Round.Out[j].Recs) == 0 {
					f.Round.Out[j].Recs = nil
				}
				if len(f.Round.Out[j].Ints) == 0 {
					f.Round.Out[j].Ints = nil
				}
			}
		}
		if f.Type == dist.FrameBatches && f.Batches.In != nil {
			for j := range f.Batches.In {
				if len(f.Batches.In[j].Recs) == 0 {
					f.Batches.In[j].Recs = nil
				}
				if len(f.Batches.In[j].Ints) == 0 {
					f.Batches.In[j].Ints = nil
				}
			}
		}
		if !reflect.DeepEqual(f, g) {
			t.Fatalf("frame %d diverged:\nin:  %+v\nout: %+v", i, f, g)
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	// Every proper prefix of every valid frame must fail cleanly.
	for i, f := range sampleFrames() {
		p, err := EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(p); n++ {
			if _, err := DecodeFrame(p[:n]); err == nil {
				t.Fatalf("frame %d: decode accepted %d-byte prefix of %d", i, n, len(p))
			}
		}
		if _, err := DecodeFrame(append(append([]byte(nil), p...), 0)); err == nil {
			t.Fatalf("frame %d: decode accepted trailing byte", i)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":        {},
		"bad version":  {99, byte(dist.FrameWake), 1, 0, 0, 0, 0, 0, 0, 0, 0},
		"bad type":     {frameVersion, 77},
		"bad bool":     {frameVersion, byte(dist.FrameWake), 7},
		"bad decision": {frameVersion, byte(dist.FrameDecision), 9, 1, 0, 0, 0, 0, 0, 0, 0},
	}
	// Implausible count: a batches frame claiming 2^40 batches.
	w := &writer{}
	w.u8(frameVersion)
	w.u8(byte(dist.FrameBatches))
	w.int_(1 << 40)
	cases["huge count"] = w.b
	// Record tail pointing outside the arena.
	w = &writer{}
	w.u8(frameVersion)
	w.u8(byte(dist.FrameBatches))
	w.int_(1) // one batch
	putBatch(w, &dist.RecBatch{Recs: []dist.BatchRec{{Off: 5, N: 3}}, Ints: []int{1}})
	cases["tail outside arena"] = w.b
	for name, p := range cases {
		if _, err := DecodeFrame(p); err == nil {
			t.Errorf("%s: decode accepted garbage", name)
		}
	}
}

func TestReadFrameRejectsOversizedPrefix(t *testing.T) {
	var hdr [4]byte
	hdr[3] = 0xFF // length ≈ 4G
	if _, err := ReadFrame(bytes.NewReader(hdr[:])); err == nil ||
		!strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized prefix: err = %v", err)
	}
}

func TestWriteReadFrame(t *testing.T) {
	var buf bytes.Buffer
	frames := sampleFrames()
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i := range frames {
		g, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if g.Type != frames[i].Type {
			t.Fatalf("frame %d: type %d → %d", i, frames[i].Type, g.Type)
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("%d stray bytes after stream", buf.Len())
	}
}
