package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"distspanner/internal/dist"
)

// FormatVersion is the JSONL schema version written in the meta line;
// readers reject other versions.
const FormatVersion = 1

// Meta is the run identification written as the first JSONL line.
type Meta struct {
	// N is the vertex count; every event's v must lie in [0, N).
	N int `json:"n"`
	// Seed is the run seed — half of the (Graph, Seed) determinism key.
	Seed int64 `json:"seed"`
	// Label names the run for humans ("twospanner n=64 p=0.2", ...).
	Label string `json:"label,omitempty"`
	// Mode names the execution path ("local" for the in-process engine,
	// "tcp" for the distributed runner), recorded so a digest mismatch
	// can be attributed; equal digests are expected across paths.
	Mode string `json:"mode,omitempty"`
}

// The JSONL schema: one JSON object per line, discriminated by "type".
//
//	{"type":"meta","version":1,"n":64,"seed":1,"label":"...","mode":"step"}
//	{"type":"event","kind":"send","round":3,"v":7,"peer":9,"tag":2,"bits":24}
//	{"type":"event","kind":"deliver","round":3,"v":9,"peer":7,"boxed":true,"bits":24}
//	{"type":"phase","round":3,"active":12,"parked":50,"senders":4,"delivered":9,"delivered_bits":216}
//	{"type":"timing","round":3,"wall_ns":41250,"step_ns":30100,"route_ns":9800,"sync_ns":1350}
//	{"type":"digest","run":"8f3c...","vertex":["ab12...","..."]}
//
// Events are written vertex-major (all of vertex 0's buffer, then
// vertex 1's, ...), preserving exactly the per-vertex order the digest
// is defined over; "timing" lines are the wall-clock channel and are
// excluded from the digest. The final "digest" line makes the file
// self-validating: Check recomputes it from the preceding lines.
type jsonLine struct {
	Type string `json:"type"`

	// meta
	Version int    `json:"version,omitempty"`
	N       int    `json:"n,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	Label   string `json:"label,omitempty"`
	Mode    string `json:"mode,omitempty"`

	// event (V/Peer are pointers so that 0 and -1 survive omitempty
	// round-trips unambiguously: absent means invalid, not zero)
	Kind  string `json:"kind,omitempty"`
	Round int    `json:"round"`
	V     *int   `json:"v,omitempty"`
	Peer  *int   `json:"peer,omitempty"`
	Tag   uint8  `json:"tag,omitempty"`
	Boxed bool   `json:"boxed,omitempty"`
	Bits  int    `json:"bits,omitempty"`

	// phase
	Active        int   `json:"active,omitempty"`
	Parked        int   `json:"parked,omitempty"`
	Senders       int   `json:"senders,omitempty"`
	Delivered     int   `json:"delivered,omitempty"`
	DeliveredBits int64 `json:"delivered_bits,omitempty"`

	// timing
	WallNs  int64 `json:"wall_ns,omitempty"`
	StepNs  int64 `json:"step_ns,omitempty"`
	RouteNs int64 `json:"route_ns,omitempty"`
	SyncNs  int64 `json:"sync_ns,omitempty"`

	// digest
	Run    string   `json:"run,omitempty"`
	Vertex []string `json:"vertex,omitempty"`
}

// Log is one deserialized trace file: the meta line, the rebuilt
// recorder (per-vertex buffers in file order), and the digest line as
// written (nil when the file carries none).
type Log struct {
	Meta     Meta
	Recorder *Recorder
	// Digest is the file's trailing digest line, as written. Compare
	// with Recorder.Digest() to validate (Check does).
	Digest *Digest
}

// WriteJSONL serializes the recorded run: meta line, events
// (vertex-major), phase and timing lines (round order), and the
// trailing digest line.
func WriteJSONL(w io.Writer, meta Meta, r *Recorder) error {
	bw := bufio.NewWriter(w)
	meta.N = r.N()
	if err := writeLine(bw, jsonLine{Type: "meta", Version: FormatVersion, N: meta.N, Seed: meta.Seed, Label: meta.Label, Mode: meta.Mode}); err != nil {
		return err
	}
	for v := range r.events {
		for i := range r.events[v] {
			ev := &r.events[v][i]
			vv, peer := ev.V, ev.Peer
			if err := writeLine(bw, jsonLine{
				Type: "event", Kind: ev.Kind.String(), Round: ev.Round,
				V: &vv, Peer: &peer, Tag: ev.Tag, Boxed: ev.Boxed, Bits: ev.Bits,
			}); err != nil {
				return err
			}
		}
	}
	for _, act := range r.phases {
		if err := writeLine(bw, jsonLine{
			Type: "phase", Round: act.Round, Active: act.Active, Parked: act.Parked,
			Senders: act.Senders, Delivered: act.Delivered, DeliveredBits: act.DeliveredBits,
		}); err != nil {
			return err
		}
	}
	for _, t := range r.timings {
		if err := writeLine(bw, jsonLine{
			Type: "timing", Round: t.Round,
			WallNs: t.Wall.Nanoseconds(), StepNs: t.Step.Nanoseconds(),
			RouteNs: t.Route.Nanoseconds(), SyncNs: t.Sync.Nanoseconds(),
		}); err != nil {
			return err
		}
	}
	d := r.Digest()
	if err := writeLine(bw, jsonLine{Type: "digest", Run: d.Run, Vertex: d.Vertex}); err != nil {
		return err
	}
	return bw.Flush()
}

func writeLine(w *bufio.Writer, l jsonLine) error {
	b, err := json.Marshal(l)
	if err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return err
	}
	return w.WriteByte('\n')
}

// ReadJSONL parses a trace file, validating the schema as it goes: the
// first line must be a version-1 meta line, every later line must be a
// known type with well-formed fields, and event vertices must lie in
// [0, N). It does not compare the digest line against a recomputation —
// that is Check's job.
func ReadJSONL(rd io.Reader) (*Log, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	log := &Log{}
	lineno := 0
	for sc.Scan() {
		lineno++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var l jsonLine
		if err := json.Unmarshal(raw, &l); err != nil {
			return nil, fmt.Errorf("trace: line %d: %v", lineno, err)
		}
		if lineno == 1 {
			if l.Type != "meta" {
				return nil, fmt.Errorf("trace: line 1: first line must be type meta, got %q", l.Type)
			}
			if l.Version != FormatVersion {
				return nil, fmt.Errorf("trace: line 1: format version %d, want %d", l.Version, FormatVersion)
			}
			if l.N < 0 {
				return nil, fmt.Errorf("trace: line 1: negative vertex count %d", l.N)
			}
			log.Meta = Meta{N: l.N, Seed: l.Seed, Label: l.Label, Mode: l.Mode}
			log.Recorder = NewRecorder(l.N)
			continue
		}
		switch l.Type {
		case "meta":
			return nil, fmt.Errorf("trace: line %d: duplicate meta line", lineno)
		case "event":
			kind, ok := dist.ParseTraceKind(l.Kind)
			if !ok {
				return nil, fmt.Errorf("trace: line %d: unknown event kind %q", lineno, l.Kind)
			}
			if l.V == nil || l.Peer == nil {
				return nil, fmt.Errorf("trace: line %d: event missing v/peer", lineno)
			}
			if l.Round < 0 {
				return nil, fmt.Errorf("trace: line %d: negative round %d", lineno, l.Round)
			}
			ev := dist.TraceEvent{Kind: kind, Round: l.Round, V: *l.V, Peer: *l.Peer, Tag: l.Tag, Boxed: l.Boxed, Bits: l.Bits}
			if err := log.Recorder.addEvent(ev); err != nil {
				return nil, fmt.Errorf("trace: line %d: %v", lineno, err)
			}
		case "phase":
			if l.Round < 1 {
				return nil, fmt.Errorf("trace: line %d: phase round %d < 1", lineno, l.Round)
			}
			log.Recorder.Phase(dist.RoundActivity{
				Round: l.Round, Active: l.Active, Parked: l.Parked,
				Senders: l.Senders, Delivered: l.Delivered, DeliveredBits: l.DeliveredBits,
			})
		case "timing":
			if l.Round < 1 {
				return nil, fmt.Errorf("trace: line %d: timing round %d < 1", lineno, l.Round)
			}
			log.Recorder.RoundTime(dist.RoundTiming{
				Round: l.Round, Wall: duration(l.WallNs), Step: duration(l.StepNs),
				Route: duration(l.RouteNs), Sync: duration(l.SyncNs),
			})
		case "digest":
			if log.Digest != nil {
				return nil, fmt.Errorf("trace: line %d: duplicate digest line", lineno)
			}
			if len(l.Run) != 16 || len(l.Vertex) != log.Recorder.N() {
				return nil, fmt.Errorf("trace: line %d: malformed digest line", lineno)
			}
			log.Digest = &Digest{Run: l.Run, Vertex: l.Vertex}
		default:
			return nil, fmt.Errorf("trace: line %d: unknown line type %q", lineno, l.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if lineno == 0 {
		return nil, fmt.Errorf("trace: empty input")
	}
	return log, nil
}

// Check parses and fully validates a trace file: everything ReadJSONL
// checks, plus phase rounds strictly increasing and — when a digest
// line is present — an exact match between the written digest and one
// recomputed from the file's own event and phase lines. It returns the
// validated log.
func Check(rd io.Reader) (*Log, error) {
	log, err := ReadJSONL(rd)
	if err != nil {
		return nil, err
	}
	last := 0
	for _, act := range log.Recorder.Phases() {
		if act.Round <= last {
			return nil, fmt.Errorf("trace: phase rounds not strictly increasing at round %d", act.Round)
		}
		last = act.Round
	}
	if log.Digest != nil {
		got := log.Recorder.Digest()
		if !got.Equal(*log.Digest) {
			return nil, fmt.Errorf("trace: digest mismatch: file says %s, recomputed %s", log.Digest.Run, got.Run)
		}
	}
	return log, nil
}
