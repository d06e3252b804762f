package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"distspanner/internal/dist"
	"distspanner/internal/graph"
)

// realRecorder records an actual engine run — a small gossip with a
// parked listener, so the file exercises every line type and every
// event kind.
func realRecorder(t *testing.T) *Recorder {
	t.Helper()
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	rec := NewRecorder(g.N())
	_, err := dist.RunMachines(dist.Config{Graph: g, Seed: 7, Tracer: rec}, func(*dist.Ctx) dist.Machine {
		return &gossipMachine{}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.EventCount() == 0 {
		t.Fatal("run recorded no events")
	}
	return rec
}

// gossipMachine broadcasts for three rounds, except vertex 3, which
// listens parked until quiescence releases it.
type gossipMachine struct{ r int }

func (m *gossipMachine) Step(ctx *dist.Ctx, in dist.StepIn) dist.StepStatus {
	if ctx.ID() == 3 {
		if in.Quiesced {
			return dist.StepDone
		}
		return dist.StepPark
	}
	if m.r == 3 {
		return dist.StepDone
	}
	p := intPayload(m.r)
	ctx.BroadcastRec(p.rec(), p.Bits())
	m.r++
	return dist.StepYield
}

// intPayload is the gossip's message: one integer word, metered at 8
// bits.
type intPayload int

func (intPayload) Bits() int       { return 8 }
func (p intPayload) rec() dist.Rec { return dist.Rec{A: int64(p)} }

func TestJSONLRoundTrip(t *testing.T) {
	rec := realRecorder(t)
	meta := Meta{Seed: 7, Label: "gossip path4", Mode: "auto"}

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, meta, rec); err != nil {
		t.Fatal(err)
	}
	log, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if log.Meta.N != 4 || log.Meta.Seed != 7 || log.Meta.Label != "gossip path4" || log.Meta.Mode != "auto" {
		t.Errorf("meta round-trip: %+v", log.Meta)
	}
	if !reflect.DeepEqual(log.Recorder.events, rec.events) {
		t.Error("event buffers did not round-trip")
	}
	if !reflect.DeepEqual(log.Recorder.phases, rec.phases) {
		t.Error("phases did not round-trip")
	}
	if !reflect.DeepEqual(log.Recorder.timings, rec.timings) {
		t.Error("timings did not round-trip")
	}
	if log.Digest == nil || !log.Digest.Equal(rec.Digest()) {
		t.Error("digest line did not round-trip")
	}

	// The file must also pass full validation.
	if _, err := Check(bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("Check rejected a freshly written file: %v", err)
	}
}

// validFile returns a well-formed serialized trace to corrupt.
func validFile(t *testing.T) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, Meta{Seed: 7}, realRecorder(t)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) < 5 {
		t.Fatalf("suspiciously short file: %d lines", len(lines))
	}
	return lines
}

func TestReadJSONLRejectsMalformed(t *testing.T) {
	lines := validFile(t)
	join := func(ls []string) string { return strings.Join(ls, "\n") + "\n" }

	cases := map[string]string{
		"empty input":      "",
		"not json":         "garbage\n",
		"first not meta":   join(append([]string{lines[1]}, lines...)),
		"bad version":      strings.Replace(join(lines), `"version":1`, `"version":99`, 1),
		"duplicate meta":   join(append([]string{lines[0]}, lines...)),
		"unknown type":     join(append([]string{lines[0], `{"type":"mystery","round":1}`}, lines[1:]...)),
		"unknown kind":     join(append([]string{lines[0], `{"type":"event","kind":"vanish","round":1,"v":0,"peer":1}`}, lines[1:]...)),
		"missing v":        join(append([]string{lines[0], `{"type":"event","kind":"send","round":1,"peer":1}`}, lines[1:]...)),
		"v out of range":   join(append([]string{lines[0], `{"type":"event","kind":"send","round":1,"v":99,"peer":1}`}, lines[1:]...)),
		"negative round":   join(append([]string{lines[0], `{"type":"event","kind":"send","round":-1,"v":0,"peer":1}`}, lines[1:]...)),
		"phase round 0":    join(append([]string{lines[0], `{"type":"phase","round":0}`}, lines[1:]...)),
		"timing round 0":   join(append([]string{lines[0], `{"type":"timing","round":0}`}, lines[1:]...)),
		"short digest":     join(append(lines[:len(lines)-1], `{"type":"digest","round":0,"run":"abc","vertex":["a","b","c","d"]}`)),
		"duplicate digest": join(append(lines, lines[len(lines)-1])),
	}
	for name, input := range cases {
		if _, err := ReadJSONL(strings.NewReader(input)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckRejectsTamperedDigest(t *testing.T) {
	lines := validFile(t)
	last := len(lines) - 1

	// Replace the digest's run hash with a same-length fake.
	var dl map[string]any
	if err := json.Unmarshal([]byte(lines[last]), &dl); err != nil {
		t.Fatal(err)
	}
	dl["run"] = "0123456789abcdef"
	fake, err := json.Marshal(dl)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Join(append(append([]string{}, lines[:last]...), string(fake)), "\n") + "\n"
	if _, err := Check(strings.NewReader(tampered)); err == nil {
		t.Error("Check accepted a tampered digest")
	}
	// ReadJSONL (no digest verification) must still accept it.
	if _, err := ReadJSONL(strings.NewReader(tampered)); err != nil {
		t.Errorf("ReadJSONL rejected structurally valid file: %v", err)
	}
}

func TestCheckRejectsTamperedEvent(t *testing.T) {
	lines := validFile(t)
	// Flip one event's bits field; the trailing digest no longer matches.
	for i, l := range lines {
		if strings.Contains(l, `"type":"event"`) && strings.Contains(l, `"bits":8`) {
			lines[i] = strings.Replace(l, `"bits":8`, `"bits":9`, 1)
			break
		}
	}
	input := strings.Join(lines, "\n") + "\n"
	if _, err := Check(strings.NewReader(input)); err == nil {
		t.Error("Check accepted a file whose events disagree with its digest")
	}
}

func TestCheckRejectsNonMonotonePhases(t *testing.T) {
	input := `{"type":"meta","version":1,"n":1,"round":0}
{"type":"phase","round":2,"active":1}
{"type":"phase","round":1,"active":1}
`
	if _, err := Check(strings.NewReader(input)); err == nil {
		t.Error("Check accepted non-monotone phase rounds")
	}
	if _, err := ReadJSONL(strings.NewReader(input)); err != nil {
		t.Errorf("ReadJSONL rejected structurally valid file: %v", err)
	}
}

func TestReadJSONLNoDigestLine(t *testing.T) {
	lines := validFile(t)
	input := strings.Join(lines[:len(lines)-1], "\n") + "\n"
	log, err := Check(strings.NewReader(input))
	if err != nil {
		t.Fatalf("digest-less file rejected: %v", err)
	}
	if log.Digest != nil {
		t.Error("Digest non-nil for a file without a digest line")
	}
}
