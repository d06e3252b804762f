package transportconf

import (
	"reflect"
	"testing"

	"distspanner/internal/dist"
	"distspanner/internal/scenario"
)

// TestChanTransportConformance runs the suite against the in-process
// channel transport — the reference implementation must pass its own
// conformance bar.
func TestChanTransportConformance(t *testing.T) {
	Run(t, ChanFactory)
}

// corruptCoord is the non-conformant-transport fixture: it tampers
// with the first eligible record batch flowing from a worker to the
// coordinator, either duplicating a record or swapping two records
// bound for the same destination vertex (sender order is part of the
// delivery contract).
type corruptCoord struct {
	dist.CoordTransport
	mode  string // "duplicate" or "reorder"
	fired bool
}

func (c *corruptCoord) Recv(w int) (*dist.Frame, error) {
	f, err := c.CoordTransport.Recv(w)
	if err != nil || c.fired || f.Round == nil {
		return f, err
	}
	for bi := range f.Round.Out {
		b := &f.Round.Out[bi]
		switch c.mode {
		case "duplicate":
			if len(b.Recs) > 0 {
				b.Recs = append(b.Recs, b.Recs[0])
				c.fired = true
				return f, nil
			}
		case "reorder":
			for i := 0; i < len(b.Recs); i++ {
				for j := i + 1; j < len(b.Recs); j++ {
					if b.Recs[i].To == b.Recs[j].To && b.Recs[i].From != b.Recs[j].From {
						b.Recs[i], b.Recs[j] = b.Recs[j], b.Recs[i]
						c.fired = true
						return f, nil
					}
				}
			}
		}
	}
	return f, nil
}

// diverges reports whether the two outcomes differ on any surface the
// conformance suite checks.
func diverges(ref, got outcome) bool {
	if errString(ref.err) != errString(got.err) {
		return true
	}
	if ref.err != nil {
		return false
	}
	return !ref.digest.Equal(got.digest) ||
		ref.stats != got.stats ||
		!equalOutputs(ref.outputs, got.outputs) ||
		!reflect.DeepEqual(ref.phases, got.phases)
}

// TestSuiteDetectsBrokenTransport validates the suite's teeth: a
// transport that duplicates or reorders records must show up as a
// divergence from the in-process reference.
func TestSuiteDetectsBrokenTransport(t *testing.T) {
	prog, cfg := distributed(t, "twospanner", clique12, 1)
	ref := runLocal(prog, cfg)
	if ref.err != nil {
		t.Fatalf("reference run failed: %v", ref.err)
	}
	for _, mode := range []string{"duplicate", "reorder"} {
		t.Run(mode, func(t *testing.T) {
			ct, cleanup := ChanFactory(t, 2)
			defer cleanup()
			cc := &corruptCoord{CoordTransport: ct, mode: mode}
			got := runDistributed(cc, prog, cfg)
			if !cc.fired {
				t.Fatal("corruption fixture never found an eligible batch")
			}
			if !diverges(ref, got) {
				t.Fatal("conformance checks did not detect the corrupted transport")
			}
		})
	}
}

// TestRegistryNames pins the scenarios that build a distributed program:
// the names the suite (and cmd/coord's -algo) iterate over.
func TestRegistryNames(t *testing.T) {
	want := []string{"twospanner", "twospanner-congest", "twospanner-directed", "twospanner-weighted", "twospanner-cs", "mds"}
	if got := scenario.ProgramNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("scenario.ProgramNames() = %v, want %v", got, want)
	}
}
