package scenario

import (
	"strconv"
	"sync"

	"distspanner/internal/dist"
	"distspanner/internal/graph"
)

// Run observers give the caller of a cell a live view of the run
// without widening the Run signature every scenario implements. The
// caller registers an Observer, receives an opaque token, and overlays
// the execution-only "obs" parameter on the cell it runs; scenarios
// look the token up and install the observer's hooks. The parameter is
// execution-only (excluded from Params.InstanceKey, like "transport"):
// observing a run never changes which instance it is or what it
// computes. The service layer streams a job's live progress through it,
// and cmd/spanner records transcripts and DOT files through it.
//
// Release the token when the run completes; an unreleased token is a
// leak, and a run naming an unknown token runs unobserved.
var (
	obsMu     sync.Mutex
	obsSeq    uint64
	observers = map[string]*Observer{}
)

// Observer is one registered run observer. Every field is optional.
type Observer struct {
	// OnRound receives the run's per-round activity under the engine's
	// dist.Config.OnRound contract: on an engine goroutine, in round
	// order, and it must not block or call back into the engine.
	OnRound func(dist.RoundActivity)
	// Tracer is called once the instance is built, with its vertex
	// count, and returns the tracer the run installs as
	// dist.Config.Tracer. A run has one tracer, so a cell that sets
	// "timing" fails when its observer has a Tracer.
	Tracer func(n int) dist.Tracer
	// Spanner receives the graph and the spanner a run has verified.
	Spanner func(*graph.Graph, *graph.EdgeSet)
}

// RegisterObserver installs o as a live run observer and returns the
// token to carry in the "obs" parameter plus the release function that
// unregisters it.
func RegisterObserver(o *Observer) (token string, release func()) {
	obsMu.Lock()
	obsSeq++
	token = strconv.FormatUint(obsSeq, 10)
	observers[token] = o
	obsMu.Unlock()
	return token, func() {
		obsMu.Lock()
		delete(observers, token)
		obsMu.Unlock()
	}
}

// observer resolves the execution-only "obs" parameter to the
// registered observer, nil when the parameter is absent or the token
// unknown (a released observer must not dangle into a later run).
func observer(p Params) *Observer {
	token := p.Str("obs", "")
	if token == "" {
		return nil
	}
	obsMu.Lock()
	o := observers[token]
	obsMu.Unlock()
	return o
}
