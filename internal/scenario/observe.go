package scenario

import (
	"strconv"
	"sync"

	"distspanner/internal/dist"
)

// Run observers give a driver a live view of one run's per-round
// activity curve (dist.Config.OnRound) without widening the Run
// signature every scenario implements. The driver registers a callback,
// receives an opaque token, and overlays the execution-only "obs"
// parameter on the cell it runs; simulated scenarios look the token up
// and install the callback as the engine's RoundHook. The parameter is
// execution-only (excluded from Params.InstanceKey, like "transport"):
// observing a run never changes which instance it is or what it
// computes — it is how the service layer streams live progress for a
// job without perturbing its cache identity.
//
// The callback runs under the engine's OnRound contract: on an engine
// goroutine, in round order, and it must not block or call back into
// the engine. Release the token when the run completes; an unreleased
// token is a leak, and a run naming an unknown token runs unobserved.
var (
	obsMu  sync.Mutex
	obsSeq uint64
	obsFns = map[string]func(dist.RoundActivity){}
)

// RegisterObserver installs fn as a live run observer and returns the
// token to carry in the "obs" parameter plus the release function that
// unregisters it.
func RegisterObserver(fn func(dist.RoundActivity)) (token string, release func()) {
	obsMu.Lock()
	obsSeq++
	token = strconv.FormatUint(obsSeq, 10)
	obsFns[token] = fn
	obsMu.Unlock()
	return token, func() {
		obsMu.Lock()
		delete(obsFns, token)
		obsMu.Unlock()
	}
}

// roundObserver resolves the execution-only "obs" parameter to the
// registered callback, nil when the parameter is absent or the token
// unknown (a released observer must not dangle into a later run).
func roundObserver(p Params) func(dist.RoundActivity) {
	token := p.Str("obs", "")
	if token == "" {
		return nil
	}
	obsMu.Lock()
	fn := obsFns[token]
	obsMu.Unlock()
	return fn
}
