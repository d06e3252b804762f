package wire

import (
	"net"
	"sync"
	"testing"
	"time"

	"distspanner/internal/dist"
	"distspanner/internal/dist/transportconf"
	"distspanner/internal/scenario"
)

// tcpFactory builds a localhost TCP cluster whose workers serve the
// scenario registry's resolver — the transportconf Factory for this
// package's transport.
func tcpFactory(tb testing.TB, workers int) (dist.CoordTransport, func() []error) {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wt, err := DialRetry(ln.Addr().String(), 5*time.Second)
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = dist.ServeShard(wt, scenario.Resolver())
		}(i)
	}
	ct, err := AcceptWorkers(ln, workers, 10*time.Second)
	ln.Close()
	if err != nil {
		tb.Fatal(err)
	}
	wait := func() []error {
		ct.Close()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			tb.Fatal("workers did not exit within 30s of coordinator close")
		}
		return errs
	}
	return ct, wait
}

// TestTCPTransportConformance runs the full transport conformance
// suite — digest/stats/output equivalence across the scenario × cell
// matrix, quiescence, cancellation, abort parity — over real sockets.
func TestTCPTransportConformance(t *testing.T) {
	transportconf.Run(t, tcpFactory)
}
