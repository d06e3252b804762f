// Package service is the spanner-as-a-service layer: a long-running
// HTTP/JSON front-end over the scenario registry. A client submits a
// job — a registered scenario plus parameter overrides and a seed, with
// the graph either named (any generator family) or inline (an explicit
// edge list) — and gets back the run's verified metrics.
//
// Everything the server does leans on one fact, proven by the repo's
// determinism contract and its conformance suites: a result is a pure
// function of (spec, seed). That makes every result infinitely
// cacheable and every identical in-flight request shareable, so the
// server is three subsystems around the scenario executor:
//
//   - Cache: a content-addressed LRU keyed on (canonical-graph-hash,
//     algorithm, params-fingerprint, seed). A hit returns the
//     byte-identical body of the original computation; only successful
//     results enter.
//   - FlightGroup: single-flight request coalescing — N concurrent
//     identical jobs run once, everyone gets the result, and the run is
//     canceled only when the last interested client disconnects.
//   - Pool: a bounded worker pool executing runs through sweep.Single,
//     inheriting the sweep runner's timeout, panic-recovery, and
//     active-cancellation discipline.
//
// Endpoints: POST /v1/run (synchronous job), POST /v1/stream (same job,
// server-sent events with the live per-round activity curve before the
// result), GET /v1/scenarios (the catalog), GET /v1/stats (JSON
// counters), GET /metrics (Prometheus text format), GET /healthz.
// cmd/spannerd serves it; cmd/spannerd/loadtest drives mixed workloads
// against it.
package service

import (
	"net/http"
	"runtime"
	"sync/atomic"
	"time"
)

// Options configures a Server.
type Options struct {
	// Workers bounds concurrent scenario runs; 0 uses GOMAXPROCS.
	Workers int
	// CacheEntries bounds the result cache; 0 means 4096.
	CacheEntries int
	// Timeout bounds one run's wall clock (0: none). Timed-out runs are
	// actively canceled and report an error; they are never cached.
	Timeout time.Duration
	// MaxVertices / MaxEdges bound inline graph submissions; 0 means
	// 1<<20 vertices and 1<<22 edges.
	MaxVertices int
	MaxEdges    int
}

// Server is the service: an http.Handler plus the cache, coalescer, and
// pool behind it.
type Server struct {
	opts    Options
	cache   *Cache
	flights *FlightGroup
	pool    *Pool
	mux     *http.ServeMux
	start   time.Time

	requests  uint64 // requests accepted on any endpoint
	rejected  uint64 // malformed/unknown requests: 4xx before running, or a run stopped at a malformed parameter value
	runErrors uint64 // valid jobs whose run failed (verification, timeout, cancel)
}

// New returns a ready-to-serve Server.
func New(opts Options) *Server {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.CacheEntries <= 0 {
		opts.CacheEntries = 4096
	}
	if opts.MaxVertices <= 0 {
		opts.MaxVertices = 1 << 20
	}
	if opts.MaxEdges <= 0 {
		opts.MaxEdges = 1 << 22
	}
	s := &Server{
		opts:    opts,
		cache:   NewCache(opts.CacheEntries),
		flights: &FlightGroup{},
		pool:    NewPool(opts.Workers, opts.Timeout),
		mux:     http.NewServeMux(),
		start:   time.Now(),
	}
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/stream", s.handleStream)
	s.mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// ServeHTTP makes Server an http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	atomic.AddUint64(&s.requests, 1)
	s.mux.ServeHTTP(w, r)
}

// Drain blocks until every in-flight run has returned; the graceful-
// shutdown hook (stop admitting requests first).
func (s *Server) Drain() { s.pool.Drain() }

// Stats is the /v1/stats document.
type Stats struct {
	UptimeMs  int64       `json:"uptime_ms"`
	Requests  uint64      `json:"requests"`
	Rejected  uint64      `json:"rejected"`
	RunErrors uint64      `json:"run_errors"`
	Cache     CacheStats  `json:"cache"`
	Flights   FlightStats `json:"flights"`
	Pool      PoolStats   `json:"pool"`
}

// Stats returns the current counters.
func (s *Server) Stats() Stats {
	return Stats{
		UptimeMs:  time.Since(s.start).Milliseconds(),
		Requests:  atomic.LoadUint64(&s.requests),
		Rejected:  atomic.LoadUint64(&s.rejected),
		RunErrors: atomic.LoadUint64(&s.runErrors),
		Cache:     s.cache.Stats(),
		Flights:   s.flights.Stats(),
		Pool:      s.pool.Stats(),
	}
}
