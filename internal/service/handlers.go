package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"

	"distspanner/internal/dist"
	"distspanner/internal/scenario"
)

// Result is the served result document. Its bytes are a deterministic
// function of the job: struct fields marshal in declaration order and
// both maps (Params, Metrics) marshal with sorted keys, so the cached
// body of the original miss is byte-identical to what a fresh
// computation of the same job would serialize — the property the e2e
// suite pins against a direct internal/scenario run.
type Result struct {
	Scenario string `json:"scenario"`
	Key      string `json:"key"`
	// GraphHash is the canonical content hash of the submitted inline
	// graph; absent for generator-spec jobs.
	GraphHash string `json:"graph_hash,omitempty"`
	Seed      int64  `json:"seed"`
	// Params is the merged instance cell (execution-only knobs removed:
	// two requests differing only in engine read back the same document).
	Params  scenario.Params  `json:"params"`
	Metrics scenario.Metrics `json:"metrics"`
}

// encodeResult renders the deterministic result document.
func encodeResult(job *Job, m scenario.Metrics) ([]byte, error) {
	return json.Marshal(Result{
		Scenario:  job.Scenario.Name,
		Key:       job.Key,
		GraphHash: job.GraphHash,
		Seed:      job.Seed,
		Params:    job.Params.InstanceParams(),
		Metrics:   m,
	})
}

// runJob is the shared serve path: cache, then coalesced execution on
// the pool. status is "hit", "miss", or "coalesced"; overlay, when
// non-nil, is merged into the cell only for the execution this caller
// launches (the stream handler's observer token rides here — it is
// execution-only, so it never reaches the key or the document). A run
// that stops at a malformed parameter value counts as rejected, not as
// a run error: scenarios declare no parameter types, so such a job is
// admitted and fails at its first read of the bad key.
func (s *Server) runJob(job *Job, abort <-chan struct{}, overlay scenario.Params) (body []byte, status string, err error) {
	if body, ok := s.cache.Get(job.Key); ok {
		return body, "hit", nil
	}
	body, shared, err := s.flights.Do(job.Key, abort, func(cancel <-chan struct{}) ([]byte, error) {
		params := job.Params
		if overlay != nil {
			params = params.Merge(overlay)
		}
		m, runErr := s.pool.Run(job.Scenario, params, job.Seed, cancel)
		if runErr != nil {
			if isParamError(runErr) {
				atomic.AddUint64(&s.rejected, 1)
			} else {
				atomic.AddUint64(&s.runErrors, 1)
			}
			return nil, runErr
		}
		b, encErr := encodeResult(job, m)
		if encErr != nil {
			return nil, encErr
		}
		s.cache.Put(job.Key, b)
		return b, nil
	})
	status = "miss"
	if shared {
		status = "coalesced"
	}
	return body, status, err
}

// decodeJob parses and normalizes the request body. The body is bounded
// before it is read: 64 bytes per edge of the largest admissible inline
// graph plus 1 MiB for the rest, so an oversized job is refused with a
// 413 instead of being held in memory until MaxEdges can be checked.
func (s *Server) decodeJob(w http.ResponseWriter, r *http.Request) *Job {
	var req JobRequest
	r.Body = http.MaxBytesReader(w, r.Body, 64*int64(s.opts.MaxEdges)+1<<20)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.reject(w, &reqError{status: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("job body exceeds the server limit of %d bytes", tooLarge.Limit)})
			return nil
		}
		s.reject(w, badRequest("invalid job body: %v", err))
		return nil
	}
	job, rerr := s.prepare(&req)
	if rerr != nil {
		s.reject(w, rerr)
		return nil
	}
	return job
}

// reject writes a pre-run 4xx and counts it.
func (s *Server) reject(w http.ResponseWriter, e *reqError) {
	atomic.AddUint64(&s.rejected, 1)
	writeJSON(w, e.status, map[string]string{"error": e.msg})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// isParamError reports whether a run stopped at a malformed parameter
// value: the request was bad, not the run.
func isParamError(err error) bool {
	var perr *scenario.ParamError
	return errors.As(err, &perr)
}

// handleRun serves POST /v1/run: one synchronous job. The cache outcome
// rides in the X-Spannerd-Cache header (hit | miss | coalesced) so the
// body stays byte-identical across hits and misses; X-Spannerd-Key
// echoes the cache key. A malformed parameter value is answered 400, any
// other run failure 422.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	job := s.decodeJob(w, r)
	if job == nil {
		return
	}
	body, status, err := s.runJob(job, r.Context().Done(), nil)
	if err == ErrAbandoned {
		return // client is gone; nothing to write
	}
	w.Header().Set("X-Spannerd-Cache", status)
	w.Header().Set("X-Spannerd-Key", job.Key)
	if err != nil {
		code := http.StatusUnprocessableEntity
		if isParamError(err) {
			code = http.StatusBadRequest
		}
		writeJSON(w, code, map[string]string{
			"error": err.Error(),
			"key":   job.Key,
		})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// roundEvent is the SSE rendering of one dist.RoundActivity snapshot: the
// same fields with wire names, so a conversion renders one, and a field
// added to RoundActivity fails to compile here until the event gains it.
type roundEvent struct {
	Round         int   `json:"round"`
	Active        int   `json:"active"`
	Parked        int   `json:"parked"`
	Senders       int   `json:"senders"`
	Delivered     int   `json:"delivered"`
	DeliveredBits int64 `json:"delivered_bits"`
}

// handleStream serves POST /v1/stream: the same job as /v1/run but as a
// server-sent-event stream — "round" events carrying the engine's live
// per-round activity curve (dist.Config.OnRound via the scenario
// layer's observer seam), then one terminal "result" or "error" event.
// A cache hit emits the result immediately; a coalesced follower joins
// an execution whose observer belongs to the leader, so it receives the
// terminal event only. The activity feed is telemetry: rounds are
// dropped rather than ever back-pressuring the engine, and the terminal
// event is authoritative.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	job := s.decodeJob(w, r)
	if job == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": "streaming unsupported by this connection"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Spannerd-Key", job.Key)
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	if body, ok := s.cache.Get(job.Key); ok {
		writeEvent(w, flusher, "result", body)
		return
	}

	rounds := make(chan dist.RoundActivity, 256)
	token, release := scenario.RegisterObserver(&scenario.Observer{OnRound: func(act dist.RoundActivity) {
		select { // never block the engine; the feed is lossy by contract
		case rounds <- act:
		default:
		}
	}})
	defer release()

	stop := make(chan struct{})
	drained := make(chan struct{})
	writeRound := func(act dist.RoundActivity) {
		ev, _ := json.Marshal(roundEvent(act))
		writeEvent(w, flusher, "round", ev)
	}
	go func() {
		defer close(drained)
		for {
			select {
			case act := <-rounds:
				writeRound(act)
			case <-stop:
				// Flush whatever the engine queued before the run
				// finished, so short runs still show their curve.
				for {
					select {
					case act := <-rounds:
						writeRound(act)
					default:
						return
					}
				}
			}
		}
	}()

	body, _, err := s.runJob(job, r.Context().Done(), scenario.Params{"obs": token})
	close(stop)
	<-drained
	if err == ErrAbandoned {
		return
	}
	if err != nil {
		ev, _ := json.Marshal(map[string]string{"error": err.Error(), "key": job.Key})
		writeEvent(w, flusher, "error", ev)
		return
	}
	writeEvent(w, flusher, "result", body)
}

// writeEvent emits one SSE frame and flushes it.
func writeEvent(w http.ResponseWriter, flusher http.Flusher, name string, data []byte) {
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, data)
	flusher.Flush()
}

// handleScenarios serves the catalog: every registered scenario and
// graph family, the service-side analogue of `sweep -list`.
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	type scenarioDoc struct {
		Name       string          `json:"name"`
		Title      string          `json:"title"`
		Model      string          `json:"model"`
		Defaults   scenario.Params `json:"defaults,omitempty"`
		Replicates int             `json:"replicates,omitempty"`
	}
	type familyDoc struct {
		Name   string `json:"name"`
		Params string `json:"params"`
		Doc    string `json:"doc"`
	}
	var doc struct {
		Scenarios []scenarioDoc `json:"scenarios"`
		Families  []familyDoc   `json:"families"`
	}
	for _, sc := range scenario.All() {
		doc.Scenarios = append(doc.Scenarios, scenarioDoc{
			Name: sc.Name, Title: sc.Title, Model: sc.Model,
			Defaults: sc.Defaults, Replicates: sc.Replicates,
		})
	}
	for _, f := range scenario.Families() {
		doc.Families = append(doc.Families, familyDoc{Name: f.Name, Params: f.Params, Doc: f.Doc})
	}
	writeJSON(w, http.StatusOK, doc)
}

// handleStats serves the JSON counter snapshot.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleMetrics serves the counters in Prometheus text exposition
// format (hand-rolled: the repo takes no dependencies).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	for _, m := range []struct {
		name, typ string
		value     float64
	}{
		{"spannerd_requests_total", "counter", float64(st.Requests)},
		{"spannerd_rejected_total", "counter", float64(st.Rejected)},
		{"spannerd_run_errors_total", "counter", float64(st.RunErrors)},
		{"spannerd_cache_entries", "gauge", float64(st.Cache.Entries)},
		{"spannerd_cache_bytes", "gauge", float64(st.Cache.Bytes)},
		{"spannerd_cache_hits_total", "counter", float64(st.Cache.Hits)},
		{"spannerd_cache_misses_total", "counter", float64(st.Cache.Misses)},
		{"spannerd_cache_evictions_total", "counter", float64(st.Cache.Evictions)},
		{"spannerd_flights_in_flight", "gauge", float64(st.Flights.InFlight)},
		{"spannerd_flights_launched_total", "counter", float64(st.Flights.Launched)},
		{"spannerd_flights_coalesced_total", "counter", float64(st.Flights.Coalesced)},
		{"spannerd_pool_workers", "gauge", float64(st.Pool.Workers)},
		{"spannerd_pool_active", "gauge", float64(st.Pool.Active)},
		{"spannerd_pool_queued", "gauge", float64(st.Pool.Queued)},
		{"spannerd_pool_executions_total", "counter", float64(st.Pool.Executions)},
		{"spannerd_pool_failures_total", "counter", float64(st.Pool.Failures)},
		{"spannerd_pool_run_seconds_total", "counter", float64(st.Pool.RunNanos) / 1e9},
	} {
		fmt.Fprintf(w, "# TYPE %s %s\n%s %g\n", m.name, m.typ, m.name, m.value)
	}
}

// handleHealthz is the liveness probe.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Write([]byte("ok\n"))
}
