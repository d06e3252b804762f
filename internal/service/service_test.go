package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(opts)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// postRun POSTs one job to /v1/run and returns (status, cache header, body).
func postRun(t *testing.T, ts *httptest.Server, req JobRequest) (int, string, []byte) {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("POST /v1/run: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, resp.Header.Get("X-Spannerd-Cache"), body
}

// TestServedResultMatchesDirectRun pins the service's core contract:
// the body served for a job is byte-identical to encoding a direct
// internal/scenario run of the same (spec, seed).
func TestServedResultMatchesDirectRun(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 2})
	req := JobRequest{
		Scenario: "twospanner",
		Params:   map[string]string{"family": "gnp", "n": "40", "p": "0.15"},
		Seed:     11,
	}
	status, cache, served := postRun(t, ts, req)
	if status != http.StatusOK || cache != "miss" {
		t.Fatalf("status=%d cache=%q body=%s", status, cache, served)
	}

	job, rerr := srv.prepare(&req)
	if rerr != nil {
		t.Fatalf("prepare: %v", rerr)
	}
	m, err := job.Scenario.Run(job.Params, job.Seed, nil)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	want, err := encodeResult(job, m)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if !bytes.Equal(served, want) {
		t.Fatalf("served body differs from direct run:\n got %s\nwant %s", served, want)
	}
}

// TestInlineGraphMatchesDirectRun does the same for an inline edge-list
// submission, including submission-order invariance of the key.
func TestInlineGraphMatchesDirectRun(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 2})
	req := JobRequest{
		Scenario: "twospanner",
		Seed:     3,
		Graph:    &InlineGraph{N: 6, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}}},
	}
	status, _, served := postRun(t, ts, req)
	if status != http.StatusOK {
		t.Fatalf("status=%d body=%s", status, served)
	}

	// The same graph submitted in reverse order with flipped endpoints
	// is the same job: answered from cache, byte-identical.
	shuffled := JobRequest{Scenario: "twospanner", Seed: 3, Graph: &InlineGraph{N: 6}}
	for i := len(req.Graph.Edges) - 1; i >= 0; i-- {
		e := req.Graph.Edges[i]
		shuffled.Graph.Edges = append(shuffled.Graph.Edges, [2]int{e[1], e[0]})
	}
	status, cache, body2 := postRun(t, ts, shuffled)
	if status != http.StatusOK || cache != "hit" {
		t.Fatalf("shuffled submission: status=%d cache=%q", status, cache)
	}
	if !bytes.Equal(served, body2) {
		t.Fatal("edge submission order changed the served bytes")
	}

	job, rerr := srv.prepare(&req)
	if rerr != nil {
		t.Fatalf("prepare: %v", rerr)
	}
	m, err := job.Scenario.Run(job.Params, job.Seed, nil)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	want, _ := encodeResult(job, m)
	if !bytes.Equal(served, want) {
		t.Fatalf("served body differs from direct run:\n got %s\nwant %s", served, want)
	}
}

func TestCacheHitServesIdenticalBytesWithoutReexecution(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 2})
	req := JobRequest{
		Scenario: "twospanner",
		Params:   map[string]string{"family": "gnp", "n": "32", "p": "0.2"},
		Seed:     7,
	}
	_, cache1, body1 := postRun(t, ts, req)
	_, cache2, body2 := postRun(t, ts, req)
	if cache1 != "miss" || cache2 != "hit" {
		t.Fatalf("cache headers = %q, %q; want miss, hit", cache1, cache2)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cache hit served different bytes:\n %s\n %s", body1, body2)
	}
	// The hit must not have executed anything.
	if st := srv.pool.Stats(); st.Executions != 1 {
		t.Fatalf("executions = %d after a hit, want 1", st.Executions)
	}
	if st := srv.cache.Stats(); st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("cache stats = %+v", st)
	}
}

// TestConcurrentIdenticalRequestsCoalesce pins the single-flight
// contract end to end: N clients firing the same brand-new job get one
// execution and N identical bodies.
func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 4})
	ctl := newBlockCtl("e2e-coalesce")
	req := JobRequest{Scenario: "svc-test-block", Params: map[string]string{"ctl": "e2e-coalesce"}, Seed: 5}

	const clients = 6
	type result struct {
		status int
		cache  string
		body   []byte
	}
	results := make(chan result, clients)
	for i := 0; i < clients; i++ {
		go func() {
			status, cache, body := postRun(t, ts, req)
			results <- result{status, cache, body}
		}()
	}
	// Hold the run until every client has joined the flight, so none of
	// them can be served by the cache instead.
	waitFor(t, "all clients to join the flight", func() bool {
		return srv.flights.Stats().Coalesced == clients-1
	})
	close(ctl.release)

	var bodies [][]byte
	counts := map[string]int{}
	for i := 0; i < clients; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Fatalf("client got status %d: %s", r.status, r.body)
		}
		counts[r.cache]++
		bodies = append(bodies, r.body)
	}
	for _, b := range bodies[1:] {
		if !bytes.Equal(bodies[0], b) {
			t.Fatal("coalesced clients received different bodies")
		}
	}
	if counts["miss"] != 1 || counts["coalesced"] != clients-1 {
		t.Fatalf("cache header counts = %v, want 1 miss + %d coalesced", counts, clients-1)
	}
	if st := srv.pool.Stats(); st.Executions != 1 {
		t.Fatalf("executions = %d, want exactly 1", st.Executions)
	}
}

// TestClientDisconnectCancelsRun pins the full cancellation chain:
// client disconnect → request context → flight abandonment → pool
// cancel → scenario cancel channel (dist.Config.Cancel on engine
// scenarios) — leaving no goroutine, no flight, and no cache entry.
func TestClientDisconnectCancelsRun(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 2})
	ctl := newBlockCtl("e2e-disconnect")
	req := JobRequest{Scenario: "svc-test-block", Params: map[string]string{"ctl": "e2e-disconnect"}, Seed: 9}
	payload, _ := json.Marshal(req)

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/run", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	clientDone := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(httpReq)
		if err == nil {
			resp.Body.Close()
		}
		clientDone <- err
	}()

	<-ctl.started // the run is executing
	cancel()      // client disconnects
	if err := <-clientDone; err == nil {
		t.Fatal("canceled client request unexpectedly succeeded")
	}

	// The scenario must observe the cancel...
	select {
	case <-ctl.canceled:
	case <-time.After(5 * time.Second):
		t.Fatal("run was never canceled after the client disconnected")
	}
	// ...every tracking structure must drain...
	waitFor(t, "pool to drain", func() bool {
		st := srv.pool.Stats()
		return st.Active == 0 && st.Queued == 0
	})
	waitFor(t, "flight table to drain", func() bool { return srv.flights.Stats().InFlight == 0 })
	// ...the failed run must not be cached...
	job, rerr := srv.prepare(&req)
	if rerr != nil {
		t.Fatalf("prepare: %v", rerr)
	}
	if _, ok := srv.cache.Get(job.Key); ok {
		t.Fatal("canceled run left a cache entry")
	}
	if st := srv.Stats(); st.RunErrors != 1 {
		t.Fatalf("run_errors = %d, want 1", st.RunErrors)
	}
	// ...and no goroutine may survive the abandoned job.
	ts.Client().CloseIdleConnections()
	waitFor(t, "goroutines to settle", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+2
	})
}

func TestRejectedRequests(t *testing.T) {
	// MaxEdges 1024 bounds a job body at 64 KiB + 1 MiB.
	srv, ts := newTestServer(t, Options{Workers: 1, MaxEdges: 1 << 10})
	oversized := `{"scenario":"twospanner","seed":1` + strings.Repeat(" ", 1<<20+1<<16) + `}`
	for _, tc := range []struct {
		name   string
		body   string
		status int
	}{
		{"malformed json", `{"scenario":`, http.StatusBadRequest},
		{"unknown field", `{"scenario":"twospanner","bogus":1}`, http.StatusBadRequest},
		{"missing scenario", `{"seed":1}`, http.StatusBadRequest},
		{"unknown scenario", `{"scenario":"no-such-thing"}`, http.StatusNotFound},
		{"self loop", `{"scenario":"twospanner","graph":{"n":2,"edges":[[1,1]]}}`, http.StatusBadRequest},
		{"duplicate edge", `{"scenario":"twospanner","graph":{"n":2,"edges":[[0,1],[1,0]]}}`, http.StatusBadRequest},
		{"endpoint out of range", `{"scenario":"twospanner","graph":{"n":2,"edges":[[0,5]]}}`, http.StatusBadRequest},
		{"weight count mismatch", `{"scenario":"twospanner","graph":{"n":2,"edges":[[0,1]],"weights":[1,2]}}`, http.StatusBadRequest},
		{"negative weight", `{"scenario":"twospanner","graph":{"n":2,"edges":[[0,1]],"weights":[-1]}}`, http.StatusBadRequest},
		{"oversized body", oversized, http.StatusRequestEntityTooLarge},
		{"observer token", `{"scenario":"twospanner","params":{"obs":"1"}}`, http.StatusBadRequest},
	} {
		resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, msg)
		}
	}
	if st := srv.Stats(); st.Rejected != 11 {
		t.Errorf("rejected = %d, want 11", st.Rejected)
	}
	if st := srv.pool.Stats(); st.Executions != 0 {
		t.Errorf("rejected requests executed %d runs", st.Executions)
	}
}

// TestMalformedParamRejected: scenarios declare no parameter types, so a
// job whose params hold a value its scenario cannot parse is admitted,
// and its run stops at the first read of the bad key. The server answers
// 400 naming the key and value, counts the job as rejected rather than a
// run error, and caches nothing.
func TestMalformedParamRejected(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1})
	req := JobRequest{Scenario: "twospanner", Params: map[string]string{"n": "abc"}, Seed: 1}
	for i := 0; i < 2; i++ {
		status, _, body := postRun(t, ts, req)
		if status != http.StatusBadRequest {
			t.Fatalf("attempt %d: status %d, want 400 (%s)", i, status, body)
		}
		var doc map[string]string
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		if want := `scenario: param n="abc" is not an int`; doc["error"] != want {
			t.Fatalf("attempt %d: error %q, want %q", i, doc["error"], want)
		}
	}
	st := srv.Stats()
	if st.Rejected != 2 || st.RunErrors != 0 {
		t.Errorf("rejected = %d, run_errors = %d; want 2 and 0", st.Rejected, st.RunErrors)
	}
	// Nothing is cached, so the second attempt ran again.
	if st.Cache.Entries != 0 || st.Pool.Executions != 2 {
		t.Errorf("cache entries = %d, executions = %d; want 0 and 2", st.Cache.Entries, st.Pool.Executions)
	}
}

// TestMalformedWeightRangeRejected: a weight range Build cannot draw
// from is a parameter error, not a failed run. Each request gets 400 with
// one line naming the key, no goroutine dump, and counts as rejected.
func TestMalformedWeightRangeRejected(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		params map[string]string
		want   string
	}{
		{map[string]string{"whi": "inf"}, `scenario: param whi="inf" is not a finite weight >= 0`},
		{map[string]string{"wlo": "8", "whi": "2"}, `scenario: param wlo="8" is not a weight in [0, whi]`},
		{map[string]string{"wlo": "nan", "whi": "4"}, `scenario: param wlo="nan" is not a weight in [0, whi]`},
	}
	for _, c := range cases {
		status, _, body := postRun(t, ts, JobRequest{Scenario: "twospanner-weighted", Params: c.params, Seed: 1})
		if status != http.StatusBadRequest || strings.Contains(string(body), "goroutine") {
			t.Fatalf("%v: status %d, want 400 without a stack (%s)", c.params, status, body)
		}
		var doc map[string]string
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		if doc["error"] != c.want {
			t.Errorf("%v: error %q, want %q", c.params, doc["error"], c.want)
		}
	}
	if st := srv.Stats(); st.Rejected != uint64(len(cases)) || st.RunErrors != 0 {
		t.Errorf("rejected = %d, run_errors = %d; want %d and 0", st.Rejected, st.RunErrors, len(cases))
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data string
}

func readSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.name != "" {
				events = append(events, cur)
			}
			cur = sseEvent{}
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatalf("read SSE stream: %v", err)
	}
	return events
}

func TestStreamEmitsRoundsThenResult(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 2})
	req := JobRequest{
		Scenario: "twospanner",
		Params:   map[string]string{"family": "gnp", "n": "64", "p": "0.1"},
		Seed:     3,
	}
	payload, _ := json.Marshal(req)
	resp, err := ts.Client().Post(ts.URL+"/v1/stream", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("POST /v1/stream: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	events := readSSE(t, resp.Body)
	if len(events) < 2 {
		t.Fatalf("got %d events, want rounds + result", len(events))
	}
	last := events[len(events)-1]
	if last.name != "result" {
		t.Fatalf("last event = %q, want result", last.name)
	}
	rounds := 0
	prev := 0
	for _, ev := range events[:len(events)-1] {
		if ev.name != "round" {
			t.Fatalf("mid-stream event %q, want round", ev.name)
		}
		var r roundEvent
		if err := json.Unmarshal([]byte(ev.data), &r); err != nil {
			t.Fatalf("round event %q: %v", ev.data, err)
		}
		if r.Round <= prev {
			t.Fatalf("round numbers not increasing: %d after %d", r.Round, prev)
		}
		prev = r.Round
		rounds++
	}
	if rounds == 0 {
		t.Fatal("no round events before the result")
	}

	// The stream's result is the same document /v1/run serves — and the
	// run it triggered populated the cache.
	status, cache, body := postRun(t, ts, req)
	if status != http.StatusOK || cache != "hit" {
		t.Fatalf("follow-up run: status=%d cache=%q", status, cache)
	}
	if string(body) != last.data {
		t.Fatalf("stream result differs from /v1/run body:\n %s\n %s", last.data, body)
	}
	if st := srv.pool.Stats(); st.Executions != 1 {
		t.Fatalf("executions = %d, want 1", st.Executions)
	}
}

func TestStreamCacheHitEmitsResultImmediately(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	req := JobRequest{
		Scenario: "twospanner",
		Params:   map[string]string{"family": "gnp", "n": "24", "p": "0.2"},
		Seed:     1,
	}
	_, _, want := postRun(t, ts, req)
	payload, _ := json.Marshal(req)
	resp, err := ts.Client().Post(ts.URL+"/v1/stream", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("POST /v1/stream: %v", err)
	}
	defer resp.Body.Close()
	events := readSSE(t, resp.Body)
	if len(events) != 1 || events[0].name != "result" {
		t.Fatalf("cached stream = %+v, want exactly one result event", events)
	}
	if events[0].data != string(want) {
		t.Fatal("cached stream result differs from /v1/run body")
	}
}

func TestCatalogStatsMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	// Warm one job so the counters are nonzero.
	postRun(t, ts, JobRequest{
		Scenario: "twospanner",
		Params:   map[string]string{"family": "gnp", "n": "24", "p": "0.2"},
		Seed:     2,
	})

	get := func(path string) (string, string) {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	catalog, _ := get("/v1/scenarios")
	for _, want := range []string{`"twospanner"`, `"inline"`, `"families"`} {
		if !strings.Contains(catalog, want) {
			t.Errorf("/v1/scenarios missing %s", want)
		}
	}

	statsBody, _ := get("/v1/stats")
	var st Stats
	if err := json.Unmarshal([]byte(statsBody), &st); err != nil {
		t.Fatalf("/v1/stats unparseable: %v", err)
	}
	if st.Requests == 0 || st.Pool.Executions != 1 || st.Cache.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}

	metrics, ct := get("/metrics")
	if !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	for _, want := range []string{
		"spannerd_requests_total", "spannerd_cache_hits_total",
		"spannerd_pool_executions_total 1", "spannerd_flights_launched_total 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	health, _ := get("/healthz")
	if health != "ok\n" {
		t.Errorf("/healthz = %q", health)
	}
}

// TestDrainWaitsForInFlightRuns pins the graceful-shutdown hook.
func TestDrainWaitsForInFlightRuns(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 2})
	ctl := newBlockCtl("e2e-drain")
	req := JobRequest{Scenario: "svc-test-block", Params: map[string]string{"ctl": "e2e-drain"}, Seed: 1}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postRun(t, ts, req)
	}()
	<-ctl.started

	drained := make(chan struct{})
	go func() {
		srv.Drain()
		close(drained)
	}()
	select {
	case <-drained:
		t.Fatal("Drain returned while a run was still executing")
	case <-time.After(50 * time.Millisecond):
	}
	close(ctl.release)
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain never returned after the run finished")
	}
	wg.Wait()
}

// TestExecOnlyParamsShareOneCacheEntry: two requests differing only in
// an execution knob are the same job — one execution, one entry.
func TestExecOnlyParamsShareOneCacheEntry(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 2})
	local := map[string]string{"family": "gnp", "n": "24", "p": "0.2", "transport": "local"}
	_, cache1, body1 := postRun(t, ts, JobRequest{Scenario: "twospanner", Params: local, Seed: 4})
	sharded := map[string]string{"family": "gnp", "n": "24", "p": "0.2", "transport": "chan2"}
	_, cache2, body2 := postRun(t, ts, JobRequest{Scenario: "twospanner", Params: sharded, Seed: 4})
	if cache1 != "miss" || cache2 != "hit" {
		t.Fatalf("cache headers = %q, %q; want miss, hit", cache1, cache2)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("execution-only param changed the served bytes")
	}
	if st := srv.pool.Stats(); st.Executions != 1 {
		t.Fatalf("executions = %d, want 1", st.Executions)
	}
}
