package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"distspanner/internal/gen"
	"distspanner/internal/graph"
	"distspanner/internal/scenario"
	"distspanner/internal/service"
	"distspanner/internal/sweep"
)

// serviceSpec is an HTTP traffic mix against service.New on loopback,
// sent from this process (the spanner-loader pattern).
type serviceSpec struct {
	name string
	// deck is one shuffled round of request classes; its counts are the
	// mix. hit repeats a primed generator-spec job and inline_hit a primed
	// inline job; inline_cold sends an inline job with a fresh seed, and a
	// template's scenario name sends that generator job with a fresh seed.
	// The counts place the median request inside the ~7 ms plateau of
	// weighted runs and inline hits, not on the edge between two classes.
	deck map[string]int
	// cacheEntries bounds the server's cache below the number of cold
	// keys a run inserts, so inserts evict.
	cacheEntries int
	// hitSeeds primed seeds per generator template, inlineHits primed
	// inline jobs.
	hitSeeds, inlineHits int
	// inlineGraphs connected G(n,p) graphs of inlineN vertices (about
	// inlineN·(1+inlineP·inlineN/2) edges) are the inline submissions.
	inlineGraphs, inlineN int
	inlineP               float64
	// checkEvery-th cold response, up to checks of them, is compared
	// with a direct sweep.Single of the same job.
	checkEvery, checks int
}

var serviceMix = serviceSpec{
	name: "service-mix",
	deck: map[string]int{"hit": 8, "mds": 1, "twospanner-weighted": 2, "inline_hit": 3,
		"twospanner": 3, "inline_cold": 3},
	cacheEntries: 192,
	hitSeeds:     8, inlineHits: 8,
	inlineGraphs: 16, inlineN: 1024, inlineP: 0.0078,
	checkEvery: 16, checks: 8,
}

// genTemplates are the cold generator-spec jobs: a twospanner on
// G(128, 0.1) with ref=lb, the weighted variant's defaults (ref=kp) and
// mds on 128 vertices (ref=greedy).
var genTemplates = []struct {
	Scenario string            `json:"scenario"`
	Params   map[string]string `json:"params,omitempty"`
}{
	{"twospanner", map[string]string{"family": "cgnp", "n": "128", "p": "0.1"}},
	{"twospanner-weighted", nil},
	{"mds", map[string]string{"n": "128"}},
}

// request is one job the load generator sends.
type request struct {
	class string
	job   service.JobRequest
	// graph is the inline submission's graph (nil for generator jobs);
	// prefix is its pre-rendered body up to the seed.
	graph  *graph.Graph
	prefix []byte
}

func (r request) inline() bool { return r.graph != nil }

// body renders the request; inline bodies are spliced from the
// pre-rendered graph so the generator stays cheap.
func (r request) body() []byte {
	if r.inline() {
		return append(append(append([]byte(nil), r.prefix...), strconv.FormatInt(r.job.Seed, 10)...), '}')
	}
	b, _ := json.Marshal(r.job) // a JobRequest without a graph always marshals
	return b
}

// cell is the merged parameter cell the server runs for r.
func (r request) cell() (*scenario.Scenario, scenario.Params, error) {
	sc, ok := scenario.Get(r.job.Scenario)
	if !ok {
		return nil, nil, fmt.Errorf("scenario %q is not registered", r.job.Scenario)
	}
	p := sc.Defaults.Merge(scenario.Params(r.job.Params))
	if r.inline() {
		p = p.Merge(scenario.InlineParams(r.graph))
	}
	return sc, p, nil
}

// response is what one request returned.
type response struct {
	status     int
	cache, key string
	body       []byte
	err        error
}

// bench is one booted server, its client and the traffic generator.
type bench struct {
	spec   serviceSpec
	srv    *service.Server
	hs     *http.Server
	served chan struct{}
	url    string
	client *http.Client
	tr     *http.Transport
	conns  int
	log    atomic.Pointer[spanLog]

	mu       sync.Mutex // guards the generator below
	rng      *rand.Rand
	deck     []string
	hits     []request
	inlines  []request
	graphs   []request
	coldSeed int64

	checkMu  sync.Mutex // guards the check state below
	bodies   map[string][]byte
	primed   []fingerprint
	colds    int
	samples  []checkSample
	attempts int
	failed   int
	errs     []string
}

type checkSample struct {
	req  request
	body []byte
}

// boot starts the server and primes every hit key; the priming responses
// are the first miss bodies later hits must equal.
func boot(spec serviceSpec, seed int64) (*bench, error) {
	b := &bench{
		spec:   spec,
		srv:    service.New(service.Options{CacheEntries: spec.cacheEntries, Timeout: time.Minute}),
		served: make(chan struct{}),
		conns:  min(2, runtime.NumCPU()),
		rng:    rand.New(rand.NewPCG(uint64(seed), 0x5e41ce)),
		bodies: map[string][]byte{},
	}
	b.coldSeed = int64(b.rng.Uint32())<<24 + 1
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	b.url = "http://" + ln.Addr().String() + "/v1/run"
	b.hs = &http.Server{Handler: http.HandlerFunc(b.serve)}
	go func() {
		defer close(b.served)
		_ = b.hs.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	b.tr = &http.Transport{MaxConnsPerHost: b.conns, MaxIdleConnsPerHost: b.conns, DisableCompression: true}
	b.client = &http.Client{Transport: b.tr}

	for i := range spec.inlineGraphs {
		g := gen.ConnectedGNP(spec.inlineN, spec.inlineP, int64(b.rng.Uint32()))
		ig := &service.InlineGraph{N: g.N()}
		for _, e := range g.Edges() {
			ig.Edges = append(ig.Edges, [2]int{e.U, e.V})
		}
		gj, err := json.Marshal(ig)
		if err != nil {
			b.close()
			return nil, err
		}
		prefix := append([]byte(`{"scenario":"twospanner","graph":`), gj...)
		prefix = append(prefix, `,"seed":`...)
		r := request{class: "inline_cold", job: service.JobRequest{Scenario: "twospanner", Graph: ig}, graph: g, prefix: prefix}
		b.graphs = append(b.graphs, r)
		if i < spec.inlineHits {
			r.class, r.job.Seed = "inline_hit", int64(b.rng.Uint32())
			b.inlines = append(b.inlines, r)
		}
	}
	for _, t := range genTemplates {
		for range spec.hitSeeds {
			b.hits = append(b.hits, request{class: "hit", job: service.JobRequest{Scenario: t.Scenario, Params: t.Params, Seed: int64(b.rng.Uint32())}})
		}
	}
	for _, r := range append(append([]request(nil), b.hits...), b.inlines...) {
		resp := b.send(r, nil)
		var res service.Result
		if resp.err == nil && resp.status == http.StatusOK && resp.cache == "miss" {
			resp.err = json.Unmarshal(resp.body, &res)
		} else if resp.err == nil {
			resp.err = fmt.Errorf("status %d, cache %q: %s", resp.status, resp.cache, resp.body)
		}
		if resp.err != nil {
			b.close()
			return nil, fmt.Errorf("priming %s seed %d: %w", r.job.Scenario, r.job.Seed, resp.err)
		}
		b.bodies[resp.key] = resp.body
		b.primed = append(b.primed, fingerprintOf(res.Metrics))
	}
	return b, nil
}

// close shuts the server down and waits for its runs and serve loop.
func (b *bench) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = b.hs.Shutdown(ctx) // past the timeout there is nothing left to report
	<-b.served
	b.srv.Drain()
	b.tr.CloseIdleConnections()
}

// serve is the server's handler: Server.ServeHTTP, inside a span when a
// traced request names its op and parent span.
func (b *bench) serve(w http.ResponseWriter, r *http.Request) {
	l := b.log.Load()
	op, err1 := strconv.Atoi(r.Header.Get("X-Perfbench-Op"))
	parent, err2 := strconv.Atoi(r.Header.Get("X-Perfbench-Parent"))
	if l == nil || err1 != nil || err2 != nil {
		b.srv.ServeHTTP(w, r)
		return
	}
	l.call("svc.serve", op, parent, false, func(int) { b.srv.ServeHTTP(w, r) })
}

// next draws the next request of the mix.
func (b *bench) next() request {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.deck) == 0 {
		for _, class := range sortedKeys(b.spec.deck) {
			for range b.spec.deck[class] {
				b.deck = append(b.deck, class)
			}
		}
		b.rng.Shuffle(len(b.deck), func(i, j int) { b.deck[i], b.deck[j] = b.deck[j], b.deck[i] })
	}
	class := b.deck[0]
	b.deck = b.deck[1:]
	b.coldSeed++
	switch class {
	case "hit":
		return b.hits[b.rng.IntN(len(b.hits))]
	case "inline_hit":
		return b.inlines[b.rng.IntN(len(b.inlines))]
	case "inline_cold":
		r := b.graphs[b.rng.IntN(len(b.graphs))]
		r.job.Seed = b.coldSeed
		return r
	default:
		for _, t := range genTemplates {
			if t.Scenario == class {
				return request{class: "cold", job: service.JobRequest{Scenario: t.Scenario, Params: t.Params, Seed: b.coldSeed}}
			}
		}
		panic("perfbench: deck class " + class + " has no template")
	}
}

// send posts one request; hdr adds headers (a traced request's span ids).
func (b *bench) send(r request, hdr map[string]string) response {
	req, err := http.NewRequest(http.MethodPost, b.url, bytes.NewReader(r.body()))
	if err != nil {
		return response{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return response{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return response{status: resp.StatusCode, cache: resp.Header.Get("X-Spannerd-Cache"), key: resp.Header.Get("X-Spannerd-Key"), body: body, err: err}
}

// check counts one attempted request and reports whether it succeeded: a
// 200 whose body is byte-equal to the first miss body for its key. Every
// checkEvery-th cold response is kept for the direct comparison.
func (b *bench) check(r request, resp response) bool {
	err := resp.err
	if err == nil && resp.status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", resp.status, resp.body)
	}
	b.checkMu.Lock()
	defer b.checkMu.Unlock()
	b.attempts++
	if err == nil {
		if first, ok := b.bodies[resp.key]; ok && !bytes.Equal(first, resp.body) {
			err = fmt.Errorf("%s body for key %s differs from its first miss body", resp.cache, resp.key)
		} else if !ok && resp.cache == "hit" {
			err = fmt.Errorf("hit on key %s that never missed", resp.key)
		}
	}
	if err != nil {
		b.recordLocked(r, err)
		return false
	}
	if resp.cache != "hit" && (r.class == "cold" || r.class == "inline_cold") {
		b.colds++
		if b.colds%b.spec.checkEvery == 0 && len(b.samples) < b.spec.checks {
			b.samples = append(b.samples, checkSample{r, resp.body})
		}
	}
	return true
}

// fail counts a failure found after a request was checked.
func (b *bench) fail(r request, err error) {
	b.checkMu.Lock()
	defer b.checkMu.Unlock()
	b.recordLocked(r, err)
}

func (b *bench) recordLocked(r request, err error) {
	b.failed++
	if len(b.errs) < 5 {
		b.errs = append(b.errs, fmt.Sprintf("%s %s seed %d: %v", r.class, r.job.Scenario, r.job.Seed, err))
	}
}

// verifySamples compares each kept cold response with a direct
// sweep.Single of the same job; a mismatch is a failed op.
func (b *bench) verifySamples() {
	for _, s := range b.samples {
		var res service.Result
		err := json.Unmarshal(s.body, &res)
		if err == nil {
			var sc *scenario.Scenario
			var p scenario.Params
			if sc, p, err = s.req.cell(); err == nil {
				var m scenario.Metrics
				if m, err = sweep.Single(sc, p, s.req.job.Seed, 0, nil); err == nil && !sameMetrics(m, res.Metrics) {
					err = fmt.Errorf("served metrics differ from a direct sweep.Single")
				}
			}
		}
		if err != nil {
			b.fail(s.req, err)
		}
	}
}

func sameMetrics(a, b scenario.Metrics) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// closedLoop runs b.conns callers, each sending its next request when the
// previous one returns, for seconds. It returns the successful count and
// the elapsed seconds.
func (b *bench) closedLoop(seconds float64) (int, float64) {
	var done atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for range b.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for since(start) < seconds {
				r := b.next()
				if b.check(r, b.send(r, nil)) {
					done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return int(done.Load()), since(start)
}

// openResult is one open-loop phase.
type openResult struct {
	latency   map[string][]float64 // ms from the due time per class; +Inf when failed
	all       []float64
	lateness  []float64 // ms the generator sent each request after its due time
	backlog   []int64   // due but unsent requests at the end of each window
	queued    []int64   // the pool's queued runs at the end of each window
	queuedMax int64
	queueWait float64 // mean pool queue wait per execution (ms), by Little's law
	elapsed   float64
	stats     [2]service.Stats
	alloc     uint64
}

const windows = 5

// openLoad is the open loop's rate as a share of the measured capacity.
// At one half, queueing behind the 40 ms inline runs on two connections
// moved the median latency by a third between seeds; at one quarter the
// latencies are the requests' own.
const openLoad = 0.25

// openLoop sends a fixed-rate schedule for seconds with at most b.conns
// requests in flight: a request whose connection is still busy at its due
// time goes out late, and its latency counts the wait.
func (b *bench) openLoop(rate, seconds float64) openResult {
	n := max(1, int(rate*seconds))
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = b.next()
	}
	res := openResult{latency: map[string][]float64{}, lateness: make([]float64, n), all: make([]float64, n)}
	classes := make([]string, n)
	res.stats[0] = b.srv.Stats()
	alloc := allocated()
	gap := time.Duration(float64(time.Second) / rate)
	t0 := time.Now().Add(10 * time.Millisecond)
	var claimed, started atomic.Int64
	var wg sync.WaitGroup
	for range b.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(claimed.Add(1) - 1)
				if i >= n {
					return
				}
				due := t0.Add(time.Duration(i) * gap)
				time.Sleep(time.Until(due))
				res.lateness[i] = ms(time.Since(due).Nanoseconds())
				started.Add(1)
				resp := b.send(reqs[i], nil)
				lat := ms(time.Since(due).Nanoseconds())
				classes[i] = reqs[i].class
				if resp.cache == "miss" || resp.cache == "coalesced" || reqs[i].class == "inline_cold" {
					classes[i] = "cold"
				}
				if !b.check(reqs[i], resp) {
					lat = math.Inf(1)
				}
				res.all[i] = lat
			}
		}()
	}
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		window := time.Duration(seconds / windows * float64(time.Second))
		nextWindow := t0.Add(window)
		var total, count int64
		for {
			select {
			case <-stop:
				if count > 0 {
					res.queueWait = float64(total) / float64(count) // mean queue length; scaled below
				}
				return
			case now := <-tick.C:
				q := b.srv.Stats().Pool.Queued
				total += q
				count++
				res.queuedMax = max(res.queuedMax, q)
				if !now.Before(nextWindow) && len(res.backlog) < windows {
					due := min(int64(now.Sub(t0)/gap)+1, int64(n))
					res.backlog = append(res.backlog, max(0, due-started.Load()))
					res.queued = append(res.queued, q)
					nextWindow = nextWindow.Add(window)
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-sampled
	res.elapsed = since(t0)
	res.alloc = allocated() - alloc
	res.stats[1] = b.srv.Stats()
	if runs := res.stats[1].Pool.Executions - res.stats[0].Pool.Executions; runs > 0 {
		res.queueWait *= res.elapsed * 1e3 / float64(runs)
	}
	for i, c := range classes {
		res.latency[c] = append(res.latency[c], res.all[i])
	}
	return res
}

// growth is how much the backlog grew from the first window to the last:
// the generator's unsent requests beyond one per connection, or any
// growth of the pool's queue.
func (o openResult) growth(conns int) float64 {
	if len(o.backlog) < 2 {
		return 0
	}
	last := len(o.backlog) - 1
	g := float64(max(0, o.queued[last]-o.queued[0]))
	if d := o.backlog[last] - o.backlog[0]; d > int64(conns) {
		g = max(g, float64(d))
	}
	return g
}

// sequential sends one request at a time and returns each request's
// wall time (ms) and the requests sent: the mix for seconds when reqs is
// nil, otherwise every request of reqs. With l set, each request is
// traced: the client round trip and Server.ServeHTTP are spans, and the
// stages ServeHTTP runs with no exported entry point are measured
// afterwards by replaying the exported functions on the same input.
func (b *bench) sequential(seconds float64, reqs []request, l *spanLog) ([]float64, []request) {
	var walls []float64
	var sent []request
	b.log.Store(l)
	defer b.log.Store(nil)
	start := time.Now()
	for op := 1; ; op++ {
		var r request
		if reqs == nil {
			if since(start) >= seconds {
				break
			}
			r = b.next()
		} else {
			if op > len(reqs) {
				break
			}
			r = reqs[op-1]
		}
		sent = append(sent, r)
		if l == nil {
			t := time.Now()
			resp := b.send(r, nil)
			walls = append(walls, ms(time.Since(t).Nanoseconds()))
			b.check(r, resp)
			continue
		}
		before := b.srv.Stats()
		var resp response
		var netID int
		t := time.Now()
		l.call("op", op, -1, false, func(root int) {
			l.call("svc.net", op, root, false, func(id int) {
				netID = id
				resp = b.send(r, map[string]string{"X-Perfbench-Op": strconv.Itoa(op), "X-Perfbench-Parent": strconv.Itoa(id)})
			})
		})
		walls = append(walls, ms(time.Since(t).Nanoseconds()))
		if !b.check(r, resp) {
			continue
		}
		runNs := b.srv.Stats().Pool.RunNanos - before.Pool.RunNanos
		serve := l.find(op, "svc.serve", netID)
		if serve < 0 {
			b.fail(r, fmt.Errorf("no svc.serve span for op %d", op))
			continue
		}
		if err := b.replay(l, op, serve, r, resp, runNs); err != nil {
			b.fail(r, err)
		}
	}
	return walls, sent
}

// fresh returns reqs with a new seed for every cold request, so a second
// pass sends the same mix without hitting the first pass's results.
func (b *bench) fresh(reqs []request) []request {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := append([]request(nil), reqs...)
	for i := range out {
		if out[i].class == "cold" || out[i].class == "inline_cold" {
			b.coldSeed++
			out[i].job.Seed = b.coldSeed
		}
	}
	return out
}

// replay measures the stages of one served request as replay children of
// its svc.serve span: the body decode, the inline graph's build, hash and
// parameter encoding, the cache lookup and, on a miss, the pool's run
// (the server's own figure) with the scenario's steps replayed under it,
// and the result encoding. It checks that the replayed run and encoding
// reproduce the served body.
func (b *bench) replay(l *spanLog, op, serve int, r request, resp response, runNs int64) error {
	body := r.body()
	var req service.JobRequest
	var err error
	l.call("svc.decode", op, serve, true, func(int) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&req)
	})
	if err != nil {
		return fmt.Errorf("replayed decode: %w", err)
	}
	if req.Graph != nil {
		var g *graph.Graph
		l.call("svc.inline_build", op, serve, true, func(int) { g = buildGraph(req.Graph) })
		l.call("svc.hash", op, serve, true, func(int) { _ = service.GraphHash(g) })
		l.call("svc.inline_params", op, serve, true, func(int) { _ = scenario.InlineParams(g) })
	}
	cache := service.NewCache(1)
	cache.Put(resp.key, resp.body)
	l.call("svc.cache_get", op, serve, true, func(int) { _, _ = cache.Get(resp.key) })
	if resp.cache == "hit" {
		return nil
	}
	var res service.Result
	if err := json.Unmarshal(resp.body, &res); err != nil {
		return fmt.Errorf("served body: %w", err)
	}
	_, p, err := r.cell()
	if err != nil {
		return err
	}
	run := l.add("svc.run", op, serve, time.Duration(runNs))
	got, err := replayScenario(l, op, run, true, r.job.Scenario, p, r.job.Seed)
	if err != nil {
		return fmt.Errorf("replayed run: %w", err)
	}
	if want := fingerprintOf(res.Metrics); got != want {
		return fmt.Errorf("replayed run fingerprint %+v, served %+v", got, want)
	}
	var enc []byte
	l.call("svc.encode", op, serve, true, func(int) { enc, err = json.Marshal(res) })
	if err != nil || !bytes.Equal(enc, resp.body) {
		return fmt.Errorf("replayed encoding differs from the served body (%v)", err)
	}
	return nil
}

// buildGraph constructs a submission's graph the way the server does:
// vertices 0..N-1, each edge checked for a duplicate, then added.
func buildGraph(in *service.InlineGraph) *graph.Graph {
	g := graph.New(in.N)
	for _, e := range in.Edges {
		if !g.HasEdge(e[0], e[1]) {
			g.AddEdge(e[0], e[1])
		}
	}
	return g
}

// runServiceWorkload boots the server three times (the set-up), measures
// capacity and CPU time per request with a closed loop of two callers,
// sends an open loop at a quarter of the capacity, then sends the mix
// with one caller for the wall-clock latency free of other requests'
// interference. Traced, the phases are shorter and the one-caller
// requests are sent again, traced, with fresh cold seeds.
func runServiceWorkload(spec serviceSpec, cfg config) (*outcome, error) {
	var setups, wallSetups []float64
	var b *bench
	for i := range 3 {
		t, c := time.Now(), cpuTime()
		var err error
		if b, err = boot(spec, cfg.seed); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", spec.name, err)
		}
		setups = append(setups, (cpuTime() - c).Seconds())
		wallSetups = append(wallSetups, since(t))
		if i < 2 {
			b.close()
		}
	}
	defer b.close()

	out := &outcome{metrics: map[string]float64{}, detail: map[string]any{}}
	capSeconds, openSeconds, seqSeconds := cfg.seconds*0.4, cfg.seconds*0.3, cfg.seconds*0.3
	if cfg.trace {
		capSeconds, openSeconds, seqSeconds = cfg.seconds*0.2, cfg.seconds*0.2, cfg.seconds*0.2
	}
	// CPU time per request is taken at capacity: with both callers busy
	// the runtime seldom spins idle, which with one caller added up to a
	// tenth of a request's CPU time and varied from run to run.
	capCPU := cpuTime()
	served, capElapsed := b.closedLoop(capSeconds)
	if served == 0 {
		return nil, fmt.Errorf("%s: no request succeeded in the capacity phase: %v", spec.name, b.errs)
	}
	capCPUPerOp := ms((cpuTime() - capCPU).Nanoseconds()) / float64(served)
	capacity := float64(served) / capElapsed
	open := b.openLoop(capacity*openLoad, openSeconds)
	growth := open.growth(b.conns)
	if growth > 0 {
		out.flagged = append(out.flagged, fmt.Sprintf("backlog grew by %.0f over the open loop", growth))
	}
	plain, sent := b.sequential(seqSeconds, nil, nil)
	var traced []float64
	l := newSpanLog()
	if cfg.trace {
		traced, _ = b.sequential(0, b.fresh(sent), l)
	}
	b.verifySamples()

	s0, s1 := open.stats[0], open.stats[1]
	out.detail["inputs"] = map[string]any{"deck": spec.deck, "cache_entries": spec.cacheEntries, "connections": b.conns,
		"inline_n": spec.inlineN, "inline_p": spec.inlineP, "templates": genTemplates, "rate_per_s": capacity * openLoad}
	out.detail["wall"] = map[string]float64{"capacity_per_s": capacity,
		"one_caller_latency_ms_p50": median(plain), "one_caller_latency_ms_mean": mean(plain)}
	out.detail["open_requests"] = len(open.all)
	out.detail["class_latency_ms"] = classSummary(open.latency)
	out.detail["lateness_ms_p90"] = quantile(open.lateness, 0.9)
	out.detail["backlog"] = open.backlog
	out.detail["pool_queued"] = open.queued
	out.detail["server_stats"] = s1
	out.detail["checked_misses"] = len(b.samples)
	out.detail["errors"] = b.errs
	out.attempted, out.failed = b.attempts, b.failed

	if !cfg.trace {
		var rounds, msgs []float64
		for _, f := range b.primed {
			rounds = append(rounds, float64(f.Rounds))
			msgs = append(msgs, float64(f.Messages))
		}
		out.metrics["setup_s"] = median(setups)
		out.metrics["cpu_ms_per_op"] = capCPUPerOp
		out.metrics["peak_rss_bytes"] = peakRSS()
		out.metrics["alloc_bytes_per_op"] = float64(open.alloc) / float64(len(open.all))
		out.metrics["model_rounds_per_op"] = mean(rounds)
		out.metrics["model_messages_per_op"] = mean(msgs)
		out.detail["setup_cpu_s"] = setups
		out.detail["setup_wall_s"] = wallSetups
		return out, nil
	}

	layerMetrics(l, out)
	out.metrics["wall.latency_ms_p50"] = median(plain)
	out.metrics["wall.throughput_per_s"] = capacity
	hits := float64(s1.Cache.Hits - s0.Cache.Hits)
	misses := float64(s1.Cache.Misses - s0.Cache.Misses)
	out.metrics["svc.queue_wait_ms"] = open.queueWait
	out.metrics["svc.queued_peak"] = float64(open.queuedMax)
	out.metrics["svc.hits"] = hits
	out.metrics["svc.misses"] = misses
	out.metrics["svc.coalesced"] = float64(s1.Flights.Coalesced - s0.Flights.Coalesced)
	out.metrics["svc.evictions"] = float64(s1.Cache.Evictions - s0.Cache.Evictions)
	if hits+misses > 0 {
		out.metrics["svc.hit_share"] = hits / (hits + misses)
	}
	for class, name := range map[string]string{"hit": "svc.hit_ms", "inline_hit": "svc.inline_hit_ms", "cold": "svc.cold_ms"} {
		out.metrics[name+"_p50"] = quantile(open.latency[class], 0.5)
		out.metrics[name+"_p90"] = quantile(open.latency[class], 0.9)
	}
	out.metrics["loadgen.lateness_ms_p90"] = quantile(open.lateness, 0.9)
	out.metrics["loadgen.backlog_growth"] = growth
	out.metrics["trace.overhead_share"] = mean(traced)/mean(plain) - 1
	out.detail["untraced_ops"] = len(plain)
	out.detail["traced_ops"] = len(traced)
	return out, nil
}

// classSummary gives each latency class's count, median and p90.
func classSummary(lat map[string][]float64) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for c, v := range lat {
		out[c] = map[string]float64{"count": float64(len(v)), "p50": finite(quantile(v, 0.5)), "p90": finite(quantile(v, 0.9))}
	}
	return out
}
