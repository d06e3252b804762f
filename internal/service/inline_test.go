package service

import (
	"encoding/json"
	"maps"
	"math"
	"math/rand"
	"testing"

	"distspanner/internal/graph"
	"distspanner/internal/scenario"
)

// inlineCase is one seeded inline submission together with the graph
// built from it edge by edge, in submission order.
type inlineCase struct {
	req JobRequest
	g   *graph.Graph
}

// randomInline draws submission i: a random edge set on n vertices with
// both endpoints of every edge below a random bound (so n may exceed the
// largest endpoint), edges shuffled with endpoints flipped at random,
// unweighted on even i and weighted on odd i. Every 25th submission has
// no edges; every 45th is large (n around 1000, a few thousand edges).
func randomInline(rng *rand.Rand, i int) inlineCase {
	n := 1 + rng.Intn(40)
	if i%45 == 7 {
		n = 800 + rng.Intn(400)
	}
	span := max(1, n-rng.Intn(4))
	m := 0
	if i%25 != 0 && span > 1 {
		m = rng.Intn(min(span*(span-1)/2, 6*span) + 1)
	}
	seen := map[[2]int]bool{}
	var edges [][2]int
	for len(edges) < m {
		u, v := rng.Intn(span), rng.Intn(span)
		if u == v || seen[[2]int{min(u, v), max(u, v)}] {
			continue
		}
		seen[[2]int{min(u, v), max(u, v)}] = true
		if rng.Intn(2) == 0 {
			u, v = v, u
		}
		edges = append(edges, [2]int{u, v})
	}
	if i%25 == 0 && i%50 != 0 {
		edges = [][2]int{} // "edges":[] rather than null
	}
	var weights []float64
	if i%2 == 1 {
		weights = make([]float64, len(edges))
		for j := range weights {
			weights[j] = randomWeight(rng)
		}
	}
	name := "twospanner"
	if weights != nil {
		name = "twospanner-weighted"
	}
	c := inlineCase{req: JobRequest{
		Scenario: name,
		Seed:     rng.Int63(),
		Graph:    &InlineGraph{N: n, Edges: edges, Weights: weights},
	}}
	c.g = graph.New(n)
	for j, e := range edges {
		idx := c.g.AddEdge(e[0], e[1])
		if weights != nil {
			c.g.SetWeight(idx, weights[j])
		}
	}
	return c
}

// randomWeight mixes integral, fractional, tiny, huge, unit and signed-zero
// weights, so every branch of the shortest float formatting is rendered.
func randomWeight(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 1
	case 1:
		return 0
	case 2:
		return math.Copysign(0, -1)
	case 3:
		return float64(rng.Intn(100))
	case 4:
		return rng.Float64() * 1e-9
	case 5:
		return rng.Float64() * 1e22
	default:
		return rng.Float64() * 10
	}
}

// reshuffled returns the same submission with its edges (and their
// weights) in another order and every endpoint pair flipped at random.
func reshuffled(rng *rand.Rand, in *InlineGraph) *InlineGraph {
	out := &InlineGraph{N: in.N}
	perm := rng.Perm(len(in.Edges))
	for _, j := range perm {
		e := in.Edges[j]
		if rng.Intn(2) == 0 {
			e[0], e[1] = e[1], e[0]
		}
		out.Edges = append(out.Edges, e)
		if in.Weights != nil {
			out.Weights = append(out.Weights, in.Weights[j])
		}
	}
	return out
}

// viaJSON round-trips a request through its wire form, the way the
// server receives it.
func viaJSON(t *testing.T, req JobRequest) *JobRequest {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var out JobRequest
	if err := json.Unmarshal(payload, &out); err != nil {
		t.Fatalf("decode %s: %v", payload, err)
	}
	return &out
}

// TestPrepareInlineMatchesGraphRoute is a differential test of inline
// request preparation. For 300 seeded submissions, prepare must give
// the graph hash, cache key and merged parameters that the graph built
// edge by edge with graph.New, AddEdge and SetWeight gives through
// GraphHash, InlineParams and jobKey. A reshuffled submission of the
// same graph must get the same key. A fold of every key and parameter
// cell is pinned, so the bytes cannot drift on both routes at once.
func TestPrepareInlineMatchesGraphRoute(t *testing.T) {
	s := New(Options{})
	rng := rand.New(rand.NewSource(25))
	fold := uint64(fnvOffset)
	for i := 0; i < 300; i++ {
		c := randomInline(rng, i)
		job, rerr := s.prepare(viaJSON(t, c.req))
		if rerr != nil {
			t.Fatalf("case %d: prepare: %v", i, rerr)
		}
		wantHash := GraphHash(c.g)
		wantParams := job.Scenario.Defaults.Merge(scenario.InlineParams(c.g))
		wantKey := jobKey(job.Scenario.Name, wantParams, wantHash, c.req.Seed)
		if job.GraphHash != wantHash {
			t.Fatalf("case %d: graph hash %s, want %s", i, job.GraphHash, wantHash)
		}
		if !maps.Equal(job.Params, wantParams) {
			t.Fatalf("case %d: params\n %v\nwant\n %v", i, job.Params, wantParams)
		}
		if job.Key != wantKey {
			t.Fatalf("case %d: key %s, want %s", i, job.Key, wantKey)
		}

		again := c.req
		again.Graph = reshuffled(rng, c.req.Graph)
		job2, rerr := s.prepare(viaJSON(t, again))
		if rerr != nil {
			t.Fatalf("case %d reshuffled: prepare: %v", i, rerr)
		}
		if job2.Key != job.Key || job2.GraphHash != job.GraphHash || !maps.Equal(job2.Params, job.Params) {
			t.Fatalf("case %d: reshuffled submission got key %s, want %s", i, job2.Key, job.Key)
		}
		fold = mixString(fold, job.Key)
		fold = mixString(fold, job.Params.Key())
	}
	if got, want := hex64(fold), "444b922b4544a1ea"; got != want {
		t.Errorf("fold of every key and parameter cell = %s, want %s", got, want)
	}
}
