package service

import (
	"fmt"
	"math"
	"net/http"

	"distspanner/internal/scenario"
)

// JobRequest is the submitted form of one job: a registered scenario
// name, optional parameter overrides (layered over the scenario's
// defaults), the seed, and optionally an inline graph that replaces the
// cell's generator family. It is a pure description of an instance —
// everything the server does with it is a deterministic function of
// this value.
type JobRequest struct {
	// Scenario names a registry entry (see GET /v1/scenarios).
	Scenario string `json:"scenario"`
	// Params overlays the scenario defaults; same surface as a sweep
	// grid cell ("n", "p", "family", "ref", ..., plus execution-only
	// knobs like "transport", which never enter the cache key).
	Params map[string]string `json:"params,omitempty"`
	// Seed is the run seed; results are pure functions of (spec, seed).
	Seed int64 `json:"seed"`
	// Graph, when set, submits an explicit edge list instead of a named
	// generator family (encoded as the scenario layer's "inline" family).
	Graph *InlineGraph `json:"graph,omitempty"`
}

// InlineGraph is an explicit edge-list submission.
type InlineGraph struct {
	// N is the vertex count; vertices are 0..N-1.
	N int `json:"n"`
	// Edges are undirected [u, v] pairs, in any order (the server
	// canonicalizes, so order never changes the result or the cache key).
	Edges EdgeList `json:"edges"`
	// Weights, when present, assigns Weights[i] to Edges[i].
	Weights []float64 `json:"weights,omitempty"`
}

// Job is a validated, normalized request: the resolved scenario, the
// fully merged parameter cell, and the content-addressed cache key.
type Job struct {
	Scenario *scenario.Scenario
	// Params is the merged cell: scenario defaults, then the request
	// overrides, then the canonical inline-graph encoding when a graph
	// was submitted.
	Params scenario.Params
	Seed   int64
	// GraphHash is the canonical content hash of the submitted graph,
	// empty for generator-spec jobs.
	GraphHash string
	// Key is the cache key: fnv64(scenario, fingerprint, seed) where
	// the fingerprint is the instance identity of the merged cell with
	// the raw inline edge list replaced by GraphHash — i.e.
	// (canonical-graph-hash, algorithm, params, seed) in one string.
	Key string
}

// reqError is a rejected request: an HTTP status plus a message. Run
// failures are not reqErrors — they are outcomes of a valid job.
type reqError struct {
	status int
	msg    string
}

func (e *reqError) Error() string { return e.msg }

func badRequest(format string, args ...any) *reqError {
	return &reqError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// prepare validates req and resolves it into a Job.
func (s *Server) prepare(req *JobRequest) (*Job, *reqError) {
	if req.Scenario == "" {
		return nil, badRequest("missing scenario name")
	}
	sc, ok := scenario.Get(req.Scenario)
	if !ok {
		return nil, &reqError{status: http.StatusNotFound, msg: fmt.Sprintf("unknown scenario %q (see /v1/scenarios)", req.Scenario)}
	}
	if _, ok := req.Params["obs"]; ok {
		// Observer tokens are sequential: a client-set "obs" would attach
		// its run to another caller's live stream. Only in-process
		// callers set it.
		return nil, badRequest(`param "obs" is reserved for the server`)
	}
	merged := sc.Defaults.Merge(scenario.Params(req.Params))
	job := &Job{Scenario: sc, Seed: req.Seed}
	if req.Graph != nil {
		hash, inline, rerr := s.prepareInline(req.Graph)
		if rerr != nil {
			return nil, rerr
		}
		job.GraphHash = hash
		merged = merged.Merge(inline)
	}
	job.Params = merged
	job.Key = jobKey(sc.Name, merged, job.GraphHash, req.Seed)
	return job, nil
}

// prepareInline validates a submitted graph and encodes it from one
// sorted list, building no graph: each edge is checked and normalized to
// (low, high) with its weight, the list is sorted once into canonical
// order (scenario.SortInline), where a duplicate shows as two equal
// neighbours, and both the graph hash and the inline family's
// parameters are read off that list.
func (s *Server) prepareInline(in *InlineGraph) (string, scenario.Params, *reqError) {
	if in.N < 1 {
		return "", nil, badRequest("inline graph: n must be >= 1 (got %d)", in.N)
	}
	if in.N > s.opts.MaxVertices {
		return "", nil, badRequest("inline graph: n=%d exceeds the server limit of %d vertices", in.N, s.opts.MaxVertices)
	}
	if len(in.Edges) > s.opts.MaxEdges {
		return "", nil, badRequest("inline graph: %d edges exceed the server limit of %d", len(in.Edges), s.opts.MaxEdges)
	}
	if in.Weights != nil && len(in.Weights) != len(in.Edges) {
		return "", nil, badRequest("inline graph: %d weights for %d edges", len(in.Weights), len(in.Edges))
	}
	edges := make([]scenario.InlineEdge, len(in.Edges))
	for i, e := range in.Edges {
		u, v := e[0], e[1]
		if u < 0 || u >= in.N || v < 0 || v >= in.N {
			return "", nil, badRequest("inline graph: edge %d endpoints [%d, %d] out of range [0, %d)", i, u, v, in.N)
		}
		if u == v {
			return "", nil, badRequest("inline graph: edge %d is a self-loop at %d", i, u)
		}
		w := 1.0
		if in.Weights != nil {
			w = in.Weights[i]
			if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return "", nil, badRequest("inline graph: edge %d weight %v is not a finite non-negative number", i, w)
			}
		}
		edges[i] = scenario.InlineEdge{U: min(u, v), V: max(u, v), W: w}
	}
	if i := scenario.SortInline(edges); i >= 0 {
		return "", nil, badRequest("inline graph: duplicate edge [%d, %d]", edges[i].U, edges[i].V)
	}
	return hashInline(in.N, edges), scenario.EncodeInline(in.N, edges, len(in.Weights) > 0), nil
}

// jobKey derives the content-addressed cache key. The fingerprint is
// the merged cell's instance identity (execution-only parameters —
// timing, transport, obs — excluded, exactly as sweep seed derivation
// excludes them) with the raw inline edge encoding replaced
// by the canonical graph hash, so the key stays short and the hash
// scheme pinned by hash_test.go is load-bearing for every inline job.
func jobKey(scenarioName string, merged scenario.Params, graphHash string, seed int64) string {
	fp := merged.InstanceParams()
	if graphHash != "" {
		delete(fp, "edges")
		delete(fp, "wts")
		delete(fp, "n")
		fp["graphhash"] = graphHash
	}
	h := mixString(fnvOffset, scenarioName)
	h = mixString(h, fp.InstanceKey())
	h = mix(h, uint64(seed))
	return hex64(h)
}

// mixString folds s (length-prefixed) into an FNV-64a state.
func mixString(h uint64, s string) uint64 {
	h = mix(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}
