package service

import (
	"math"

	"distspanner/internal/graph"
	"distspanner/internal/scenario"
)

// Canonical graph hashing: the content-addressed half of a job's cache
// key. Two graphs hash equal iff they have the same vertex count and the
// same labeled edge set with the same weights — submission order never
// enters (edges are folded in sorted canonical order), while relabeling
// does (the hash is over labeled edges, not isomorphism classes: vertex
// ids are protocol-visible, so a relabeled graph is a different
// instance with different results). hash_test.go pins golden values so
// the key scheme cannot drift silently and strand every cached result.

// FNV-64a parameters (same folding discipline as trace.Digest).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// mix folds one 64-bit value into an FNV-64a state, byte by byte,
// little-endian; fixed-width folding keeps the encoding unambiguous
// without separators.
func mix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

const hexDigits = "0123456789abcdef"

// hex64 formats h as 16 lowercase hex digits.
func hex64(h uint64) string {
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexDigits[h&0xf]
		h >>= 4
	}
	return string(b[:])
}

// GraphHash returns the canonical content hash of g: 16 hex digits over
// (n, m, sorted canonical edge list, per-edge weights). Equal for the
// same edge set in any insertion order; different under any relabeling,
// weight change, or vertex-count change. An unweighted graph and the
// same graph with every weight explicitly 1 hash equal — they are the
// same instance to every algorithm.
func GraphHash(g *graph.Graph) string {
	return hashInline(g.N(), scenario.InlineEdges(g))
}

// hashInline folds n, the edge count, and each edge's endpoints and
// weight bits, with edges in canonical order (scenario.SortInline).
func hashInline(n int, edges []scenario.InlineEdge) string {
	h := mix(fnvOffset, uint64(n))
	h = mix(h, uint64(len(edges)))
	for _, e := range edges {
		h = mix(h, uint64(e.U))
		h = mix(h, uint64(e.V))
		h = mix(h, math.Float64bits(e.W))
	}
	return hex64(h)
}
