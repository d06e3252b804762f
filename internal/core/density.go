// Package core implements the paper's main algorithmic contribution
// (Section 4): a distributed algorithm for the minimum 2-spanner problem in
// the LOCAL model with a guaranteed O(log(m/n)) approximation ratio and
// O(log n · log Δ) rounds w.h.p. (Theorem 1.3), together with its directed
// (Theorem 4.9), weighted (Theorem 4.12), and client-server (Theorem 4.15)
// variants.
//
// The algorithm repeatedly has every vertex compute its densest star with
// respect to the still-uncovered edges in its neighborhood (by flow
// techniques), lets vertices whose rounded density is maximal in their
// 2-neighborhood become candidates, breaks symmetry by letting every
// uncovered edge vote for the first candidate that 2-spans it under a
// random permutation, and accepts stars receiving at least 1/8 of their
// potential votes. Stars are chosen by the careful rule of Section 4.1 so
// that, within one rounded-density level, the chosen stars only shrink
// (Claim 4.4), which is what bounds the round complexity.
//
// # Activity-aware execution
//
// The implementations are event-driven within the paper's fixed
// per-iteration round grid (see ALGORITHMS.md). State announcements are
// deltas accumulated by receivers, so the folded quantities match the
// classic re-broadcast-everything execution round for round while static
// vertices send nothing. Per-vertex termination states replace
// round-count spinning:
//
//   - active: the vertex owes a delta or is a candidate and runs the full
//     iteration;
//   - parked: nothing to send and no candidacy — the vertex parks
//     (dist.StepPark) and is woken only by deliveries, whose payload
//     types identify the iteration phase it rejoins;
//   - terminal: the paper's 2-hop termination rule fired — the vertex
//     direct-adds its remaining uncovered edges, announces a termMsg that
//     doubles as a death notice (peers prune it from folds and broadcast
//     lists), and retires. A vertex parked past the end of the run is
//     released by the engine's quiescence and finalizes the same way.
//
// The engine's Stats.ActiveSteps / Stats.ParkedSteps record the
// resulting activity profile; Options.RoundHook exposes the full
// per-round curve.
package core

import "math"

// RoundUpPow2 returns the smallest power of two strictly greater than x
// (the paper's rounded density ρ̃). Negative powers are allowed, matching
// the weighted variant where densities may be below one. RoundUpPow2 of a
// non-positive value is 0.
func RoundUpPow2(x float64) float64 {
	if x <= 0 {
		return 0
	}
	e := math.Floor(math.Log2(x))
	p := math.Ldexp(1, int(e))
	// Guard against floating error in Log2: ensure p <= x < 2p.
	for p > x {
		p /= 2
	}
	for p*2 <= x {
		p *= 2
	}
	return p * 2
}
