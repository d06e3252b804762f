// Package gen is the detmap golden fixture. Its import path ends in
// /internal/gen, so the default critical-package scope applies: every map
// range here must be provably order-insensitive, annotated, or flagged.
package gen

import (
	"math/rand"
	"sort"
)

// Collect leaks map iteration order into slice order: flagged.
func Collect(m map[int]string) []string {
	var out []string
	for _, v := range m { // want `range over map map\[int\]string in determinism-critical package`
		out = append(out, v)
	}
	return out
}

// CollectSorted is the canonical collect-then-sort idiom: clean.
func CollectSorted(m map[int]string) []string {
	var out []string
	for _, v := range m {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// CollectUnsorted appends but never sorts, so the proof fails: flagged.
func CollectUnsorted(m map[int]string) []string {
	var out []string
	for _, v := range m { // want `range over map map\[int\]string`
		out = append(out, v)
	}
	return append(out, "tail")
}

// Count accumulates an integer, which commutes: clean.
func Count(m map[int]string) int {
	n := 0
	for range m {
		n++
	}
	return n
}

// CountMatching folds through a condition over loop-constant state: clean.
func CountMatching(m map[int]string, needle string) int {
	n := 0
	for _, v := range m {
		if v == needle {
			n++
		}
	}
	return n
}

// SumFloat accumulates floats, where addition order changes rounding:
// flagged even though += looks commutative.
func SumFloat(m map[int]float64) float64 {
	s := 0.0
	for _, v := range m { // want `range over map map\[int\]float64`
		s += v
	}
	return s
}

// Scale writes a distinct destination key per iteration with a pure
// right-hand side, so the writes commute: clean.
func Scale(m map[int]int) map[int]int {
	out := make(map[int]int, len(m))
	for k, v := range m {
		out[k] = v * 2
	}
	return out
}

// Renumber indexes the destination by the VALUE, not the iteration key —
// values may collide, so the last writer wins in visit order: flagged.
func Renumber(m map[int]int) map[int]int {
	out := make(map[int]int, len(m))
	for k, v := range m { // want `range over map map\[int\]int`
		out[v] = k
	}
	return out
}

// Drain only deletes, which commutes: clean.
func Drain(m map[int]int) {
	for k := range m {
		delete(m, k)
	}
}

// MaxValue's condition reads the accumulator the loop writes, so ties
// resolve in visit order: flagged.
func MaxValue(m map[int]int) int {
	best := 0
	for _, v := range m { // want `range over map map\[int\]int`
		if v > best {
			best = v
		}
	}
	return best
}

// SampleKeys draws from an RNG in the branch condition: which keys win
// a draw depends on visit order, so the fold leaks it even though each
// arm only counts: flagged.
func SampleKeys(m map[int]bool, rng *rand.Rand) int {
	n := 0
	for range m { // want `range over map map\[int\]bool`
		if rng.Float64() < 0.5 {
			n++
		}
	}
	return n
}

// AnyKey is waived with a justification: clean.
func AnyKey(m map[int]int) int {
	//spanlint:ordered the caller treats the result as an arbitrary representative, so any key is valid
	for k := range m {
		return k
	}
	return -1
}
