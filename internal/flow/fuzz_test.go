package flow

import (
	"math"
	"slices"
	"testing"
)

// FuzzDensest checks Densest against the singleton start over the whole
// instance, which is what it returned on every instance before it peeled,
// and against brute force. Every input decodes to a valid instance
// (decodeInstance). Densest must return the singleton start's selection
// and density bit for bit, and a density within 1e-6 of the best over all
// non-empty selections.
func FuzzDensest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := decodeInstance(data)
		sel, d, err := Densest(in)
		if err != nil {
			t.Fatalf("%+v: %v", *in, err)
		}
		want, wantD, _ := singletonStart(in)
		if math.Float64bits(d) != math.Float64bits(wantD) || !slices.Equal(sel, want) {
			t.Fatalf("%+v: Densest %v %v, singleton start %v %v", *in, sel, d, want, wantD)
		}
		if best := bruteDensity(in); math.Abs(d-best) >= 1e-6 {
			t.Fatalf("%+v: Densest density %v, brute force %v", *in, d, best)
		}
	})
}

// decodeInstance reads a densest instance from data, taking zeros past
// its end. The first byte gives the item count, 1-12, and how costs are
// drawn: all 1, integers 1-16, or reals, multiples of 1/16 from 1/16 to
// 16. Each item then takes two bytes: its cost and its bonus, 0-3. Every
// further two bytes add the pair of items they name, unless both name the
// same item, up to 128 pairs; a pair may repeat.
//
// The real costs are multiples of 1/16, so every sum of costs is exact
// and two different densities differ by far more than the oracle's
// tolerance eps. Every comparison then decides as in exact arithmetic,
// where the two starts provably reach the same selection. Densities
// closer than eps are left to TestGoldbergMatchesSelectionNetwork's
// arbitrary real costs, which no proof covers.
func decodeInstance(data []byte) *DensestInstance {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	head := next()
	n := 1 + head%12
	in := &DensestInstance{NumItems: n, Cost: make([]float64, n), Bonus: make([]float64, n)}
	for u := 0; u < n; u++ {
		c := next()
		switch head / 12 % 3 {
		case 0:
			in.Cost[u] = 1
		case 1:
			in.Cost[u] = float64(1 + c%16)
		default:
			in.Cost[u] = float64(1+c) / 16
		}
		in.Bonus[u] = float64(next() % 4)
	}
	for len(data) > 0 && len(in.Pairs) < 128 {
		if a, b := next()%n, next()%n; a != b {
			in.Pairs = append(in.Pairs, [2]int{a, b})
		}
	}
	return in
}
