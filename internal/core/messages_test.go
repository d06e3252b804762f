package core

import (
	"testing"

	"distspanner/internal/dist"
)

// TestPayloadBitsConformance audits every payload schema in this package
// against its struct fields via dist.AuditPayloadFields: each field is
// charged its accounting minimum (per element for lists), and a field
// added to any struct without an entry here — or without Bits() covering
// it — fails the test. This is the regression guard for the densMsg
// undercount (it billed 3 words for 5 transmitted fields) and the
// uncovMsg full-flag bit.
func TestPayloadBitsConformance(t *testing.T) {
	for _, n := range []int{2, 64, 1 << 14} {
		w := dist.IDBits(n)
		cases := []struct {
			name      string
			p         interface{ Bits() int }
			accounted map[string]int
		}{
			{"spanListMsg", spanListMsg{nbrs: []int{1, 2, 3}, n: n},
				map[string]int{"nbrs": w, "n": 0}},
			{"uncovMsg", uncovMsg{nbrs: []int{1, 2}, full: true, n: n},
				map[string]int{"nbrs": w, "full": 1, "n": 0}},
			{"densMsg", densMsg{rho: 2, raw: 1.5, wmax: 3, num: 3, den: 2},
				map[string]int{"rho": 64, "raw": 64, "wmax": 64, "num": 64, "den": 64}},
			{"maxMsg", maxMsg{rho: 2, raw: 1.5, wmax: 3, num: 3, den: 2},
				map[string]int{"rho": 64, "raw": 64, "wmax": 64, "num": 64, "den": 64}},
			{"starMsg", starMsg{star: []int{0, 1}, r: 99, n: n},
				map[string]int{"star": w, "r": 4 * w, "n": 0}},
			{"termMsg", termMsg{added: []int{5}, n: n},
				map[string]int{"added": w, "n": 0}},
			{"voteMsg", voteMsg{pairs: []int{1, 2, 3, 4}, n: n},
				map[string]int{"pairs": w, "n": 0}},
			{"acceptMsg", acceptMsg{star: []int{7}, n: n},
				map[string]int{"star": w, "n": 0}},
			{"dirStarMsg", dirStarMsg{entries: []int{1<<2 | dirIn}, r: 3, n: n},
				map[string]int{"entries": w + 2, "r": 4 * w, "n": 0}},
			{"dirTermMsg", dirTermMsg{pairs: []int{1, 2}, n: n},
				map[string]int{"pairs": w, "n": 0}},
		}
		for _, tc := range cases {
			if err := dist.AuditPayloadFields(tc.p, tc.p.Bits(), tc.accounted); err != nil {
				t.Errorf("n=%d %s: %v", n, tc.name, err)
			}
		}
	}
}

// TestDensMsgBillsAllFiveFields pins the corrected densMsg/maxMsg size:
// the payload carries three floats and the exact num/den rational the
// CONGEST adapter ships, so 3 words is an undercount and 5×64 is the
// honest LOCAL accounting.
func TestDensMsgBillsAllFiveFields(t *testing.T) {
	if got := (densMsg{}).Bits(); got != 5*64 {
		t.Fatalf("densMsg.Bits() = %d, want %d (rho, raw, wmax, num, den)", got, 5*64)
	}
	if got := (maxMsg{}).Bits(); got != 5*64 {
		t.Fatalf("maxMsg.Bits() = %d, want %d", got, 5*64)
	}
}
