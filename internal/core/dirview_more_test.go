package core

import "testing"

func TestDirViewChooseStarShrinkPath(t *testing.T) {
	// Previous star {1,2} whose density under the new H dropped below
	// rho/8: the shrink path must recompute within prev only.
	nbrs := map[int]int{1: 1, 2: 1, 3: 2}
	// H now only supports the pair {2,3} (multiplicity 2) and {1,2} once.
	dv := newDirView(nbrs, [][2]int{{2, 3}, {3, 2}, {1, 2}})
	prev := dv.maskFromIDs([]int{1, 2})
	// rho chosen so prev (density (1)/(2) = 0.5) stays acceptable at
	// threshold rho/8 when rho = 4: 0.5 >= 0.5: kept.
	sel, fb := dv.chooseStar(4, prev)
	if fb {
		t.Fatal("unexpected fallback")
	}
	if sel[dv.uv.position(3)] {
		t.Fatal("shrink path escaped the previous star")
	}
	// With a much higher rho the previous star fails and the fallback
	// (fresh choice) fires — the directed analogue's guard path.
	_, fb2 := dv.chooseStar(64, prev)
	if !fb2 {
		t.Fatal("expected fallback when prev contains no dense-enough star")
	}
}

func TestDirViewMaskFromIDs(t *testing.T) {
	dv := newDirView(map[int]int{5: 1, 9: 2}, nil)
	mask := dv.maskFromIDs([]int{9})
	if mask[dv.uv.position(5)] || !mask[dv.uv.position(9)] {
		t.Fatal("maskFromIDs wrong")
	}
}
