package core

import "sort"

// dirView is the directed analogue of localView (Section 4.3.1). The
// densest directed star is approximated by the undirected reduction of
// Claims 4.10/4.11: ignore directions of the 2-spannable uncovered edges,
// compute the densest undirected star with unit costs, then convert back by
// taking every existing directed edge between the center and the selected
// neighbors. Densities used for thresholds are the true directed densities
// of the converted stars, and the Section 4.1 extension rule runs with
// threshold ρ/8 instead of ρ/4 (the paper's adjustment for working with a
// 2-approximation).
type dirView struct {
	uv     *localView
	dirCnt []float64      // directed star edges (1 or 2) per position
	mult   map[[2]int]int // directed multiplicity per unordered position pair
}

// newDirView builds the view. nbrs maps neighbor id to the number of
// directed edges between the center and that neighbor (1 or 2). hDir lists
// the uncovered 2-spannable directed edges (u, w) between neighbors.
func newDirView(nbrs map[int]int, hDir [][2]int) *dirView {
	ids := make([]int, 0, len(nbrs))
	for id := range nbrs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	// Collapse directed edges to unordered pairs with multiplicities.
	multByIDs := make(map[[2]int]int)
	for _, e := range hDir {
		a, b := e[0], e[1]
		if a > b {
			a, b = b, a
		}
		multByIDs[[2]int{a, b}]++
	}
	pairs := make([][2]int, 0, len(multByIDs))
	for p := range multByIDs {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	// Every star edge costs 1; each pair {a, b} is listed, in order, as
	// an uncovered edge of its lower endpoint a.
	upper := make([][]int, len(ids))
	for _, p := range pairs {
		i := posOf(ids, p[0])
		upper[i] = append(upper[i], p[1])
	}
	uv := newLocalView(ids, func(int) float64 { return 1 }, upper)
	dv := &dirView{uv: uv, dirCnt: make([]float64, len(uv.nbrs)), mult: make(map[[2]int]int, len(pairs))}
	for p, id := range uv.nbrs {
		dv.dirCnt[p] = float64(nbrs[id])
	}
	for _, p := range pairs {
		dv.mult[[2]int{uv.position(p[0]), uv.position(p[1])}] = multByIDs[p]
	}
	return dv
}

// dirValue returns the directed 2-spanned count and directed star size of
// the selection.
func (dv *dirView) dirValue(sel []bool) (spanned, size float64) {
	for p, in := range sel {
		if !in {
			continue
		}
		size += dv.dirCnt[p]
		for _, q := range dv.uv.hAdj[p] {
			if q > p && sel[q] {
				spanned += float64(dv.mult[[2]int{p, q}])
			}
		}
	}
	return spanned, size
}

// dirDensity is the true directed density ρ_D of the selection.
func (dv *dirView) dirDensity(sel []bool) float64 {
	s, c := dv.dirValue(sel)
	if c <= 0 {
		return 0
	}
	return s / c
}

// approxDensest returns the undirected-densest star and its directed
// density, a 2-approximation of the densest directed star (Claim 4.10).
func (dv *dirView) approxDensest(allowed []bool) ([]bool, float64) {
	sel, _ := dv.uv.densestStar(allowed)
	if sel == nil {
		return nil, 0
	}
	return sel, dv.dirDensity(sel)
}

// chooseStar mirrors localView.chooseStar with directed densities and the
// ρ/8 threshold.
func (dv *dirView) chooseStar(rho float64, prev []bool) (sel []bool, fallback bool) {
	threshold := rho / 8
	if prev != nil {
		if dv.dirDensity(prev) >= threshold {
			return copyMask(prev), false
		}
		base, d := dv.approxDensest(prev)
		if base != nil && d >= threshold {
			dv.extend(base, threshold, prev)
			return base, false
		}
		sel, _ := dv.fresh(threshold)
		return sel, true
	}
	sel, _ = dv.fresh(threshold)
	return sel, false
}

func (dv *dirView) fresh(threshold float64) ([]bool, float64) {
	sel, d := dv.approxDensest(nil)
	if sel == nil {
		return make([]bool, len(dv.uv.nbrs)), 0
	}
	dv.extend(sel, threshold, nil)
	return sel, d
}

// extend mirrors localView.extend under directed densities.
func (dv *dirView) extend(sel []bool, threshold float64, within []bool) {
	spanned, size := dv.dirValue(sel)
	for {
		progressed := false
		for p := range dv.uv.nbrs {
			if sel[p] || (within != nil && !within[p]) {
				continue
			}
			gain := 0.0
			for _, q := range dv.uv.hAdj[p] {
				if sel[q] {
					a, b := p, q
					if a > b {
						a, b = b, a
					}
					gain += float64(dv.mult[[2]int{a, b}])
				}
			}
			if (spanned+gain)/(size+dv.dirCnt[p]) >= threshold {
				sel[p] = true
				spanned += gain
				size += dv.dirCnt[p]
				progressed = true
			}
		}
		if progressed {
			continue
		}
		allowed := make([]bool, len(dv.uv.nbrs))
		any := false
		for p := range dv.uv.nbrs {
			if !sel[p] && (within == nil || within[p]) {
				allowed[p] = true
				any = true
			}
		}
		if !any {
			return
		}
		disj, d := dv.approxDensest(allowed)
		if disj == nil || d < threshold {
			return
		}
		for p, in := range disj {
			if in {
				sel[p] = true
			}
		}
		spanned, size = dv.dirValue(sel)
	}
}

// starNeighborIDs converts a selection to sorted neighbor ids.
func (dv *dirView) starNeighborIDs(sel []bool) []int {
	var out []int
	for p, in := range sel {
		if in {
			out = append(out, dv.uv.nbrs[p])
		}
	}
	sort.Ints(out)
	return out
}

// maskFromIDs converts neighbor ids back to a selection mask.
func (dv *dirView) maskFromIDs(ids []int) []bool {
	return dv.uv.maskFromIDs(ids)
}
