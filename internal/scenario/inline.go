package scenario

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"distspanner/internal/graph"
)

// The "inline" graph family carries an explicit, client-submitted edge
// list through the ordinary parameter plane, so any scenario that builds
// its instance via GraphSpec can run on a submitted graph instead of a
// generated one — the seam the service layer uses for inline job
// submissions. The encoding is canonical: InlineParams sorts the edge
// list (endpoints low-high, edges lexicographic) before rendering it,
// so two submissions of the same edge set in any order produce the same
// parameters, the same cell identity (Params.InstanceKey), and — since
// edge indices follow the canonical order — byte-identical results.
//
// Parameters read by the family builder:
//
//	n      vertex count (default: max endpoint + 1; set it explicitly
//	       when trailing isolated vertices matter)
//	edges  comma-separated "u-v" pairs (default "0-1,1-2", the P3 path)
//	wts    optional comma-separated weights aligned with edges
//
// Like every family builder, it panics with a *ParamError on a malformed
// value: the encoder below is the supported producer, so only a
// hand-written spec can trip these. The service layer validates
// submissions before encoding, so its inline graphs never do.
func init() {
	registerFamily(&Family{
		Name:   "inline",
		Params: "edges=0-1,1-2, n=max+1, wts=",
		Doc:    "explicit submitted edge list (canonical order; the service layer's inline graphs)",
		Build:  buildInline,
	})
}

// InlineParams encodes g in the canonical parameter form of the
// "inline" family: family/n/edges (and wts when g is weighted), with the
// edge list sorted so that submission order never reaches the instance
// identity. Build(InlineParams(g), seed) reconstructs a graph equal to g
// up to edge-index renumbering into canonical order.
func InlineParams(g *graph.Graph) Params {
	edges := g.Edges()
	idx := make([]int, len(edges))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ea, eb := edges[idx[a]], edges[idx[b]]
		if ea.U != eb.U {
			return ea.U < eb.U
		}
		return ea.V < eb.V
	})
	var sb strings.Builder
	for i, id := range idx {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d-%d", edges[id].U, edges[id].V)
	}
	p := Params{
		"family": "inline",
		"n":      strconv.Itoa(g.N()),
		"edges":  sb.String(),
	}
	if g.Weighted() {
		var wb strings.Builder
		for i, id := range idx {
			if i > 0 {
				wb.WriteByte(',')
			}
			wb.WriteString(strconv.FormatFloat(g.Weight(id), 'g', -1, 64))
		}
		p["wts"] = wb.String()
	}
	return p
}

// buildInline reconstructs the graph from the inline parameter form.
func buildInline(p Params, seed int64) *graph.Graph {
	type pair struct{ u, v int }
	var pairs []pair
	if es := p.Str("edges", "0-1,1-2"); es != "" {
		for _, e := range strings.Split(es, ",") {
			u, v, ok := strings.Cut(e, "-")
			ui, err1 := strconv.Atoi(u)
			vi, err2 := strconv.Atoi(v)
			if !ok || err1 != nil || err2 != nil || ui < 0 || vi < 0 || ui == vi {
				panic(&ParamError{Key: "edges", Value: e, Want: "a u-v pair of distinct vertices"})
			}
			pairs = append(pairs, pair{ui, vi})
		}
	}
	maxEnd := -1
	for _, e := range pairs {
		maxEnd = max(maxEnd, e.u, e.v)
	}
	nv := p.Int("n", maxEnd+1)
	if nv <= maxEnd {
		panic(&ParamError{Key: "n", Value: strconv.Itoa(nv), Want: "a vertex count above every endpoint"})
	}
	g := graph.New(nv)
	for _, e := range pairs {
		g.AddEdge(e.u, e.v)
	}
	if ws := p.Str("wts", ""); ws != "" {
		wts := strings.Split(ws, ",")
		if len(wts) != g.M() {
			panic(&ParamError{Key: "wts", Value: ws, Want: fmt.Sprintf("one weight per edge (%d)", g.M())})
		}
		for i, w := range wts {
			wv, err := strconv.ParseFloat(w, 64)
			if err != nil || wv < 0 || math.IsNaN(wv) || math.IsInf(wv, 0) {
				panic(&ParamError{Key: "wts", Value: w, Want: "a finite non-negative float"})
			}
			g.SetWeight(i, wv)
		}
	}
	return g
}
