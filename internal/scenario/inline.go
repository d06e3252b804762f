package scenario

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"distspanner/internal/graph"
)

// The "inline" graph family carries an explicit, client-submitted edge
// list through the ordinary parameter plane, so any scenario that builds
// its instance via GraphSpec can run on a submitted graph instead of a
// generated one — the seam the service layer uses for inline job
// submissions. The encoding is canonical: the edge list is rendered in
// SortInline's order (endpoints low-high, edges lexicographic), so two
// submissions of the same edge set in any order produce the same
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
// value, which GraphSpec.Build returns as its error: the encoder below is
// the supported producer, so only a hand-written spec can trip these.
// The service layer validates submissions before encoding, so its inline
// graphs never do.
func init() {
	registerFamily(&Family{
		Name:   "inline",
		Params: "edges=0-1,1-2, n=max+1, wts=",
		Doc:    "explicit submitted edge list (canonical order; the service layer's inline graphs)",
		Build:  buildInline,
	})
}

// InlineEdge is one edge of an inline graph in canonical form: U < V,
// with its weight (1 on an unweighted graph).
type InlineEdge struct {
	U, V int
	W    float64
}

// SortInline puts edges into the canonical order of the "inline" family,
// ascending by (U, V), and returns the position of the first edge equal
// to its predecessor, or -1 when every edge is distinct. Every canonical
// encoding of an edge list, the service's graph hash included, walks the
// edges in this order.
func SortInline(edges []InlineEdge) (dup int) {
	slices.SortFunc(edges, func(a, b InlineEdge) int {
		if a.U != b.U {
			return cmp.Compare(a.U, b.U)
		}
		return cmp.Compare(a.V, b.V)
	})
	for i := 1; i < len(edges); i++ {
		if edges[i].U == edges[i-1].U && edges[i].V == edges[i-1].V {
			return i
		}
	}
	return -1
}

// InlineEdges returns g's edges with their weights in canonical order.
func InlineEdges(g *graph.Graph) []InlineEdge {
	es := make([]InlineEdge, g.M())
	for i, e := range g.Edges() {
		es[i] = InlineEdge{U: e.U, V: e.V, W: g.Weight(i)}
	}
	SortInline(es)
	return es
}

// EncodeInline renders n vertices and edges, already in canonical order
// (SortInline), in the parameter form of the "inline" family:
// family/n/edges, and wts when weighted.
func EncodeInline(n int, edges []InlineEdge, weighted bool) Params {
	ns := strconv.Itoa(n)
	// An edge "u-v," takes at most twice the digits of n plus two bytes.
	buf := make([]byte, 0, len(edges)*(2*len(ns)+2))
	for i, e := range edges {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(e.U), 10)
		buf = append(buf, '-')
		buf = strconv.AppendInt(buf, int64(e.V), 10)
	}
	p := Params{
		"family": "inline",
		"n":      ns,
		"edges":  string(buf),
	}
	if weighted {
		buf = buf[:0]
		for i, e := range edges {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendFloat(buf, e.W, 'g', -1, 64)
		}
		p["wts"] = string(buf)
	}
	return p
}

// InlineParams encodes g in the canonical parameter form of the
// "inline" family, so that submission order never reaches the instance
// identity. Build(InlineParams(g), seed) reconstructs a graph equal to g
// up to edge-index renumbering into canonical order.
func InlineParams(g *graph.Graph) Params {
	return EncodeInline(g.N(), InlineEdges(g), g.Weighted())
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
