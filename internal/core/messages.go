package core

import "distspanner/internal/dist"

// Message schema for the 7-round-per-iteration LOCAL protocol, both
// undirected and directed. Every message travels on the engine's
// flat-buffer record path (dist.Rec): each struct below defines one wire
// record — its tag, its field layout, and its metered size — and its
// rec() builder maps the fields onto the flat record. Sizes follow
// CONGEST accounting (IDBits-sized words for ids, 64 bits for scalar
// fields), which is what makes the O(Δ)-word messages of this LOCAL
// algorithm measurably non-CONGEST (Section 1.3 discusses exactly this
// overhead). Bits must account every transmitted field; the reflection
// conformance test in messages_test.go fails when a field is added
// without updating the accounting.
//
// State announcements are deltas: receivers accumulate them into
// persistent per-neighbor state, so a vertex whose state did not change
// sends nothing and a parked vertex receives nothing. Each phase has a
// distinct record tag — that is how a vertex woken from parking re-identifies
// the current phase (see classify).
//
// A directed run (Theorem 4.9) sends the same density, maximum and vote
// records. Its span and uncovered-list records have the undirected
// layout under their own tags, tagDirSpan and tagDirUncov; their entries
// name out-neighbors, the heads of the sender's arcs. Its star,
// acceptance and termination records are dirStarMsg and dirTermMsg.

// Record tags. Tags within one protocol's phases are disjoint; the tag is
// the type information a record carries.
const (
	tagSpan uint8 = iota + 1
	tagUncov
	tagDens
	tagMax
	tagStar
	tagTerm
	tagVote
	tagAccept
	tagDirSpan
	tagDirUncov
	tagDirStar
	tagDirTerm
	tagChunk // CONGEST fragment (congest.go)
)

// spanListMsg announces the sender's newly added incident spanner edges,
// named by the far endpoint. Phase G'; sent only when the sender's
// spanner membership grew since its last announcement. rec takes the
// run's tag: tagSpan, or tagDirSpan for out-arcs.
type spanListMsg struct {
	nbrs []int
	n    int
}

func (m spanListMsg) Bits() int              { return (1 + len(m.nbrs)) * dist.IDBits(m.n) }
func (m spanListMsg) rec(tag uint8) dist.Rec { return dist.Rec{Tag: tag, Ints: m.nbrs} }

// uncovMsg announces the sender's incident uncovered target edges, named
// by the far endpoint: the full list once at start-up (full=true), then
// only removals as edges become covered. Phase A. The full/removal
// distinction is one transmitted bit. rec takes the run's tag: tagUncov,
// or tagDirUncov for out-arcs.
type uncovMsg struct {
	nbrs []int
	full bool
	n    int
}

//spanlint:bits full — the trailing +1 is the one-bit full/removal flag
func (m uncovMsg) Bits() int { return (1+len(m.nbrs))*dist.IDBits(m.n) + 1 }
func (m uncovMsg) rec(tag uint8) dist.Rec {
	r := dist.Rec{Tag: tag, Ints: m.nbrs}
	if m.full {
		r.Flag = 1
	}
	return r
}

// densMsg announces the sender's rounded density, raw density, and the
// maximum weight among its incident edges (used by the weighted variant's
// termination rule). Phase B; sent when the density changed (and by
// everyone in iteration 0, seeding the accumulated state). In the
// unweighted algorithm the raw density is the exact rational num/den
// (2-spanned count over star size), which rides along as two more words —
// it is what the CONGEST adapter ships, and receivers fold it, so it is
// transmitted payload and is accounted: five 64-bit fields.
type densMsg struct {
	rho, raw, wmax float64
	num, den       int
}

//spanlint:bits rho raw wmax num den — five fixed 64-bit scalar words, billed by the constant 5*64
func (densMsg) Bits() int { return 5 * 64 }
func (m densMsg) rec() dist.Rec {
	return dist.Rec{Tag: tagDens, A: int64(m.num), B: int64(m.den), F0: m.rho, F1: m.raw, F2: m.wmax}
}

// maxMsg announces 1-hop maxima of the densMsg fields, so that receivers
// learn 2-hop maxima. Phase C; sent when the maxima changed (and by
// everyone in iteration 0). num/den carry the maximizing rational and are
// accounted like densMsg's.
type maxMsg struct {
	rho, raw, wmax float64
	num, den       int
}

//spanlint:bits rho raw wmax num den — five fixed 64-bit scalar words, billed by the constant 5*64
func (maxMsg) Bits() int { return 5 * 64 }
func (m maxMsg) rec() dist.Rec {
	return dist.Rec{Tag: tagMax, A: int64(m.num), B: int64(m.den), F0: m.rho, F1: m.raw, F2: m.wmax}
}

// starMsg announces a candidate's chosen star (neighbor ids) and its random
// rank r ∈ {1, …, n⁴}. Phase D.
type starMsg struct {
	star []int
	r    int64
	n    int
}

//spanlint:bits r — the 4*IDBits(n) term is the rank r ∈ {1..n⁴}, four id-sized words
func (m starMsg) Bits() int     { return (1+len(m.star))*dist.IDBits(m.n) + 4*dist.IDBits(m.n) }
func (m starMsg) rec() dist.Rec { return dist.Rec{Tag: tagStar, A: m.r, Ints: m.star} }

// termMsg announces that the sender terminates and directly adds the listed
// incident edges (by far endpoint) to the spanner. Phase D. It doubles as
// the death notice: receivers drop the sender from every accumulated fold
// and prune it from their broadcast lists.
type termMsg struct {
	added []int
	n     int
}

func (m termMsg) Bits() int     { return (1 + len(m.added)) * dist.IDBits(m.n) }
func (m termMsg) rec() dist.Rec { return dist.Rec{Tag: tagTerm, Ints: m.added} }

// voteMsg carries the votes of the sender's owned uncovered edges for the
// receiving candidate, as flattened (owner, far endpoint) id pairs.
// Phase E.
type voteMsg struct {
	pairs []int // flattened edge pairs; always even length
	n     int
}

func (m voteMsg) Bits() int     { return (1 + len(m.pairs)) * dist.IDBits(m.n) }
func (m voteMsg) rec() dist.Rec { return dist.Rec{Tag: tagVote, Ints: m.pairs} }

// acceptMsg announces that the sender's star was accepted into the spanner.
// Phase F.
type acceptMsg struct {
	star []int
	n    int
}

func (m acceptMsg) Bits() int     { return (1 + len(m.star)) * dist.IDBits(m.n) }
func (m acceptMsg) rec() dist.Rec { return dist.Rec{Tag: tagAccept, Ints: m.star} }

// Direction bits of a packed directed-star entry nbr<<2 | bits: dirIn
// means (nbr -> candidate) is in the star, dirOut (candidate -> nbr).
const (
	dirOut = 1
	dirIn  = 2
)

// dirStarMsg announces a candidate's directed star (packed entries, in
// ascending neighbor order) and random rank (phase D; r >= 1), or — with
// r == -1 — that the star was accepted into the spanner (phase F). Each
// entry is an id plus two direction bits.
type dirStarMsg struct {
	entries []int // packed ids: nbr<<2 | in<<1 | out
	r       int64
	n       int
}

//spanlint:bits r — the 4*IDBits(n) term is the rank r ∈ {1..n⁴}, four id-sized words
func (m dirStarMsg) Bits() int {
	return (1+len(m.entries))*(dist.IDBits(m.n)+2) + 4*dist.IDBits(m.n)
}
func (m dirStarMsg) rec() dist.Rec { return dist.Rec{Tag: tagDirStar, A: m.r, Ints: m.entries} }

// dirTermMsg announces termination: the sender adds the listed uncovered
// incident directed edges (flattened (tail, head) pairs) to the spanner.
// It doubles as the death notice pruning the sender from its peers' folds
// and broadcasts.
type dirTermMsg struct {
	pairs []int // flattened (tail, head) pairs; always even length
	n     int
}

func (m dirTermMsg) Bits() int     { return (1 + len(m.pairs)) * dist.IDBits(m.n) }
func (m dirTermMsg) rec() dist.Rec { return dist.Rec{Tag: tagDirTerm, Ints: m.pairs} }
