package dist

import (
	"fmt"
	"math/rand"
	"sort"
)

// Ctx is the per-vertex surface of the engine: identity, topology access,
// a private deterministic RNG, and the send primitives (SendRec,
// BroadcastRec). Only the vertex's own machine uses its Ctx, from inside
// Step.
type Ctx struct {
	eng  *engine
	id   int
	nbrs []int      // sorted neighbor ids
	rng  *rand.Rand // lazily built on first Rand call
	seed int64      // run seed, for the lazy RNG derivation

	edgeBits []int // metering scratch, parallel to nbrs
	touched  []int // edgeBits indices written this round (metering scratch)

	// Flat-buffer out arenas (see rec.go): one header per sent record,
	// the records' runs of destination neighbor positions, their packed
	// int tails, and prevInts, the tails delivered last round, which their
	// receivers still read.
	outHdrs    []outHdr
	outTo      []int32
	outInts    []int
	prevInts   []int
	lastStaged []int // backing slice of the last staged tail (broadcast reuse)
	lastOff    int32
}

func newCtx(e *engine, id int, seed int64) *Ctx {
	// The RNG state (~5KB, seeded with hundreds of multiplications) and
	// the metering scratch are built lazily on first use: a vertex that
	// never draws randomness or sends costs O(degree) to set up, which is
	// what keeps a run's fixed cost low on huge, mostly-quiet networks.
	return &Ctx{
		eng:  e,
		id:   id,
		nbrs: e.g.Neighbors(id), // freshly allocated and sorted
		seed: seed,
	}
}

// vertexSeed decorrelates the per-vertex RNG streams from the run seed
// with a splitmix64 step, so neighboring ids do not get correlated
// randomness.
func vertexSeed(seed int64, id int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(id+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// ID returns this vertex's id in 0..N()-1.
func (c *Ctx) ID() int { return c.id }

// N returns the number of vertices in the network. Ids are globally
// known, as the paper's model assumes.
func (c *Ctx) N() int { return c.eng.n }

// Neighbors returns this vertex's neighbor ids in ascending order. The
// slice is shared; callers must not modify it.
func (c *Ctx) Neighbors() []int { return c.nbrs }

// Degree returns the number of neighbors.
func (c *Ctx) Degree() int { return len(c.nbrs) }

// Rand returns this vertex's private RNG. Its stream is a deterministic
// function of (Config.Seed, vertex id), which is what makes whole runs
// reproducible.
func (c *Ctx) Rand() *rand.Rand {
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(vertexSeed(c.seed, c.id)))
	}
	return c.rng
}

// ensureScratch lazily builds the per-edge metering scratch the first
// time this vertex sends anything.
func (c *Ctx) ensureScratch() {
	if c.edgeBits == nil {
		c.edgeBits = make([]int, len(c.nbrs))
	}
}

// nbrIndex returns to's position in the sorted neighbor list, panicking
// when to is not a neighbor.
func (c *Ctx) nbrIndex(to int) int {
	i := sort.SearchInts(c.nbrs, to)
	if i >= len(c.nbrs) || c.nbrs[i] != to {
		panic(fmt.Sprintf("dist: vertex %d cannot send to %d: not a neighbor", c.id, to))
	}
	return i
}
