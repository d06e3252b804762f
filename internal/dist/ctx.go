package dist

import (
	"fmt"
	"math/rand"
	"sort"
)

// Ctx is the per-vertex surface of the engine: identity, topology access,
// draws from a private deterministic random stream (Int63n, Intn), and
// the send primitives (SendRec, BroadcastRec). Only the vertex's own
// machine uses its Ctx, from inside Step. A Ctx holds only the vertex's
// own state (neighbors, stream position, out arenas): the scratch that
// meters its sends belongs to the engine's metering parts, and the source
// its draws come from to the engine's steppers.
type Ctx struct {
	eng  *engine
	id   int
	nbrs []int // sorted neighbor ids

	// rs is the stepper's pooled source while this vertex's machine
	// steps, nil otherwise; steps counts the source steps the vertex's
	// stream has consumed, which is all a vertex keeps of it.
	rs    *stepRand
	steps uint64

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

func newCtx(e *engine, id int) *Ctx {
	// With no metering scratch and no random source of its own (see Ctx),
	// a vertex costs O(degree) to set up, which is what keeps a run's
	// fixed cost low on huge, mostly-quiet networks.
	return &Ctx{
		eng:  e,
		id:   id,
		nbrs: e.g.Neighbors(id), // freshly allocated and sorted
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

// Int63n returns, as rand.Rand.Int63n does, the next draw in [0, n) of
// this vertex's private random stream: the stream of
// rand.New(rand.NewSource(s)) for a seed s derived from (Config.Seed,
// vertex id), which is what makes whole runs reproducible. It panics
// outside the vertex's Step.
func (c *Ctx) Int63n(n int64) int64 {
	r := c.stream()
	v := r.Int63n(n)
	c.steps = c.rs.steps
	return v
}

// Intn returns, as rand.Rand.Intn does, the next draw in [0, n) of this
// vertex's random stream (see Int63n).
func (c *Ctx) Intn(n int) int {
	r := c.stream()
	v := r.Intn(n)
	c.steps = c.rs.steps
	return v
}

// stream positions the stepper's pooled source at this vertex's stream.
func (c *Ctx) stream() *rand.Rand {
	if c.rs == nil {
		panic(fmt.Sprintf("dist: vertex %d drew randomness outside its step", c.id))
	}
	return c.rs.at(c)
}

// stepRand is one stepper's pooled random source. A vertex's stream is
// the one math/rand source seeded with vertexSeed would produce, and
// the vertex keeps only how many source steps it has consumed: a draw
// re-seeds the pooled source for the drawing vertex and advances it past
// those steps, unless the source is already positioned there. Steps are
// counted at the source (stepRand is the rand.Rand's Source64), because
// Intn with a bound that is not a power of two rejection-samples. The
// source is built on the stepper's first draw.
type stepRand struct {
	src   rand.Source64
	r     *rand.Rand // draws through this stepRand
	owner *Ctx       // the vertex whose stream src is positioned in
	steps uint64     // src's steps since it was seeded for owner
}

// at positions the source at c's stream and returns the rand.Rand that
// draws from it.
func (s *stepRand) at(c *Ctx) *rand.Rand {
	if s.owner == c && s.steps == c.steps {
		return s.r
	}
	seed := vertexSeed(c.eng.seed, c.id)
	if s.src == nil {
		s.src = rand.NewSource(seed).(rand.Source64)
		s.r = rand.New(s)
	} else {
		s.src.Seed(seed)
	}
	s.owner = c
	for s.steps = 0; s.steps < c.steps; s.steps++ {
		s.src.Uint64()
	}
	return s.r
}

// Int63 implements rand.Source, counting the step.
func (s *stepRand) Int63() int64 {
	s.steps++
	return s.src.Int63()
}

// Uint64 implements rand.Source64, counting the step.
func (s *stepRand) Uint64() uint64 {
	s.steps++
	return s.src.Uint64()
}

// Seed implements rand.Source. Nothing calls it: at seeds the wrapped
// source.
func (s *stepRand) Seed(int64) { panic("dist: a vertex stream is not re-seeded") }

// nbrIndex returns to's position in the sorted neighbor list, panicking
// when to is not a neighbor.
func (c *Ctx) nbrIndex(to int) int {
	i := sort.SearchInts(c.nbrs, to)
	if i >= len(c.nbrs) || c.nbrs[i] != to {
		panic(fmt.Sprintf("dist: vertex %d cannot send to %d: not a neighbor", c.id, to))
	}
	return i
}
