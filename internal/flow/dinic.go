// Package flow provides the maximum-flow machinery the paper's algorithms
// rely on: a Dinic max-flow solver and a Dinkelbach-style densest-selection
// oracle whose steps are min cuts of Goldberg's densest-subgraph network.
// The oracle answers an instance with no profit on offer without a
// network, peels every other instance down to the items a densest
// selection can hold, and starts Dinkelbach at the peeled set's density
// when that beats the best singleton. Kortsarz-Peleg's sequential greedy
// and the paper's distributed 2-spanner algorithm both compute densest
// stars "in polynomial time using flow techniques [36]"; this package is
// that substrate.
package flow

import (
	"fmt"
	"math"
)

const eps = 1e-9

type dinicEdge struct {
	to   int
	cap  float64
	flow float64
	rev  int // index of the reverse edge in adj[to]
}

// Dinic is a maximum-flow solver over a directed network with float64
// capacities. Construct with NewDinic, add edges, then call MaxFlow. The
// level, iterator and queue buffers are allocated once and reused by every
// phase of every MaxFlow call.
type Dinic struct {
	n     int
	adj   [][]dinicEdge
	arcs  []dinicEdge // backing array of adj when built by build
	level []int
	iter  []int
	queue []int
}

// NewDinic returns a flow network on n nodes.
func NewDinic(n int) *Dinic {
	if n < 0 {
		panic("flow: negative node count")
	}
	return &Dinic{
		n:     n,
		adj:   make([][]dinicEdge, n),
		level: make([]int, n),
		iter:  make([]int, n),
		queue: make([]int, 0, n),
	}
}

// netArc is one arc of a network that build lays out: u -> v of capacity
// c, with a reverse arc of capacity rc (0 for a directed edge, c for an
// undirected one).
type netArc struct {
	u, v  int
	c, rc float64
}

// build makes d the network on n nodes holding arcs, reusing d's buffers
// where they are large enough. It counts each node's arcs first, so that
// all arcs are carved from one backing array; each node's arcs keep the
// order of the list.
func (d *Dinic) build(n int, arcs []netArc) {
	d.n = n
	d.adj = resize(d.adj, n)
	d.level = resize(d.level, n)
	d.iter = resize(d.iter, n)
	// iter doubles as the arc counter: MaxFlow clears it before each phase.
	deg := d.iter
	clear(deg)
	for _, a := range arcs {
		deg[a.u]++
		deg[a.v]++
	}
	d.arcs = resize(d.arcs, 2*len(arcs))
	rest := d.arcs
	for v, k := range deg {
		d.adj[v] = rest[:0:k]
		rest = rest[k:]
	}
	for _, a := range arcs {
		d.addArc(a.u, a.v, a.c, a.rc)
	}
}

// resize returns s with length n, reallocating only when its capacity is
// short. The contents are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// AddEdge inserts a directed edge u -> v with the given capacity, together
// with its zero-capacity reverse arc.
func (d *Dinic) AddEdge(u, v int, capacity float64) {
	if u < 0 || u >= d.n || v < 0 || v >= d.n {
		panic(fmt.Sprintf("flow: edge (%d,%d) out of range [0,%d)", u, v, d.n))
	}
	d.addArc(u, v, capacity, 0)
}

// addArc inserts the arc u -> v of capacity c and its reverse arc of
// capacity rc.
func (d *Dinic) addArc(u, v int, c, rc float64) {
	checkCapacity(c)
	checkCapacity(rc)
	d.adj[u] = append(d.adj[u], dinicEdge{to: v, cap: c, rev: len(d.adj[v])})
	d.adj[v] = append(d.adj[v], dinicEdge{to: u, cap: rc, rev: len(d.adj[u]) - 1})
}

func checkCapacity(capacity float64) {
	if capacity < 0 || math.IsNaN(capacity) {
		panic("flow: invalid capacity")
	}
}

// resetFlow zeroes every arc's flow, so the network can be solved again
// after its capacities are rewritten.
func (d *Dinic) resetFlow() {
	for _, arcs := range d.adj {
		for i := range arcs {
			arcs[i].flow = 0
		}
	}
}

// MaxFlow computes the maximum s-t flow, starting from the flows already
// on the network (zero on a fresh one). Afterwards MinCutSourceSide reads
// the final residual graph.
func (d *Dinic) MaxFlow(s, t int) float64 {
	if s == t {
		panic("flow: source equals sink")
	}
	total := 0.0
	for d.bfs(s, t) {
		clear(d.iter)
		for {
			f := d.dfs(s, t, math.Inf(1))
			if f <= eps {
				break
			}
			total += f
		}
	}
	return total
}

// bfs levels every node reachable from s in the residual graph (-1 for the
// rest) and reports whether t is among them.
func (d *Dinic) bfs(s, t int) bool {
	for i := range d.level {
		d.level[i] = -1
	}
	d.level[s] = 0
	queue := append(d.queue[:0], s)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, e := range d.adj[v] {
			if e.cap-e.flow > eps && d.level[e.to] < 0 {
				d.level[e.to] = d.level[v] + 1
				queue = append(queue, e.to)
			}
		}
	}
	d.queue = queue
	return d.level[t] >= 0
}

func (d *Dinic) dfs(v, t int, f float64) float64 {
	if v == t {
		return f
	}
	for ; d.iter[v] < len(d.adj[v]); d.iter[v]++ {
		e := &d.adj[v][d.iter[v]]
		if e.cap-e.flow <= eps || d.level[v]+1 != d.level[e.to] {
			continue
		}
		got := d.dfs(e.to, t, math.Min(f, e.cap-e.flow))
		if got > eps {
			e.flow += got
			d.adj[e.to][e.rev].flow -= got
			return got
		}
	}
	return 0
}

// sourceSide reports, after MaxFlow, whether v is reachable from the
// source in the final residual graph. MaxFlow's last breadth-first search
// is the one that failed to reach the sink, so its levels mark exactly
// that set.
func (d *Dinic) sourceSide(v int) bool { return d.level[v] >= 0 }

// MinCutSourceSide returns, after MaxFlow, the set of nodes reachable from
// the source in the residual graph: the source side of a minimum cut.
func (d *Dinic) MinCutSourceSide() []bool {
	side := make([]bool, d.n)
	for v := range side {
		side[v] = d.sourceSide(v)
	}
	return side
}
