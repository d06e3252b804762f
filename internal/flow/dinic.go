// Package flow provides the maximum-flow machinery the paper's algorithms
// rely on: a Dinic max-flow solver and a Dinkelbach-style densest-selection
// oracle. Kortsarz-Peleg's sequential greedy and the paper's distributed
// 2-spanner algorithm both compute densest stars "in polynomial time using
// flow techniques [36]"; this package is that substrate.
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

// buildDinic returns the flow network on n nodes holding the edges emit
// adds. emit runs twice: first to count each node's arcs, so that all arcs
// are carved from one backing array, then to add the edges through
// AddEdge. Each node's arcs therefore keep their insertion order.
func buildDinic(n int, emit func(add func(u, v int, capacity float64))) *Dinic {
	deg := make([]int, n)
	total := 0
	emit(func(u, v int, _ float64) {
		deg[u]++
		deg[v]++
		total += 2
	})
	d := NewDinic(n)
	arcs := make([]dinicEdge, total)
	for v, k := range deg {
		d.adj[v] = arcs[:0:k]
		arcs = arcs[k:]
	}
	emit(d.AddEdge)
	return d
}

// AddEdge inserts a directed edge u -> v with the given capacity, together
// with its zero-capacity reverse arc.
func (d *Dinic) AddEdge(u, v int, capacity float64) {
	if u < 0 || u >= d.n || v < 0 || v >= d.n {
		panic(fmt.Sprintf("flow: edge (%d,%d) out of range [0,%d)", u, v, d.n))
	}
	checkCapacity(capacity)
	d.adj[u] = append(d.adj[u], dinicEdge{to: v, cap: capacity, rev: len(d.adj[v])})
	d.adj[v] = append(d.adj[v], dinicEdge{to: u, cap: 0, rev: len(d.adj[u]) - 1})
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
