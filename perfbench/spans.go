package main

import (
	"sort"
	"sync"
	"time"
)

// spanLog keeps a traced run's spans in memory; they are reduced to the
// per-layer figures when the run ends. A span covers one call into a
// layer, made from the benchmark's own code; spans of one op share its
// op id, and the op's root span is the op's wall time.
type spanLog struct {
	mu      sync.Mutex
	base    time.Time
	spans   []spanRec
	samples map[string][]float64
}

type spanRec struct {
	name       string
	op         int
	parent     int   // index of the parent span; -1 for an op root
	start, end int64 // nanoseconds since base
	// replay marks a span measured beside its parent rather than inside
	// it: an exported function run again on the same input, standing in
	// for a stage the parent executes with no exported entry point. Its
	// duration counts against the parent's self time.
	replay bool
}

func newSpanLog() *spanLog {
	return &spanLog{base: time.Now(), samples: map[string][]float64{}}
}

// call records fn as one span and returns when fn does. fn receives the
// span's index, the parent for the spans it opens.
func (l *spanLog) call(name string, op, parent int, replay bool, fn func(id int)) {
	l.mu.Lock()
	id := len(l.spans)
	l.spans = append(l.spans, spanRec{name: name, op: op, parent: parent, replay: replay, start: time.Since(l.base).Nanoseconds()})
	l.mu.Unlock()
	fn(id)
	end := time.Since(l.base).Nanoseconds()
	l.mu.Lock()
	l.spans[id].end = end
	l.mu.Unlock()
}

// add records an already measured span (a duration a layer reports about
// itself, such as the pool's run time) as a replay child of parent, and
// returns its index.
func (l *spanLog) add(name string, op, parent int, dur time.Duration) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	start := l.spans[parent].start
	l.spans = append(l.spans, spanRec{name: name, op: op, parent: parent, replay: true, start: start, end: start + dur.Nanoseconds()})
	return len(l.spans) - 1
}

// find returns the index of op's latest span called name under parent, or
// -1: how the client finds the span the server side opened.
func (l *spanLog) find(op int, name string, parent int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.spans) - 1; i >= 0; i-- {
		if s := l.spans[i]; s.op == op && s.name == name && s.parent == parent {
			return i
		}
	}
	return -1
}

// sample records one count or size observed at a layer boundary.
func (l *spanLog) sample(name string, v float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.samples[name] = append(l.samples[name], v)
}

// layerTimes reduces the spans to per-name duration and self-time
// samples in milliseconds, plus each op root's wall time and remainder
// (its own self time: the harness work no layer span covers). A span's
// self time is its duration minus the part of its interval its children
// cover, minus the durations of its replay children; summed over an op,
// the self times of all its spans equal the op's wall time.
func (l *spanLog) layerTimes() (busy, self map[string][]float64, walls, remainders []float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := make([][]int, len(l.spans))
	for i, s := range l.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	busy, self = map[string][]float64{}, map[string][]float64{}
	for i, s := range l.spans {
		dur := s.end - s.start
		var ivs [][2]int64
		var replayed int64
		for _, c := range children[i] {
			cs := l.spans[c]
			if cs.replay {
				replayed += cs.end - cs.start
			} else {
				ivs = append(ivs, [2]int64{max(cs.start, s.start), min(cs.end, s.end)})
			}
		}
		own := dur - covered(ivs) - replayed
		if s.parent < 0 {
			walls = append(walls, ms(dur))
			remainders = append(remainders, ms(own))
			continue
		}
		busy[s.name] = append(busy[s.name], ms(dur))
		self[s.name] = append(self[s.name], ms(own))
	}
	return busy, self, walls, remainders
}

// covered returns the total length of the union of the intervals.
func covered(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total, curS, curE int64
	open := false
	for _, iv := range ivs {
		if iv[1] <= iv[0] {
			continue
		}
		if open && iv[0] <= curE {
			curE = max(curE, iv[1])
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = iv[0], iv[1], true
	}
	if open {
		total += curE - curS
	}
	return total
}
