package service

import (
	"bytes"
	"errors"
	"fmt"
	"math"
)

// EdgeList is a submitted edge list: [u, v] pairs of vertex ids. It
// marshals as [][2]int does and decodes without reflection (see
// UnmarshalJSON); it is the largest part of an inline job's body.
type EdgeList [][2]int

var errNotEdgeList = errors.New("edges: want an array of [u, v] pairs of integers")

// UnmarshalJSON decodes a JSON array of [u, v] pairs. It accepts exactly
// the inputs that encoding/json decodes into [][]int with every element
// of length two, and yields the same pairs: null is a nil list, a null
// endpoint is 0, and an element of another length, a fraction, an
// exponent or an integer beyond the int range is an error.
func (l *EdgeList) UnmarshalJSON(b []byte) error {
	d := edgeDecoder{b: b}
	d.space()
	if d.literal("null") {
		d.space()
		if d.i != len(b) {
			return errNotEdgeList
		}
		*l = nil
		return nil
	}
	if !d.eat('[') {
		return errNotEdgeList
	}
	// A valid list opens one bracket per pair after its own and spends at
	// least six bytes on each ("[0,0],"), so the capacity is exact for
	// valid input and bounded by the body for any other.
	out := make(EdgeList, 0, min(bytes.Count(b, []byte{'['})-1, len(b)/6))
	d.space()
	if !d.eat(']') {
		for {
			e, ok := d.pair()
			if !ok {
				return fmt.Errorf("edges: element %d is not a [u, v] pair of integers", len(out))
			}
			out = append(out, e)
			d.space()
			if d.eat(']') {
				break
			}
			if !d.eat(',') {
				return errNotEdgeList
			}
			d.space()
		}
	}
	d.space()
	if d.i != len(b) {
		return errNotEdgeList
	}
	*l = out
	return nil
}

// edgeDecoder is a cursor over one edge list's JSON text.
type edgeDecoder struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (d *edgeDecoder) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// eat consumes c if it is next.
func (d *edgeDecoder) eat(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// literal consumes s if it is next.
func (d *edgeDecoder) literal(s string) bool {
	if bytes.HasPrefix(d.b[d.i:], []byte(s)) {
		d.i += len(s)
		return true
	}
	return false
}

// pair decodes one "[u, v]" element.
func (d *edgeDecoder) pair() (e [2]int, ok bool) {
	if !d.eat('[') {
		return e, false
	}
	for k := range e {
		if k > 0 && !d.eat(',') {
			return e, false
		}
		d.space()
		if e[k], ok = d.integer(); !ok {
			return e, false
		}
		d.space()
	}
	return e, d.eat(']')
}

// integer decodes one JSON integer within the int range; null decodes as 0,
// as encoding/json leaves an int untouched by null.
func (d *edgeDecoder) integer() (int, bool) {
	if d.i < len(d.b) && d.b[d.i] == 'n' {
		return 0, d.literal("null")
	}
	neg := d.eat('-')
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	start := d.i
	var u uint64
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		dig := uint64(d.b[d.i] - '0')
		if u > (limit-dig)/10 {
			return 0, false
		}
		u = u*10 + dig
		d.i++
	}
	if d.i == start || d.i < len(d.b) && (d.b[d.i] == '.' || d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		return 0, false
	}
	if neg {
		return -int(u), true
	}
	return int(u), true
}
