package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Params is one cell of a parameter space: named string values with typed
// accessors. String values keep grids uniform — numeric axes ("n=64,128"),
// categorical axes ("family=clique,sbm"), and mode switches all parse the
// same way — while the accessors give scenarios typed views with defaults.
type Params map[string]string

// ParamError is a parameter value that a scenario or graph family cannot
// use: malformed for the type its reader asked for, or naming nothing
// registered. The caller's input is at fault, not the run. The typed
// accessors panic with it, because scenarios read parameters wherever
// they need them; GraphSpec.Build and sweep.Single recover it and return
// it as their error, so callers can tell it apart from a failed run with
// errors.As.
type ParamError struct {
	Key   string // parameter name
	Value string // the offending value
	Want  string // what the reader expected, e.g. "an int"
}

func (e *ParamError) Error() string {
	return fmt.Sprintf("scenario: param %s=%q is not %s", e.Key, e.Value, e.Want)
}

// Int returns the parameter k as an int, or def when absent. A present
// but malformed value panics with a *ParamError.
func (p Params) Int(k string, def int) int {
	s, ok := p[k]
	if !ok {
		return def
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		panic(&ParamError{Key: k, Value: s, Want: "an int"})
	}
	return v
}

// Float returns the parameter k as a float64, or def when absent. A
// present but malformed value panics with a *ParamError.
func (p Params) Float(k string, def float64) float64 {
	s, ok := p[k]
	if !ok {
		return def
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		panic(&ParamError{Key: k, Value: s, Want: "a float"})
	}
	return v
}

// Str returns the parameter k, or def when absent.
func (p Params) Str(k, def string) string {
	if s, ok := p[k]; ok {
		return s
	}
	return def
}

// Bool returns the parameter k as a bool ("1"/"true" vs "0"/"false"), or
// def when absent. A present but malformed value panics with a
// *ParamError.
func (p Params) Bool(k string, def bool) bool {
	s, ok := p[k]
	if !ok {
		return def
	}
	v, err := strconv.ParseBool(s)
	if err != nil {
		panic(&ParamError{Key: k, Value: s, Want: "a bool"})
	}
	return v
}

// Merge returns a new Params with over's entries layered on top of p.
// Either may be nil.
func (p Params) Merge(over Params) Params {
	out := make(Params, len(p)+len(over))
	for k, v := range p {
		out[k] = v
	}
	for k, v := range over {
		out[k] = v
	}
	return out
}

// Keys returns the parameter names in sorted order.
func (p Params) Keys() []string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Key returns the canonical "k1=v1 k2=v2 ..." form (sorted by name). It is
// the cell's identity: sweep seed derivation and result labeling both hash
// or print it, so two cells with equal parameters are the same cell no
// matter how they were constructed.
func (p Params) Key() string {
	parts := make([]string, 0, len(p))
	for _, k := range p.Keys() {
		parts = append(parts, k+"="+p[k])
	}
	return strings.Join(parts, " ")
}

// execOnlyParams name the parameters that select how a run executes
// rather than what instance it runs on. They are excluded from
// InstanceKey so that cells differing only in execution knobs draw the
// same derived seeds. "transport" (local in-process engine vs the
// sharded runner over an in-process channel cluster) is the delivery
// layer: results are transport-independent by the conformance
// contract, which is what makes a transport={local,chan4} sweep axis a
// pure wall-clock comparison over identical instances. "timing" (record
// the wall-clock timing channel and surface it as metrics) is pure
// observation: it must not change which instance a cell runs. "obs" (a
// live run-observer token, see RegisterObserver) only attaches a
// progress listener — the service layer streams per-round activity
// through it without perturbing the job's cache identity.
var execOnlyParams = map[string]bool{"timing": true, "transport": true, "obs": true}

// InstanceParams returns a copy of p without the execution-only
// parameters: the parameter view that identifies the instance. It is
// what the service layer fingerprints for cache keys and echoes in
// result documents, so two requests differing only in execution knobs
// read back the same document.
func (p Params) InstanceParams() Params {
	out := make(Params, len(p))
	for k, v := range p {
		if !execOnlyParams[k] {
			out[k] = v
		}
	}
	return out
}

// InstanceKey is Key with execution-only parameters removed: the
// identity of the probabilistic instance, used by sweep seed derivation.
func (p Params) InstanceKey() string {
	parts := make([]string, 0, len(p))
	for _, k := range p.Keys() {
		if execOnlyParams[k] {
			continue
		}
		parts = append(parts, k+"="+p[k])
	}
	return strings.Join(parts, " ")
}

// Metrics is a scenario run's measured output: named scalar observations
// (rounds, bits, sizes, ratios, 0/1 verification flags, ...). The sweep
// layer aggregates each metric independently across replicates.
type Metrics map[string]float64

// Names returns the metric names in sorted order — the canonical column
// order of every machine-readable output.
func (m Metrics) Names() []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// MarshalJSON serializes metrics with sorted keys and non-finite values
// (ln(0), 0/0 ratios on degenerate instances) as null — JSON has no
// Inf/NaN literal, and one degenerate metric must not make a whole
// report unserializable.
func (m Metrics) MarshalJSON() ([]byte, error) {
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range m.Names() {
		if i > 0 {
			b.WriteByte(',')
		}
		kb, err := json.Marshal(k)
		if err != nil {
			return nil, err
		}
		b.Write(kb)
		b.WriteByte(':')
		if v := m[k]; math.IsNaN(v) || math.IsInf(v, 0) {
			b.WriteString("null")
		} else {
			vb, err := json.Marshal(v)
			if err != nil {
				return nil, err
			}
			b.Write(vb)
		}
	}
	b.WriteByte('}')
	return []byte(b.String()), nil
}

// Grid is a parameter grid: each key maps to the axis of values it sweeps
// over. Cells() expands the cartesian product.
type Grid map[string][]string

// ParseGrid parses the CLI grid syntax "n=64,128;p=0.1,0.2" — semicolon-
// separated axes, comma-separated values.
func ParseGrid(s string) (Grid, error) {
	g := Grid{}
	if strings.TrimSpace(s) == "" {
		return g, nil
	}
	for _, axis := range strings.Split(s, ";") {
		axis = strings.TrimSpace(axis)
		if axis == "" {
			continue
		}
		eq := strings.IndexByte(axis, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("scenario: grid axis %q is not name=v1,v2,...", axis)
		}
		name := strings.TrimSpace(axis[:eq])
		if _, dup := g[name]; dup {
			return nil, fmt.Errorf("scenario: grid axis %q repeated", name)
		}
		var vals []string
		for _, v := range strings.Split(axis[eq+1:], ",") {
			v = strings.TrimSpace(v)
			if v == "" {
				return nil, fmt.Errorf("scenario: grid axis %q has an empty value", name)
			}
			vals = append(vals, v)
		}
		if len(vals) == 0 {
			return nil, fmt.Errorf("scenario: grid axis %q has no values", name)
		}
		g[name] = vals
	}
	return g, nil
}

// ParseCell parses command-line "key=value" arguments into one cell,
// with the grid syntax (strings.Join(args, ";")). A key given more than
// one value is an error: a cell is one point, and cmd/sweep runs grids.
// So is a key that starts with "-": a flag placed after the arguments,
// where Go's flag parser no longer sees it.
func ParseCell(args []string) (Params, error) {
	g, err := ParseGrid(strings.Join(args, ";"))
	if err != nil {
		return nil, err
	}
	cell := Params{}
	for k, vs := range g {
		cell[k] = vs[0]
	}
	for _, k := range cell.Keys() {
		if strings.HasPrefix(k, "-") {
			return nil, fmt.Errorf("scenario: %s is a flag after the key=value arguments; flags go first", k)
		}
		if len(g[k]) > 1 {
			return nil, fmt.Errorf("scenario: %s=%s has %d values; a run takes one (cmd/sweep runs grids)", k, strings.Join(g[k], ","), len(g[k]))
		}
	}
	return cell, nil
}

// Cells expands the grid into the cartesian product of its axes, in
// deterministic order: axes sorted by name, the last axis varying fastest.
// An empty grid yields a single empty cell.
func (g Grid) Cells() []Params {
	axes := make([]string, 0, len(g))
	for k := range g {
		axes = append(axes, k)
	}
	sort.Strings(axes)
	cells := []Params{{}}
	for _, axis := range axes {
		next := make([]Params, 0, len(cells)*len(g[axis]))
		for _, cell := range cells {
			for _, v := range g[axis] {
				c := cell.Merge(Params{axis: v})
				next = append(next, c)
			}
		}
		cells = next
	}
	return cells
}
