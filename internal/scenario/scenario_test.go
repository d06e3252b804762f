package scenario

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestParamsAccessors(t *testing.T) {
	p := Params{"n": "64", "p": "0.25", "name": "x", "flag": "true"}
	if p.Int("n", 1) != 64 || p.Int("missing", 7) != 7 {
		t.Fatal("Int")
	}
	if p.Float("p", 0) != 0.25 || p.Float("missing", 1.5) != 1.5 {
		t.Fatal("Float")
	}
	if p.Str("name", "") != "x" || p.Str("missing", "d") != "d" {
		t.Fatal("Str")
	}
	if !p.Bool("flag", false) || p.Bool("missing", true) != true {
		t.Fatal("Bool")
	}
}

// Every malformed value a graph source reads is a *ParamError naming the
// key: the typed accessors and the inline builder panic with it, and
// Build and BuildDigraph return it, with no graph.
func TestMalformedParamsRaiseParamError(t *testing.T) {
	for _, c := range []struct {
		p   Params
		key string
	}{
		{Params{"n": "abc"}, "n"},
		{Params{"p": "0.x"}, "p"},
		{Params{"whi": "heavy"}, "whi"},
		{Params{"whi": "inf"}, "whi"},
		{Params{"whi": "nan"}, "whi"},
		{Params{"whi": "-2"}, "whi"},
		{Params{"wlo": "-1", "whi": "4"}, "wlo"},
		{Params{"wlo": "8", "whi": "2"}, "wlo"},
		{Params{"wlo": "nan", "whi": "4"}, "wlo"},
		{Params{"wlo": "inf", "whi": "4"}, "wlo"},
		{Params{"whi": "0.5"}, "wlo"},
		{Params{"family": "no-such"}, "family"},
		{Params{"family": "inline", "edges": "0-1,2"}, "edges"},
		{Params{"family": "inline", "edges": "1-1"}, "edges"},
		{Params{"family": "inline", "edges": "0-1,1-0", "wts": "1,2"}, "wts"},
		{Params{"family": "inline", "n": "1", "edges": "0-1"}, "n"},
		{Params{"family": "inline", "edges": "0-1", "wts": "1,2"}, "wts"},
		{Params{"family": "inline", "edges": "0-1", "wts": "-1"}, "wts"},
	} {
		g, err := GraphSpec{}.Build(c.p, 1)
		var perr *ParamError
		if !errors.As(err, &perr) || perr.Key != c.key || g != nil {
			t.Errorf("%v: Build = %v, %v (%T), want a *ParamError for key %s", c.p, g, err, err, c.key)
		}
	}
	for _, c := range []struct {
		p   Params
		key string
	}{
		{Params{"family": "rdg", "n": "abc"}, "n"},
		{Params{"family": "cgnp", "twoway": "half"}, "twoway"},
		{Params{"family": "no-such"}, "family"},
	} {
		d, err := GraphSpec{}.BuildDigraph(c.p, 1)
		var perr *ParamError
		if !errors.As(err, &perr) || perr.Key != c.key || d != nil {
			t.Errorf("%v: BuildDigraph = %v, %v (%T), want a *ParamError for key %s", c.p, d, err, err, c.key)
		}
	}
	func() {
		defer func() {
			if perr, ok := recover().(*ParamError); !ok || perr.Error() != `scenario: param flag="maybe" is not a bool` {
				t.Errorf("Bool panicked with %v", perr)
			}
		}()
		Params{"flag": "maybe"}.Bool("flag", false)
	}()
}

func TestParamsMergeAndKey(t *testing.T) {
	base := Params{"a": "1", "b": "2"}
	over := Params{"b": "3", "c": "4"}
	m := base.Merge(over)
	if m["a"] != "1" || m["b"] != "3" || m["c"] != "4" {
		t.Fatalf("merge = %v", m)
	}
	if base["b"] != "2" {
		t.Fatal("merge mutated the receiver")
	}
	if m.Key() != "a=1 b=3 c=4" {
		t.Fatalf("key = %q", m.Key())
	}
	if (Params{}).Key() != "" {
		t.Fatal("empty key")
	}
}

func TestParseGrid(t *testing.T) {
	g, err := ParseGrid("n=64,128; p=0.1,0.2")
	if err != nil {
		t.Fatal(err)
	}
	want := Grid{"n": {"64", "128"}, "p": {"0.1", "0.2"}}
	if !reflect.DeepEqual(g, want) {
		t.Fatalf("grid = %v", g)
	}
	if _, err := ParseGrid("n=,"); err == nil {
		t.Fatal("empty value accepted")
	}
	if _, err := ParseGrid("noequals"); err == nil {
		t.Fatal("missing = accepted")
	}
	if _, err := ParseGrid("n=1;n=2"); err == nil {
		t.Fatal("duplicate axis accepted")
	}
	if g, err := ParseGrid(" "); err != nil || len(g) != 0 {
		t.Fatal("blank grid should parse empty")
	}
}

func TestGridCells(t *testing.T) {
	g := Grid{"b": {"x", "y"}, "a": {"1", "2", "3"}}
	cells := g.Cells()
	if len(cells) != 6 {
		t.Fatalf("%d cells", len(cells))
	}
	// Axes sorted (a before b), last axis varies fastest.
	if cells[0].Key() != "a=1 b=x" || cells[1].Key() != "a=1 b=y" || cells[2].Key() != "a=2 b=x" {
		t.Fatalf("cell order: %q %q %q", cells[0].Key(), cells[1].Key(), cells[2].Key())
	}
	if got := (Grid{}).Cells(); len(got) != 1 || len(got[0]) != 0 {
		t.Fatal("empty grid must yield one empty cell")
	}
}

func TestParseCell(t *testing.T) {
	cell, err := ParseCell([]string{"family=cgnp", "n=32", "p=0.2"})
	if err != nil || cell.Key() != "family=cgnp n=32 p=0.2" {
		t.Fatalf("ParseCell = %v, %v", cell, err)
	}
	if cell, err := ParseCell(nil); err != nil || len(cell) != 0 {
		t.Fatalf("no arguments: %v, %v", cell, err)
	}
	for _, args := range [][]string{
		{"n=32,64"},         // a grid axis: cmd/sweep's job
		{"n=32", "n=64"},    // a repeated key
		{"n"},               // not key=value
		{"n=32", "-seed=2"}, // a flag after the arguments
	} {
		if _, err := ParseCell(args); err == nil {
			t.Errorf("ParseCell(%q) accepted", args)
		}
	}
	if _, err := ParseCell([]string{"n=32,64"}); err == nil || !strings.Contains(err.Error(), "cmd/sweep") {
		t.Errorf("multi-valued key error %v does not point at cmd/sweep", err)
	}
}

func TestGraphSpecFamilies(t *testing.T) {
	// Every registered family must build with its documented defaults.
	for _, f := range Families() {
		g, err := GraphSpec{Family: f.Name}.Build(Params{}, 1)
		if err != nil {
			t.Fatalf("family %s: %v", f.Name, err)
		}
		if g.N() == 0 {
			t.Fatalf("family %s built an empty graph", f.Name)
		}
	}
	if len(Families()) < 18 {
		t.Fatalf("only %d families registered", len(Families()))
	}
}

func TestGraphSpecWeightLayering(t *testing.T) {
	g, err := GraphSpec{}.Build(Params{"family": "clique", "n": "8", "whi": "4"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Weighted() {
		t.Fatal("whi > 0 must weight the graph")
	}
	// wgeom is intrinsically weighted.
	wg, err := GraphSpec{}.Build(Params{"family": "wgeom", "n": "32", "radius": "0.4"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !wg.Weighted() {
		t.Fatal("wgeom must be weighted")
	}
}

func TestGraphSpecErrorsAndDigraph(t *testing.T) {
	if _, err := (GraphSpec{}).Build(Params{"family": "no-such"}, 1); err == nil {
		t.Fatal("unknown family accepted")
	}
	d, err := GraphSpec{}.BuildDigraph(Params{"family": "rdg", "n": "12", "p": "0.3"}, 1)
	if err != nil || d.N() != 12 {
		t.Fatalf("rdg: %v", err)
	}
	od, err := GraphSpec{}.BuildDigraph(Params{"family": "clique", "n": "6", "twoway": "0.5"}, 1)
	if err != nil || od.N() != 6 {
		t.Fatalf("oriented: %v", err)
	}
}

func TestGraphSpecInstancePinning(t *testing.T) {
	p := Params{"family": "cgnp", "n": "20", "p": "0.2", "iseed": "5"}
	a, _ := GraphSpec{}.Build(p, 100)
	b, _ := GraphSpec{}.Build(p, 200)
	if a.M() != b.M() {
		t.Fatal("iseed must pin the instance across run seeds")
	}
	free := Params{"family": "cgnp", "n": "20", "p": "0.2"}
	c, _ := GraphSpec{}.Build(free, 100)
	d, _ := GraphSpec{}.Build(free, 200)
	same := c.M() == d.M()
	if same {
		for i := 0; i < c.M(); i++ {
			if c.Edge(i) != d.Edge(i) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("without iseed, different run seeds should vary the instance")
	}
}

func TestExperimentsRegisteredInOrder(t *testing.T) {
	exps := Experiments()
	if len(exps) != 15 {
		t.Fatalf("%d experiments registered, want 15", len(exps))
	}
	for i, s := range exps {
		want := fmt.Sprintf("e%d", i+1)
		if s.Name != want {
			t.Fatalf("experiment %d is %q, want %q (registration order)", i, s.Name, want)
		}
		if s.Title == "" || s.Doc == "" {
			t.Fatalf("%s missing title or doc", s.Name)
		}
		if len(s.DefaultCells()) == 0 {
			t.Fatalf("%s has no default cells", s.Name)
		}
	}
}

func TestRegistryLookup(t *testing.T) {
	for _, name := range []string{"twospanner", "twospanner-congest", "twospanner-directed",
		"twospanner-weighted", "twospanner-cs", "mds", "baswanasen", "kortsarz-peleg",
		"greedy-spanner", "local-epsilon"} {
		if _, ok := Get(name); !ok {
			t.Fatalf("scenario %q not registered", name)
		}
	}
	if _, ok := Get("nope"); ok {
		t.Fatal("bogus lookup succeeded")
	}
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("Names not sorted")
		}
	}
}

// TestExperimentsAllCellsPass executes every default cell of every
// registered experiment once (single replicate), so a regression in any
// E1–E15 verification fails `go test` rather than waiting for someone to
// run cmd/experiments by hand. The whole suite is a couple of seconds.
func TestExperimentsAllCellsPass(t *testing.T) {
	for _, s := range Experiments() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			for _, cell := range s.DefaultCells() {
				params := s.Defaults.Merge(cell)
				m, err := s.Run(params, 1, nil)
				if err != nil {
					t.Errorf("cell [%s]: %v", params.Key(), err)
					continue
				}
				if len(m) == 0 {
					t.Errorf("cell [%s]: no metrics", params.Key())
				}
			}
		})
	}
}

// TestSweepableScenariosSmoke runs one small cell of every non-experiment
// scenario and requires verification to pass.
func TestSweepableScenariosSmoke(t *testing.T) {
	small := map[string]Params{
		"twospanner":          {"n": "24", "p": "0.2"},
		"twospanner-congest":  {"n": "12", "p": "0.3"},
		"twospanner-directed": {"n": "12", "p": "0.2"},
		"twospanner-weighted": {"n": "14", "p": "0.3", "whi": "8"},
		"twospanner-cs":       {"n": "14", "p": "0.3"},
		"mds":                 {"n": "16", "p": "0.2"},
		"baswanasen":          {"n": "40", "p": "0.3", "k": "2"},
		"kortsarz-peleg":      {"n": "24", "p": "0.2"},
		"greedy-spanner":      {"n": "24", "p": "0.2", "k": "3"},
		"local-epsilon":       {"n": "8", "p": "0.35", "eps": "1.0"},
	}
	for name, over := range small {
		sc, ok := Get(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		m, err := sc.Run(sc.Defaults.Merge(over), 1, nil)
		if err != nil {
			t.Fatalf("%s failed: %v", name, err)
		}
		if len(m) == 0 {
			t.Fatalf("%s returned no metrics", name)
		}
	}
}
