package scenario

import (
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"

	"distspanner/internal/dist"
	"distspanner/internal/gen"
	"distspanner/internal/trace"
)

// encodeCell writes a setup frame's Algo the way Distributed does.
func encodeCell(t *testing.T, name string, p Params) string {
	t.Helper()
	b, err := json.Marshal(programCell{Scenario: name, Params: p})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestResolverErrors pins the worker side of a malformed setup: each of
// these returns an error from Resolver and none panics the worker.
func TestResolverErrors(t *testing.T) {
	resolve := Resolver()
	for _, tc := range []struct{ name, algo, want string }{
		{"unknown scenario", encodeCell(t, "no-such-scenario", Params{}), "unknown scenario"},
		{"no program", encodeCell(t, "kortsarz-peleg", Params{}), "runs no distributed program"},
		{"undecodable", "twospanner", "names no scenario cell"},
		{"non-string value", `{"scenario":"twospanner","params":{"n":48}}`, "names no scenario cell"},
	} {
		if _, err := resolve(tc.algo, 1); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	// A malformed value is a *ParamError wherever the program reads it:
	// in the graph builder (n) or in the program's own options.
	for _, tc := range []struct{ scenario, key string }{
		{"twospanner", "n"},
		{"twospanner-congest", "n"},
		{"twospanner-directed", "n"},
		{"twospanner-weighted", "n"},
		{"twospanner-cs", "n"},
		{"mds", "n"},
		{"twospanner", "votden"},
		{"twospanner-cs", "pc"},
		{"mds", "bandwidth"},
	} {
		cell := Params{tc.key: "abc"}
		_, err := resolve(encodeCell(t, tc.scenario, cell), 1)
		var perr *ParamError
		if !errors.As(err, &perr) || perr.Key != tc.key {
			t.Errorf("%s %s=abc: resolver err = %v, want a *ParamError for %s", tc.scenario, tc.key, err, tc.key)
		}
		sc, _ := Get(tc.scenario)
		if _, _, err := Distributed(sc, cell, 1); !errors.As(err, &perr) || perr.Key != tc.key {
			t.Errorf("%s %s=abc: Distributed err = %v, want a *ParamError for %s", tc.scenario, tc.key, err, tc.key)
		}
	}
}

// TestDistributedInlineCell runs a cell with an inline edge list
// through Distributed and two channel workers serving Resolver: every
// scenario's distributed transcript equals its in-process program's,
// so the cell survives the setup frame's encoding.
func TestDistributedInlineCell(t *testing.T) {
	const seed = 3
	inline := InlineParams(gen.ConnectedGNP(20, 0.3, 4))
	for _, name := range ProgramNames() {
		sc, _ := Get(name)
		prog, cfg, err := Distributed(sc, sc.Defaults.Merge(inline), seed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref := trace.NewRecorder(prog.Graph.N())
		if _, err := dist.RunLocal(prog, dist.Config{Seed: seed, Tracer: ref}); err != nil {
			t.Fatalf("%s: in-process run: %v", name, err)
		}

		ct, wts := dist.NewChanCluster(2)
		errs := make([]error, len(wts))
		var wg sync.WaitGroup
		for i, wt := range wts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = dist.ServeShard(wt, Resolver())
			}()
		}
		rec := trace.NewRecorder(prog.Graph.N())
		cfg.Tracer = rec
		_, err = dist.Coordinate(ct, prog, cfg)
		ct.Close()
		wg.Wait()
		if err != nil {
			t.Fatalf("%s: distributed run: %v (workers: %v)", name, err, errs)
		}
		if got, want := rec.Digest(), ref.Digest(); !got.Equal(want) {
			t.Errorf("%s: distributed digest %s, in-process %s", name, got.Run, want.Run)
		}
	}
}
