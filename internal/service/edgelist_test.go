package service

import (
	"encoding/json"
	"net/http"
	"slices"
	"strings"
	"testing"
)

// edgeListSeeds seed FuzzEdgeList; testdata/fuzz/FuzzEdgeList holds the
// same inputs, one file each.
var edgeListSeeds = []string{
	`null`,
	`[]`,
	" \t[ \n[ 0 ,\r1 ] , [2,3]\n] ",
	`[[-0,1]]`,
	`[[-9223372036854775808,1]]`,
	`[[9223372036854775808,1]]`,
	`[[1.0,2]]`,
	`[[1e2,3]]`,
	`[[0]]`,
	`[[0,1,2]]`,
	`[[0,1],null]`,
	`[[null,1]]`,
}

// FuzzEdgeList checks the edge-list decoder against encoding/json: it
// never panics, and json.Unmarshal into an EdgeList succeeds exactly
// when json.Unmarshal into [][]int succeeds with every element of length
// two, and then yields the same pairs. Called directly on any bytes,
// valid JSON or not, UnmarshalJSON must not panic either, and on valid
// JSON it agrees with json.Unmarshal.
func FuzzEdgeList(f *testing.F) {
	for _, s := range edgeListSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got EdgeList
		err := json.Unmarshal(data, &got)
		var ref [][]int
		refErr := json.Unmarshal(data, &ref)
		pairs := refErr == nil
		for _, p := range ref {
			pairs = pairs && len(p) == 2
		}
		if (err == nil) != pairs {
			t.Fatalf("%q: EdgeList error %v, but [][]int gives %v (error %v)", data, err, ref, refErr)
		}
		if err == nil {
			if (got == nil) != (ref == nil) || len(got) != len(ref) {
				t.Fatalf("%q: EdgeList %v, [][]int %v", data, got, ref)
			}
			for i, p := range ref {
				if got[i] != [2]int{p[0], p[1]} {
					t.Fatalf("%q: pair %d is %v, [][]int has %v", data, i, got[i], p)
				}
			}
		}
		var direct EdgeList
		directErr := direct.UnmarshalJSON(data)
		if json.Valid(data) && ((directErr == nil) != (err == nil) || !slices.Equal(direct, got)) {
			t.Fatalf("%q: direct call gives %v (error %v), json.Unmarshal %v (error %v)", data, direct, directErr, got, err)
		}
	})
}

func TestEdgeListDecode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want EdgeList // nil with ok for null
		ok   bool
	}{
		{`null`, nil, true},
		{`[]`, EdgeList{}, true},
		{" \t[ \n[ 0 ,\r1 ] , [2,3]\n] ", EdgeList{{0, 1}, {2, 3}}, true},
		{`[[-0,1]]`, EdgeList{{0, 1}}, true},
		{`[[-9223372036854775808,9223372036854775807]]`, EdgeList{{-1 << 63, 1<<63 - 1}}, true},
		{`[[null,1]]`, EdgeList{{0, 1}}, true},
		{`[[9223372036854775808,1]]`, nil, false},
		{`[[-9223372036854775809,1]]`, nil, false},
		{`[[1.0,2]]`, nil, false},
		{`[[1e2,3]]`, nil, false},
		{`[[0]]`, nil, false},
		{`[[0,1,2]]`, nil, false},
		{`[[0,1],null]`, nil, false},
		{`[["0",1]]`, nil, false},
		{`{}`, nil, false},
	} {
		var got EdgeList
		err := json.Unmarshal([]byte(tc.in), &got)
		if (err == nil) != tc.ok || (got == nil) != (tc.want == nil) || !slices.Equal(got, tc.want) {
			t.Errorf("%q: got %v (error %v), want %v (ok %v)", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

// TestEdgeListStrictElements: an element that is not a pair of integers
// is refused with 400 before anything runs. encoding/json decoding into
// [][2]int would drop the third integer of [[0,1,2]] and serve the edge
// [0, 1], and would turn the null of [[0,1],null] into the pair [0, 0].
func TestEdgeListStrictElements(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1})
	for _, edges := range []string{`[[0,1,2]]`, `[[0,1],null]`, `[[0,1.5]]`, `[[0,1e0]]`, `[[0,9223372036854775808]]`} {
		body := `{"scenario":"twospanner","graph":{"n":3,"edges":` + edges + `}}`
		resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]string
		derr := json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || derr != nil || !strings.Contains(doc["error"], "edges: ") {
			t.Errorf("%s: status %d, error %q (%v); want 400 naming the edges", edges, resp.StatusCode, doc["error"], derr)
		}
	}
	if st := srv.Stats(); st.Rejected != 5 || st.Pool.Executions != 0 {
		t.Errorf("rejected = %d, executions = %d; want 5 and 0", st.Rejected, st.Pool.Executions)
	}
}
