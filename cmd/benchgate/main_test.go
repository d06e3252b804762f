package main

import (
	"os"
	"path/filepath"
	"testing"
)

// Repeated lines of one yardstick (go test -count N) reduce to their
// median, not to whichever run printed last.
func TestParseBenchTakesMedianOfRepeats(t *testing.T) {
	out := `goos: linux
BenchmarkTail/n=4096/mode=step-2    	       1	 812345 ns/op	        10.0 rounds/sec
BenchmarkTail/n=4096/mode=step-2    	       1	 812345 ns/op	        12.0 rounds/sec
BenchmarkTail/n=4096/mode=step-2    	       1	 812345 ns/op	        30.0 rounds/sec
BenchmarkBusy/n=8192/mode=event-2   	       1	 912345 ns/op	         4.0 rounds/sec
BenchmarkBusy/n=8192/mode=event-2   	       1	 912345 ns/op	         5.0 rounds/sec
BenchmarkOther-2                    	       1	 112345 ns/op
PASS
`
	path := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := parseBench(path, "rounds/sec")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkTail/n=4096/mode=step":  12,
		"BenchmarkBusy/n=8192/mode=event": 4.5,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for name, w := range want {
		if got[name] != w {
			t.Fatalf("%s = %v, want median %v", name, got[name], w)
		}
	}
}
