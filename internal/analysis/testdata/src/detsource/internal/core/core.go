// Package core is the detsource golden fixture for the algorithm-package
// scope: its import path ends in /internal/core, so its entire surface is
// treated as vertex step code and every impure source is flagged.
package core

import (
	"math/rand"
	"os"
	"time"
)

// Stamp reads the wall clock: flagged.
func Stamp() int64 {
	return time.Now().UnixNano() // want `time\.Now in step code Stamp`
}

// Nap waits on the wall clock: flagged.
func Nap() {
	time.Sleep(time.Millisecond) // want `time\.Sleep in step code Nap`
}

// Draw uses the process-global generator: flagged.
func Draw() int {
	return rand.Intn(10) // want `math/rand\.Intn in step code Draw`
}

// Env smuggles host state into the run: flagged.
func Env() string {
	return os.Getenv("HOME") // want `os\.Getenv in step code Env`
}

// Spawn creates concurrency the engine does not serialize: flagged.
func Spawn(ch chan int) {
	go func() { ch <- 1 }() // want `goroutine spawned in step code Spawn`
}

// SeededDraw draws from an injected generator, as the engine's pooled
// vertex sources do: clean.
func SeededDraw(r *rand.Rand) int {
	return r.Intn(10)
}

// RoundDuration manipulates time values without reading the clock: clean.
func RoundDuration(n int) time.Duration {
	return time.Duration(n) * time.Millisecond
}

// Measured is waived as an engine-serialized measurement hook: clean.
func Measured() int64 {
	//spanlint:impure engine-serialized telemetry hook, excluded from the replayed transcript
	return time.Now().UnixNano()
}
