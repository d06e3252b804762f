// Command node is the distributed runner's worker process. It dials
// the coordinator (cmd/coord), receives its shard assignment — scenario
// cell, seed, vertex range, and the fingerprint of the coordinator's
// graph — over the wire protocol, rebuilds the cell's program, graph
// included, through the scenario registry (scenario.Resolver), refuses
// the run if the rebuilt graph's fingerprint differs, steps its
// vertices with the state-machine engine, and streams record batches,
// metering reports, and wake scans back each round. One process serves
// one run, then exits; the worker is oblivious to which scenario it
// will be asked to run until the setup frame arrives.
//
//	node -addr 127.0.0.1:9131
package main

import (
	"flag"
	"log"
	"os"
	"time"

	"distspanner/internal/dist"
	"distspanner/internal/dist/wire"
	"distspanner/internal/scenario"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("node: ")
	var (
		addr    = flag.String("addr", "127.0.0.1:9131", "coordinator address to dial")
		timeout = flag.Duration("timeout", 10*time.Second, "how long to keep retrying the dial")
	)
	flag.Parse()

	wt, err := wire.DialRetry(*addr, *timeout)
	if err != nil {
		log.Fatal(err)
	}
	if err := dist.ServeShard(wt, scenario.Resolver()); err != nil {
		os.Stderr.Write(dist.PanicStack(err))
		log.Fatal(err)
	}
	log.Printf("shard served, exiting")
}
