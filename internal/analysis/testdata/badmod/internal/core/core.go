// Package core seeds one violation per remaining analyzer. Its import
// path suffix internal/core puts it in both the critical and the
// algorithm scopes, matching the real repository layout.
package core

import (
	"time"

	"spanlintbad/internal/dist"
)

type node struct {
	id int
}

// Step reads the wall clock inside step code.
func (n *node) Step(c *dist.Ctx, round int) bool {
	_ = time.Now() // seed:detsource
	return false
}

// Keys leaks map iteration order into slice order.
func Keys(m map[int]int) []int {
	var out []int
	for k := range m { // seed:detmap
		out = append(out, k)
	}
	return out
}

// Launch builds a Config its cancel channel never reaches.
func Launch(cancel <-chan struct{}) error {
	_ = cancel
	return dist.RunMachines(&node{id: 1}, dist.Config{Seed: 1}) // seed:cancelprop
}
