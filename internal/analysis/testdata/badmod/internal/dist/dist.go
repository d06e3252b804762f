// Package dist is a miniature structural stand-in for the engine inside
// the known-bad fixture module. spanlint recognizes the engine by shape
// (a Machine interface with Step, a Config with a Cancel channel), not by
// import path, so this fake is enough for every analyzer to engage exactly
// as it does against the real repository.
package dist

// Ctx is the vertex context stand-in.
type Ctx struct{}

// Machine is the vertex interface stand-in.
type Machine interface {
	Step(c *Ctx, round int) bool
}

// Config carries the cancel channel a launch must be reachable by.
type Config struct {
	Seed   int64
	Cancel <-chan struct{}
}

// RunMachines stands in for the engine entry point.
func RunMachines(m Machine, cfg Config) error { return nil }

// Msg is a payload whose Rank field was added without touching Bits —
// the drift bitsacct exists to catch.
type Msg struct {
	IDs  []int
	Rank int
}

// Bits bills the id list but not Rank.
func (m Msg) Bits() int { return 32 * len(m.IDs) } // seed:bitsacct
