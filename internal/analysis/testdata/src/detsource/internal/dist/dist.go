// Package dist is the detsource golden fixture for the Machine-method
// scope: a critical package that is NOT an algorithm package, carrying a
// miniature structural stand-in for the engine. Only methods of types
// implementing Machine (or PhasedProgram) are step code here; free
// functions are not.
package dist

import "time"

// Ctx is the structural stand-in for the engine's vertex context.
type Ctx struct{}

// Machine is the structural stand-in for the engine's vertex interface.
type Machine interface {
	Step(c *Ctx, round int) bool
}

// vertex implements Machine, so every one of its methods — Step and the
// helpers Step calls — is step code.
type vertex struct {
	id int
}

func (v *vertex) Step(c *Ctx, round int) bool {
	_ = time.Now() // want `time\.Now in step code vertex\.Step`
	return v.helper()
}

// helper is step code by virtue of its receiver, even though nothing
// marks the method itself.
func (v *vertex) helper() bool {
	return time.Since(time.Unix(0, 0)) > 0 // want `time\.Since in step code vertex\.helper`
}

// Stamp is a free function in a critical non-algorithm package: the wall
// clock is legal outside step code, so this is clean.
func Stamp() int64 {
	return time.Now().UnixNano()
}
