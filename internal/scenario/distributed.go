package scenario

import (
	"encoding/json"
	"fmt"

	"distspanner/internal/dist"
)

// programCell is what a distributed run's setup frame carries as its
// Algo: the scenario and the cell's instance parameters, encoded as JSON
// (Params marshals with sorted keys, so the encoding is canonical).
type programCell struct {
	Scenario string `json:"scenario"`
	Params   Params `json:"params"`
}

// Distributed returns sc's shard program on the cell and seed, and the
// coordinator configuration that runs the same program over a
// transport (dist.Coordinate takes both): Algo carries the scenario and
// the cell's InstanceParams, from which Resolver rebuilds the program on
// every worker, and outputs are collected. The cell is used as given;
// callers layer it over sc.Defaults as they do for Run. A malformed
// value is a *ParamError.
func Distributed(sc *Scenario, cell Params, seed int64) (dist.ShardProgram, dist.CoordConfig, error) {
	prog, err := program(sc, cell, seed)
	if err != nil {
		return prog, dist.CoordConfig{}, err
	}
	algo, err := json.Marshal(programCell{Scenario: sc.Name, Params: cell.InstanceParams()})
	if err != nil {
		return prog, dist.CoordConfig{}, err
	}
	return prog, dist.CoordConfig{Seed: seed, Algo: string(algo), Collect: true}, nil
}

// Resolver is the dist.ProgramResolver shard workers serve: it decodes
// the scenario cell Distributed wrote into the setup frame's Algo and
// rebuilds the cell's program, deriving the whole instance from the
// cell and seed. An Algo that does not decode, an unknown scenario, a
// scenario with no program and a malformed value (a *ParamError) are
// errors, never panics.
func Resolver() dist.ProgramResolver {
	return func(algo string, seed int64) (dist.ShardProgram, error) {
		var pc programCell
		if err := json.Unmarshal([]byte(algo), &pc); err != nil {
			return dist.ShardProgram{}, fmt.Errorf("scenario: setup names no scenario cell: %v", err)
		}
		sc, ok := Get(pc.Scenario)
		if !ok {
			return dist.ShardProgram{}, fmt.Errorf("scenario: unknown scenario %q", pc.Scenario)
		}
		return program(sc, pc.Params, seed)
	}
}

// program calls sc's Program hook, returning a malformed value as its
// *ParamError.
func program(sc *Scenario, cell Params, seed int64) (_ dist.ShardProgram, err error) {
	if sc.Program == nil {
		return dist.ShardProgram{}, fmt.Errorf("scenario: %q runs no distributed program", sc.Name)
	}
	defer recoverParamError(&err)
	return sc.Program(cell, seed)
}
