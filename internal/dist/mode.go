package dist

import "fmt"

// Mode is the engine selector, kept for source compatibility: the step
// engine is the only scheduler, and both values select it.
type Mode int

const (
	// ModeAuto is the zero value: run on the step engine.
	ModeAuto Mode = iota
	// ModeStep names the step engine explicitly.
	ModeStep
)

// String returns the mode's CLI/parameter spelling.
func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeStep:
		return "step"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode parses the CLI/parameter spelling of a Mode ("", "auto",
// "step").
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "auto":
		return ModeAuto, nil
	case "step":
		return ModeStep, nil
	}
	return ModeAuto, fmt.Errorf("dist: unknown execution mode %q (want auto or step)", s)
}
