package analysis

import (
	"go/types"
	"strings"
)

// The analyzers recognize the engine package structurally, not by import
// path: any imported package (or the analyzed package itself) declaring
// an interface named Machine with a Step method, an interface named
// PhasedProgram with Emit/Process methods, or a Ctx type with Send — as
// internal/dist does — is treated as the engine. Structural detection is
// what lets the analysistest fixtures and the known-bad fixture module
// exercise the analyzers against a miniature stand-in dist package
// without import-path special cases.

// CriticalPackages is the default determinism-critical package set:
// packages whose map iteration order, clock reads, or RNG choices would
// leak into run output, trace digests, cache identity, or transport
// verification. Matched as import-path suffixes.
const CriticalPackages = "internal/core,internal/mds,internal/baseline,internal/dist,internal/dist/wire,internal/dist/transportconf,internal/gen,internal/trace,internal/scenario,internal/service,internal/distrun"

// AlgoPackages is the default set of packages whose entire code is
// vertex-step code (algorithm receivers and their helpers): detsource
// forbids impure sources anywhere in them, not just inside Machine
// methods.
const AlgoPackages = "internal/core,internal/mds"

// Pkgs holds the configurable package scopes. cmd/spanlint exposes them
// as -critical and -algopkgs so the fixture module and external users can
// rescope the suite.
var Pkgs = struct {
	Critical string
	Algo     string
}{Critical: CriticalPackages, Algo: AlgoPackages}

// matchesScope reports whether path is in the comma-separated suffix
// list: an entry matches the whole path or a "/"-aligned suffix of it.
func matchesScope(path, list string) bool {
	for _, pat := range strings.Split(list, ",") {
		pat = strings.TrimSpace(pat)
		if pat == "" {
			continue
		}
		if path == pat || strings.HasSuffix(path, "/"+pat) {
			return true
		}
	}
	return false
}

// critical reports whether the pass's package is determinism-critical.
func (p *Pass) critical() bool { return matchesScope(p.pkgPath(), Pkgs.Critical) }

// algoPackage reports whether the pass's package is all-step-code.
func (p *Pass) algoPackage() bool { return matchesScope(p.pkgPath(), Pkgs.Algo) }

// distShape is the structurally detected engine surface visible to one
// package: the Machine/PhasedProgram interfaces for implements-checks and
// the Ctx type whose Send/SendRec sites carry metered payloads.
type distShape struct {
	machine *types.Interface // dist.Machine, nil if not visible
	phased  *types.Interface // dist.PhasedProgram, nil if not visible
	ctx     types.Type       // dist.Ctx named type, nil if not visible
}

// findDistShape scans the package and its direct imports for the engine
// surface.
func findDistShape(pkg *types.Package) distShape {
	var sh distShape
	scan := func(p *types.Package) {
		scope := p.Scope()
		if sh.machine == nil {
			sh.machine = namedInterface(scope, "Machine", "Step")
		}
		if sh.phased == nil {
			sh.phased = namedInterface(scope, "PhasedProgram", "Emit", "Process")
		}
		if sh.ctx == nil {
			if obj, ok := scope.Lookup("Ctx").(*types.TypeName); ok {
				if hasMethod(obj.Type(), "Send") || hasMethod(obj.Type(), "SendRec") {
					sh.ctx = obj.Type()
				}
			}
		}
	}
	scan(pkg)
	for _, imp := range pkg.Imports() {
		scan(imp)
	}
	return sh
}

// namedInterface looks up name in scope and returns its underlying
// interface if it declares all the listed methods.
func namedInterface(scope *types.Scope, name string, methods ...string) *types.Interface {
	obj, ok := scope.Lookup(name).(*types.TypeName)
	if !ok {
		return nil
	}
	iface, ok := obj.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	for _, m := range methods {
		if !ifaceHasMethod(iface, m) {
			return nil
		}
	}
	return iface
}

func ifaceHasMethod(iface *types.Interface, name string) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == name {
			return true
		}
	}
	return false
}

func hasMethod(t types.Type, name string) bool {
	ms := types.NewMethodSet(types.NewPointer(t))
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == name {
			return true
		}
	}
	return false
}

// implementsEither reports whether T (or *T) implements the Machine or
// PhasedProgram interface of the visible engine.
func (sh distShape) implementsEither(t types.Type) bool {
	for _, iface := range []*types.Interface{sh.machine, sh.phased} {
		if iface == nil {
			continue
		}
		if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
			return true
		}
	}
	return false
}

// isCancelChan reports whether t is a cancel-channel type: chan struct{}
// with receive capability (<-chan struct{} or chan struct{}).
func isCancelChan(t types.Type) bool {
	ch, ok := t.Underlying().(*types.Chan)
	if !ok || ch.Dir() == types.SendOnly {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}
