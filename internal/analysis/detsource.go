package analysis

import (
	"go/ast"
	"go/types"
)

// Detsource forbids nondeterministic inputs and ad-hoc concurrency inside
// vertex step code: Machine/PhasedProgram implementations anywhere in the
// critical set, and everything in the algorithm packages (internal/core,
// internal/mds), whose whole surface is step code and its helpers.
//
// Step code runs once per vertex per round under three different
// schedulers and, through the sharded runner, on different processes; the
// transcripts must be byte-identical everywhere. The only legal
// randomness is the per-vertex seeded stream (Ctx.Int63n, Ctx.Intn), the
// only legal clock is the round counter, and the only legal concurrency
// is what the engine serializes. Therefore, inside scope:
//
//   - time.Now / Since / Until / Sleep / After / Tick / NewTimer /
//     NewTicker read or wait on the wall clock;
//   - package-level math/rand and math/rand/v2 functions draw from the
//     process-global generator (methods on a *rand.Rand value are fine —
//     the engine's pooled vertex sources are exactly that);
//   - os.Getenv / LookupEnv / Environ smuggle host state into the run;
//   - `go` statements spawn concurrency the engine does not serialize,
//     so interleaving — and with it send order — becomes scheduling-
//     dependent.
//
// A site that is genuinely outside the replayed transcript (e.g. an
// engine-serialized measurement hook) can be waived with
// `//spanlint:impure <why>`.
var Detsource = &Analyzer{
	Name: "detsource",
	Doc:  "forbids wall clock, global RNG, environment reads, and goroutine spawns in Machine/PhasedProgram step code and algorithm packages",
	Run:  runDetsource,
}

// forbiddenCalls maps package path → function names that are illegal in
// step code. An empty list forbids every package-level function.
var forbiddenCalls = map[string][]string{
	"time":         {"Now", "Since", "Until", "Sleep", "After", "AfterFunc", "Tick", "NewTimer", "NewTicker"},
	"os":           {"Getenv", "LookupEnv", "Environ", "ExpandEnv"},
	"math/rand":    nil,
	"math/rand/v2": nil,
}

func runDetsource(pass *Pass) error {
	if !pass.critical() && !pass.algoPackage() {
		return nil
	}
	sh := findDistShape(pass.Pkg)
	wholePkg := pass.algoPackage()
	pass.walkFiles(func(f *ast.File) {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if wholePkg || isStepMethod(pass, sh, fd) {
				checkStepBody(pass, fd)
			}
		}
	})
	return nil
}

// isStepMethod reports whether fd is a method on a type that implements
// the engine's Machine or PhasedProgram interface — every method of such
// a type is step code (helpers included; they run inside Step).
func isStepMethod(pass *Pass, sh distShape, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	t := pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return sh.implementsEither(t)
}

func checkStepBody(pass *Pass, fd *ast.FuncDecl) {
	where := fd.Name.Name
	if fd.Recv != nil {
		where = recvTypeName(fd) + "." + where
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			if !pass.waived(x.Pos(), "impure") {
				pass.Reportf(x.Pos(), "goroutine spawned in step code %s: the engine serializes all vertex concurrency — interleaving here makes send order scheduling-dependent (//spanlint:impure <why> to waive)", where)
			}
		case *ast.CallExpr:
			pkg, name, ok := calleePkgFunc(pass, x)
			if !ok {
				return true
			}
			names, forbidden := forbiddenCalls[pkg]
			if !forbidden {
				return true
			}
			if names != nil && !contains(names, name) {
				return true
			}
			if !pass.waived(x.Pos(), "impure") {
				pass.Reportf(x.Pos(), "%s.%s in step code %s: only the per-vertex seeded stream (Ctx.Int63n, Ctx.Intn) and round-count time are deterministic under replay (//spanlint:impure <why> to waive)", pkg, name, where)
			}
		}
		return true
	})
}

// calleePkgFunc resolves a call to (package path, function name) when the
// callee is a package-level function selected off an imported package.
func calleePkgFunc(pass *Pass, call *ast.CallExpr) (string, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	pkgID, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", "", false
	}
	pkgName, ok := pass.TypesInfo.Uses[pkgID].(*types.PkgName)
	if !ok {
		return "", "", false
	}
	return pkgName.Imported().Path(), sel.Sel.Name, true
}

func recvTypeName(fd *ast.FuncDecl) string {
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
