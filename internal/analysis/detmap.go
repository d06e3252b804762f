package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Detmap flags `range` over a map in determinism-critical packages. Map
// iteration order is randomized per run, so any map fold whose result
// depends on visit order — building a slice, emitting output, picking
// "the first" element, accumulating floats — silently breaks the
// (graph, params, seed) → bytes contract that trace digests, the result
// cache, and transport verification all assume.
//
// A map range is accepted without annotation only when the analyzer can
// prove the fold order-insensitive:
//
//   - the body contains only delete() calls, integer/bool accumulation
//     (x++, x--, x += intExpr, b = b || ...), or writes m[k] = expr
//     indexed by the iteration key itself with a side-effect-free
//     right-hand side (distinct iterations touch distinct keys, so the
//     writes commute) — and no condition reads a variable the loop
//     writes; or
//   - the body only appends to a slice that is sorted by a sort.* or
//     slices.Sort* call later in the same enclosing block (the canonical
//     collect-then-sort idiom).
//
// Everything else needs sorted keys or a `//spanlint:ordered <why>`
// justification stating why order cannot leak.
var Detmap = &Analyzer{
	Name: "detmap",
	Doc:  "flags map iteration in determinism-critical packages unless provably order-insensitive or justified with //spanlint:ordered",
	Run:  runDetmap,
}

func runDetmap(pass *Pass) error {
	if !pass.critical() {
		return nil
	}
	pass.walkFiles(func(f *ast.File) {
		// Track enclosing blocks so the collect-then-sort proof can see
		// the statements that follow a range loop.
		var blocks []*ast.BlockStmt
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			if b, ok := n.(*ast.BlockStmt); ok {
				blocks = append(blocks, b)
				for _, st := range b.List {
					ast.Inspect(st, walk)
				}
				blocks = blocks[:len(blocks)-1]
				return false
			}
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if pass.waived(rng.Pos(), "ordered") {
				return true
			}
			if orderInsensitiveBody(pass, rng) {
				return true
			}
			if appendThenSorted(pass, rng, blocks) {
				return true
			}
			pass.Reportf(rng.Pos(), "range over map %s in determinism-critical package %s: iteration order is randomized — sort the keys, restructure the fold, or justify with //spanlint:ordered <why>",
				types.TypeString(t, types.RelativeTo(pass.Pkg)), pass.pkgPath())
			return true
		}
		ast.Inspect(f, walk)
	})
	return nil
}

// orderInsensitiveBody conservatively proves a map-range body commutes:
// every statement is an allowed commutative update, and every branch
// condition is pure — it reads no state the loop writes (a condition over
// accumulated state re-introduces order sensitivity even when each arm
// commutes) and makes no call (a stateful call such as an RNG draw
// advances in visit order).
func orderInsensitiveBody(pass *Pass, rng *ast.RangeStmt) bool {
	var keyObj types.Object
	if id, ok := rng.Key.(*ast.Ident); ok && id.Name != "_" {
		keyObj = pass.TypesInfo.ObjectOf(id)
	}
	written := make(map[types.Object]bool)
	collectWrites(pass, rng.Body, written)
	ok := true
	var check func(stmts []ast.Stmt)
	check = func(stmts []ast.Stmt) {
		for _, st := range stmts {
			if !ok {
				return
			}
			switch s := st.(type) {
			case *ast.IncDecStmt:
				if !isIntLike(pass.TypesInfo.TypeOf(s.X)) {
					ok = false
				}
			case *ast.AssignStmt:
				if !commutativeAssign(pass, s) && !distinctKeyWrite(pass, s, keyObj, written) {
					ok = false
				}
			case *ast.ExprStmt:
				if !isDeleteCall(pass, s.X) {
					ok = false
				}
			case *ast.IfStmt:
				if s.Init != nil || !exprPure(pass, s.Cond, written) {
					ok = false
					return
				}
				check(s.Body.List)
				switch e := s.Else.(type) {
				case nil:
				case *ast.BlockStmt:
					check(e.List)
				default:
					ok = false
				}
			case *ast.BranchStmt:
				if s.Tok != token.CONTINUE || s.Label != nil {
					ok = false
				}
			default:
				ok = false
			}
		}
	}
	check(rng.Body.List)
	return ok
}

// commutativeAssign accepts += / -= / |= on integers, |= / &&-style bool
// folds written as b = b || e, and max/min folds are NOT accepted (their
// conditions read accumulated state; annotate those).
func commutativeAssign(pass *Pass, s *ast.AssignStmt) bool {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return false
	}
	lt := pass.TypesInfo.TypeOf(s.Lhs[0])
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		// Integer accumulation commutes; float accumulation does not
		// (addition order changes rounding).
		return isIntLike(lt)
	case token.ASSIGN:
		// b = b || e and b = b && e commute when e is pure of loop
		// writes; accept the syntactic form with the ranged-over bool on
		// its own left.
		if bin, okb := s.Rhs[0].(*ast.BinaryExpr); okb && (bin.Op == token.LOR || bin.Op == token.LAND) {
			return isBoolType(lt) && sameIdent(s.Lhs[0], bin.X)
		}
		return false
	}
	return false
}

// distinctKeyWrite accepts `m[k] = expr` where k is the iteration key:
// every iteration writes a different key, so the writes commute as long
// as the right-hand side is pure (no calls except conversions/len/cap, no
// reads of loop-written state — a RHS over accumulated state would smuggle
// visit order back in).
func distinctKeyWrite(pass *Pass, s *ast.AssignStmt, keyObj types.Object, written map[types.Object]bool) bool {
	if keyObj == nil || s.Tok != token.ASSIGN || len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return false
	}
	idx, ok := s.Lhs[0].(*ast.IndexExpr)
	if !ok {
		return false
	}
	id, ok := idx.Index.(*ast.Ident)
	if !ok || pass.TypesInfo.ObjectOf(id) != keyObj {
		return false
	}
	// The target map itself must not be the loop's own iteration subject
	// rewritten — it may be any map, but its base must be a stable lvalue.
	if _, okRoot := rootIdent(idx.X); !okRoot {
		return false
	}
	return exprPure(pass, s.Rhs[0], written)
}

// exprPure reports whether e has no side effects and reads nothing the
// loop writes: identifiers outside written, selectors/indexes of such,
// literals, operators, and calls that are type conversions or len/cap.
func exprPure(pass *Pass, e ast.Expr, written map[types.Object]bool) bool {
	pure := true
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			if obj := pass.TypesInfo.ObjectOf(x); obj != nil && written[obj] {
				pure = false
			}
		case *ast.CallExpr:
			if tv, ok := pass.TypesInfo.Types[x.Fun]; ok && tv.IsType() {
				return true // conversion
			}
			if id, ok := x.Fun.(*ast.Ident); ok {
				if b, okb := pass.TypesInfo.Uses[id].(*types.Builtin); okb {
					switch b.Name() {
					case "len", "cap", "min", "max":
						return true
					}
				}
			}
			pure = false
		}
		return pure
	})
	return pure
}

func sameIdent(a, b ast.Expr) bool {
	ai, aok := a.(*ast.Ident)
	bi, bok := b.(*ast.Ident)
	return aok && bok && ai.Name == bi.Name
}

func isDeleteCall(pass *Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "delete"
}

func isIntLike(t types.Type) bool {
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsInteger != 0
}

func isBoolType(t types.Type) bool {
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsBoolean != 0
}

// collectWrites records every object assigned or inc/dec'd in the body.
func collectWrites(pass *Pass, body *ast.BlockStmt, out map[types.Object]bool) {
	record := func(e ast.Expr) {
		if id, ok := rootIdent(e); ok {
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
				out[obj] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, l := range s.Lhs {
				record(l)
			}
		case *ast.IncDecStmt:
			record(s.X)
		}
		return true
	})
}

// rootIdent walks to the base identifier of x, x.f, x[i].
func rootIdent(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, true
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}

// appendThenSorted proves the collect-then-sort idiom: the body is
// exactly `s = append(s, ...)` and some later statement in an enclosing
// block passes s (or &s) to a function in package sort or slices.
func appendThenSorted(pass *Pass, rng *ast.RangeStmt, blocks []*ast.BlockStmt) bool {
	if len(rng.Body.List) != 1 {
		return false
	}
	asg, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || asg.Tok != token.ASSIGN || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	if b, okb := pass.TypesInfo.Uses[fn].(*types.Builtin); !okb || b.Name() != "append" {
		return false
	}
	// The destination may be any stable lvalue (keys, v.nbrs, ...); match
	// append's first argument and the later sort argument by canonical
	// expression text.
	dst := types.ExprString(asg.Lhs[0])
	if len(call.Args) == 0 || types.ExprString(call.Args[0]) != dst {
		return false
	}
	// Scan statements after the loop in every enclosing block for a
	// sort.*/slices.* call taking dst.
	for _, b := range blocks {
		after := false
		for _, st := range b.List {
			if !after {
				if containsPos(st, rng.Pos()) {
					after = true
				}
				continue
			}
			if stmtSorts(pass, st, dst) {
				return true
			}
		}
	}
	return false
}

func containsPos(n ast.Node, pos token.Pos) bool {
	return n.Pos() <= pos && pos < n.End()
}

func stmtSorts(pass *Pass, st ast.Stmt, dst string) bool {
	found := false
	ast.Inspect(st, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		pkg, _, ok := calleePkgFunc(pass, call)
		if !ok {
			return true
		}
		switch pkg {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			if types.ExprString(arg) == dst {
				found = true
			}
		}
		return !found
	})
	return found
}
