// Package txbody checks that closures passed to Atomic / AtomicRO /
// AtomicSnap are safe to re-execute: transactional bodies run again from
// the top every time the attempt aborts (conflict, validation failure,
// snapshot-too-old, roll-over), so anything a body does besides
// transactional loads and stores happens once per ATTEMPT, not once per
// commit. Bodies passed to Irrevocable are checked alike: they run once,
// but a panic rolls back only their transactional stores, and a body is
// often shared with Atomic (kvstore's batches).
//
// Flagged, lexically inside a body (nested closures included):
//
//   - non-idempotent mutation of captured state with no in-body reset:
//     x++, x += e, x = append(x, ...) on a variable declared outside the
//     body, or on a field of one (x.f++). A plain re-assignment (x = e) or truncation (x = x[:0])
//     earlier in the body counts as a reset and legitimizes later
//     accumulation — re-execution then starts clean.
//   - channel sends, close, and goroutine launches: they cannot be undone
//     by rollback and duplicate on retry.
//   - sync.Mutex / sync.RWMutex lock operations: an abort unwinds by
//     panic, skipping the unlock, and a retry double-locks.
//   - I/O (fmt print family, package log, package os calls, os.File
//     writes, print/println builtins): duplicated on retry.
//   - time.Now / time.Since / time.Sleep and math/rand calls: each retry
//     observes (or produces) a different value, so the committed state
//     depends on the abort history.
//   - nested Atomic* runner calls: transactions do not nest.
//   - t.Fatal / t.Skip family: they stop the goroutine via runtime.Goexit,
//     which is not a panic, so the STM's rollback-on-panic never runs and
//     the attempt's locks and descriptor state leak.
//
// Intentional violations are annotated //stm:allow-effect with a reason.
package txbody

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"tinystm/internal/analysis/framework"
	"tinystm/internal/analysis/stmapi"
)

// Analyzer is the txbody analyzer.
var Analyzer = &framework.Analyzer{
	Name:   "txbody",
	Doc:    "report side effects in transactional bodies, which re-execute on abort",
	Marker: "effect",
	Run:    run,
}

func run(pass *framework.Pass) error {
	info := pass.TypesInfo
	wrappers := stmapi.FindWrappers(info, pass.Files)
	funcLits := stmapi.LocalFuncLits(info, pass.Files)
	seen := make(map[*ast.FuncLit]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			kind, bodyArg := stmapi.ClassifyCall(info, wrappers, call)
			if kind == stmapi.NotBody {
				return true
			}
			body := stmapi.ResolveBody(funcLits, info, bodyArg)
			if body == nil || seen[body] {
				return true
			}
			seen[body] = true
			checkBody(pass, kind, body)
			return true
		})
	}
	return nil
}

func checkBody(pass *framework.Pass, kind stmapi.BodyKind, body *ast.FuncLit) {
	info := pass.TypesInfo
	resets := collectResets(info, body)
	ast.Inspect(body.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(st.Arrow, "channel send inside %s body: bodies re-execute on abort, duplicating the send", kind)
		case *ast.GoStmt:
			pass.Reportf(st.Go, "goroutine launched inside %s body: bodies re-execute on abort, duplicating the launch", kind)
		case *ast.IncDecStmt:
			if obj := capturedVar(info, body, st.X); obj != nil && !resetBefore(resets, obj, st.Pos()) {
				pass.Reportf(st.Pos(), "captured variable %q mutated non-idempotently inside %s body with no in-body reset: retries accumulate", obj.Name(), kind)
			}
		case *ast.AssignStmt:
			checkAssign(pass, kind, body, resets, st)
		case *ast.CallExpr:
			checkCall(pass, kind, st)
		}
		return true
	})
}

// checkAssign flags compound assignment and self-append on captured
// variables.
func checkAssign(pass *framework.Pass, kind stmapi.BodyKind, body *ast.FuncLit, resets []reset, st *ast.AssignStmt) {
	info := pass.TypesInfo
	switch st.Tok {
	case token.ASSIGN, token.DEFINE:
		if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
			return
		}
		obj := capturedVar(info, body, st.Lhs[0])
		if obj == nil {
			return
		}
		// x = append(x, ...) grows captured state across retries unless a
		// reset precedes it.
		call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || fn.Name != "append" || len(call.Args) == 0 {
			return
		}
		if arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && info.Uses[arg] == obj && !resetBefore(resets, obj, st.Pos()) {
			pass.Reportf(st.Pos(), "captured slice %q appended to inside %s body with no in-body reset: retries accumulate", obj.Name(), kind)
		}
	default:
		// Compound assignment: +=, -=, |=, ...
		if len(st.Lhs) != 1 {
			return
		}
		if obj := capturedVar(info, body, st.Lhs[0]); obj != nil && !resetBefore(resets, obj, st.Pos()) {
			pass.Reportf(st.Pos(), "captured variable %q mutated non-idempotently inside %s body with no in-body reset: retries accumulate", obj.Name(), kind)
		}
	}
}

func checkCall(pass *framework.Pass, kind stmapi.BodyKind, call *ast.CallExpr) {
	info := pass.TypesInfo
	if k, _ := stmapi.ClassifyRunner(info, call); k != stmapi.NotBody {
		pass.Reportf(call.Pos(), "nested %s call inside %s body: transactions do not nest, and the inner commit survives an outer abort", k, kind)
		return
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		// A shadowing user function resolves to *types.Func; only the
		// predeclared builtins (object *types.Builtin) are the real thing.
		_, isBuiltin := info.Uses[fun].(*types.Builtin)
		if fun.Name == "close" && isBuiltin {
			pass.Reportf(call.Pos(), "channel close inside %s body: bodies re-execute on abort", kind)
		}
		if (fun.Name == "print" || fun.Name == "println") && isBuiltin {
			pass.Reportf(call.Pos(), "%s inside %s body: I/O re-executes on abort", fun.Name, kind)
		}
	case *ast.SelectorExpr:
		checkSelectorCall(pass, kind, call, fun)
	}
}

func checkSelectorCall(pass *framework.Pass, kind stmapi.BodyKind, call *ast.CallExpr, sel *ast.SelectorExpr) {
	info := pass.TypesInfo
	name := sel.Sel.Name

	// Qualified package calls: pkg.Func(...).
	if id, ok := sel.X.(*ast.Ident); ok {
		if pkgName, ok := info.Uses[id].(*types.PkgName); ok {
			checkPkgCall(pass, kind, call, pkgName.Imported().Path(), name)
			return
		}
	}

	recv := info.TypeOf(sel.X)
	switch {
	case isSyncLock(recv) && lockMethod(name):
		pass.Reportf(call.Pos(), "%s.%s inside %s body: aborts unwind by panic past the unlock and the retry double-locks", typeShort(recv), name, kind)
	case isNamedFrom(recv, "testing") && fatalMethod(name):
		pass.Reportf(call.Pos(), "t.%s inside %s body: it exits via runtime.Goexit, skipping the STM's rollback (locks and descriptor state leak)", name, kind)
	case isTestingTB(recv) && fatalMethod(name):
		pass.Reportf(call.Pos(), "t.%s inside %s body: it exits via runtime.Goexit, skipping the STM's rollback (locks and descriptor state leak)", name, kind)
	case isNamedType(recv, "os", "File") && (name == "Write" || name == "WriteString" || name == "WriteAt" || name == "Close" || name == "Sync"):
		pass.Reportf(call.Pos(), "os.File.%s inside %s body: I/O re-executes on abort", name, kind)
	case isNamedType(recv, "math/rand", "Rand") || isNamedType(recv, "math/rand/v2", "Rand"):
		pass.Reportf(call.Pos(), "rand.Rand.%s inside %s body: the generator state advances per attempt, so retries observe different values", name, kind)
	}
}

func checkPkgCall(pass *framework.Pass, kind stmapi.BodyKind, call *ast.CallExpr, pkgPath, name string) {
	switch pkgPath {
	case "fmt":
		// Print*, Fprint* — Sprint* is pure and fine.
		if strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") {
			pass.Reportf(call.Pos(), "fmt.%s inside %s body: I/O re-executes on abort", name, kind)
		}
	case "log":
		pass.Reportf(call.Pos(), "log.%s inside %s body: I/O re-executes on abort (and log.Fatal exits without rollback)", name, kind)
	case "os":
		pass.Reportf(call.Pos(), "os.%s inside %s body: process/file-system effects re-execute on abort", name, kind)
	case "time":
		switch name {
		case "Now", "Since", "Until":
			pass.Reportf(call.Pos(), "time.%s inside %s body: each retry observes a different value, so committed state depends on the abort history", name, kind)
		case "Sleep", "Tick", "After":
			pass.Reportf(call.Pos(), "time.%s inside %s body: stalling a body holds its encounter-time locks across the wait", name, kind)
		}
	case "math/rand", "math/rand/v2":
		pass.Reportf(call.Pos(), "rand.%s inside %s body: the generator state advances per attempt, so retries observe different values", name, kind)
	}
}

// reset is one idempotent re-assignment of a captured variable inside the
// body: `x = e` where e does not read x, or the truncation `x = x[:0]`.
type reset struct {
	obj types.Object
	pos token.Pos
}

func collectResets(info *types.Info, body *ast.FuncLit) []reset {
	var out []reset
	ast.Inspect(body.Body, func(n ast.Node) bool {
		st, ok := n.(*ast.AssignStmt)
		if !ok || st.Tok != token.ASSIGN {
			return true
		}
		for i, lhs := range st.Lhs {
			if i >= len(st.Rhs) {
				break
			}
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Uses[id]
			if obj == nil {
				continue
			}
			if isReset(info, obj, st.Rhs[i]) {
				out = append(out, reset{obj: obj, pos: st.Pos()})
			}
		}
		return true
	})
	return out
}

// isReset reports whether rhs is an idempotent value for obj: an
// expression that does not read obj, or obj[:0].
func isReset(info *types.Info, obj types.Object, rhs ast.Expr) bool {
	rhs = ast.Unparen(rhs)
	if sl, ok := rhs.(*ast.SliceExpr); ok {
		if id, ok := ast.Unparen(sl.X).(*ast.Ident); ok && info.Uses[id] == obj {
			// x[:0] (and x[:n] generally) restarts the slice.
			return sl.Low == nil
		}
	}
	reads := false
	ast.Inspect(rhs, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			reads = true
		}
		return !reads
	})
	return !reads
}

func resetBefore(resets []reset, obj types.Object, pos token.Pos) bool {
	for _, r := range resets {
		if r.obj == obj && r.pos < pos {
			return true
		}
	}
	return false
}

// capturedVar resolves expr to a variable declared OUTSIDE the body
// literal (captured by reference), or nil. A field path x.f.g is state of
// its root variable x: when x is captured, the selected field is returned.
func capturedVar(info *types.Info, body *ast.FuncLit, expr ast.Expr) types.Object {
	expr = ast.Unparen(expr)
	if sel, ok := expr.(*ast.SelectorExpr); ok {
		field, isVar := info.Uses[sel.Sel].(*types.Var)
		if !isVar || !field.IsField() || capturedVar(info, body, sel.X) == nil {
			return nil
		}
		return field
	}
	id, ok := expr.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := info.Uses[id]
	if obj == nil {
		return nil
	}
	if _, isVar := obj.(*types.Var); !isVar {
		return nil
	}
	if stmapi.PosWithin(obj.Pos(), body) {
		return nil // declared inside the body: each attempt gets a fresh one
	}
	return obj
}

func lockMethod(name string) bool {
	switch name {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
		return true
	}
	return false
}

func fatalMethod(name string) bool {
	switch name {
	case "Fatal", "Fatalf", "FailNow", "Skip", "Skipf", "SkipNow":
		return true
	}
	return false
}

func isSyncLock(t types.Type) bool {
	return isNamedType(t, "sync", "Mutex") || isNamedType(t, "sync", "RWMutex")
}

func isNamedType(t types.Type, pkgPath, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// isNamedFrom reports whether t is declared in pkgPath (any name) —
// matches *testing.T, *testing.B, *testing.F.
func isNamedFrom(t types.Type, pkgPath string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// isTestingTB matches the testing.TB interface by name and package.
func isTestingTB(t types.Type) bool {
	return isNamedType(t, "testing", "TB")
}

func typeShort(t types.Type) string {
	if t == nil {
		return "?"
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		if n.Obj().Pkg() != nil {
			return n.Obj().Pkg().Name() + "." + n.Obj().Name()
		}
		return n.Obj().Name()
	}
	return t.String()
}
