// Package release checks that every transaction descriptor minted with
// NewTx is released on every exit path of the function that minted it. A
// descriptor that is dropped instead retains its TM slot forever; enough
// of them exhaust maxSlots and park every new transaction (the PR 2
// slot-exhaustion failure mode, of which this analyzer is the static
// twin).
//
// The analysis is intraprocedural and ownership-based:
//
//   - Passing the descriptor to an atomic runner (Atomic / AtomicRO /
//     AtomicSnap or an in-package wrapper) is a borrow, not a transfer:
//     the creator still owns it.
//   - Passing it to any other function, returning it, or storing it into
//     a structure transfers ownership; the analysis then trusts the new
//     owner and stops (no diagnostic).
//   - A deferred Release covers every subsequent exit, panics
//     included, and is the recommended form. A non-deferred release only
//     covers the paths that reach it: each return reachable first is
//     reported, and a release that sits after an atomic-runner call on
//     the same descriptor is reported too — a foreign panic unwinding out
//     of the body would skip it.
//
// Test files are skipped: tests mint throwaway TMs whose descriptors die
// with the process. Intentional leaks (none are known) would be annotated
// //stm:allow-unreleased with a reason.
package release

import (
	"go/ast"
	"go/types"
	"strings"

	"tinystm/internal/analysis/framework"
	"tinystm/internal/analysis/stmapi"
)

// Analyzer is the release analyzer.
var Analyzer = &framework.Analyzer{
	Name:   "release",
	Doc:    "report descriptors (NewTx) not released on every exit path",
	Marker: "unreleased",
	Run:    run,
}

func run(pass *framework.Pass) error {
	info := pass.TypesInfo
	wrappers := stmapi.FindWrappers(info, pass.Files)
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		// Visit every function body (declarations and literals).
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				checkFunc(pass, wrappers, body)
			}
			return true
		})
	}
	return nil
}

// creation is one descriptor-minting statement.
type creation struct {
	obj  types.Object
	stmt ast.Stmt
}

func checkFunc(pass *framework.Pass, wrappers stmapi.Wrappers, body *ast.BlockStmt) {
	info := pass.TypesInfo
	for _, c := range findCreations(info, body) {
		// Creations inside nested function literals are handled when the
		// literal itself is visited.
		if inNestedFunc(body, c.stmt) {
			continue
		}
		t := &tracker{pass: pass, info: info, wrappers: wrappers, c: c}
		if t.escapes(body) {
			continue // ownership transferred: trust the new owner
		}
		path := pathTo(body, c.stmt)
		if path == nil {
			continue
		}
		t.walkFrom(path)
	}
}

// findCreations scans body (nested literals excluded by the caller) for
// `x := tm.NewTx()` statements.
func findCreations(info *types.Info, body *ast.BlockStmt) []creation {
	var out []creation
	ast.Inspect(body, func(n ast.Node) bool {
		st, ok := n.(ast.Stmt)
		if !ok {
			return true
		}
		switch s := st.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			if !stmapi.TxSourceCall(info, call) {
				return true
			}
			id, ok := s.Lhs[0].(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj != nil {
				out = append(out, creation{obj: obj, stmt: s})
			}
		case *ast.DeclStmt:
			gd, ok := s.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) != 1 || len(vs.Values) != 1 {
					continue
				}
				call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr)
				if !ok {
					continue
				}
				if !stmapi.TxSourceCall(info, call) {
					continue
				}
				if obj := info.Defs[vs.Names[0]]; obj != nil {
					out = append(out, creation{obj: obj, stmt: s})
				}
			}
		}
		return true
	})
	return out
}

// inNestedFunc reports whether stmt sits inside a function literal nested
// in body.
func inNestedFunc(body *ast.BlockStmt, stmt ast.Stmt) bool {
	nested := false
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			if stmapi.PosWithin(stmt.Pos(), lit) {
				nested = true
			}
			return false
		}
		return true
	})
	return nested
}

type tracker struct {
	pass     *framework.Pass
	info     *types.Info
	wrappers stmapi.Wrappers
	c        creation
	// sawRunner is set once an atomic-runner call borrows the descriptor
	// along the current path; a later non-deferred release is then only
	// reached when no foreign panic unwound out of the body.
	sawRunner bool
}

// usesOf classifies every use of the descriptor in expr context.

// escapes reports whether the descriptor's ownership leaves this function:
// any use that is not a method call on it, a borrow by an atomic runner,
// or a recognized release.
func (t *tracker) escapes(body *ast.BlockStmt) bool {
	escaped := false
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		id, ok := n.(*ast.Ident)
		if !ok || t.info.Uses[id] != t.c.obj {
			return true
		}
		if !t.benignUse(id, stack) {
			escaped = true
		}
		return true
	})
	return escaped
}

// benignUse decides whether one identifier occurrence keeps ownership
// here: method-call receivers, release calls, and atomic-runner borrows.
func (t *tracker) benignUse(id *ast.Ident, stack []ast.Node) bool {
	// stack ends with id itself; parent is stack[len-2].
	if len(stack) < 2 {
		return false
	}
	parent := stack[len(stack)-2]
	// x.Method(...): the selector's parent must be the call's Fun.
	if sel, ok := parent.(*ast.SelectorExpr); ok && sel.X == id && len(stack) >= 3 {
		if call, ok := stack[len(stack)-3].(*ast.CallExpr); ok && call.Fun == sel {
			return true
		}
		return false // x.field or method value: treated as escape
	}
	if call, ok := parent.(*ast.CallExpr); ok && call.Fun != id {
		// x as a call argument.
		if t.isReleaseCall(call) {
			return true
		}
		if kind, _ := stmapi.ClassifyCall(t.info, t.wrappers, call); kind != stmapi.NotBody {
			return true // borrowed by an atomic runner
		}
		return false
	}
	return false
}

// isReleaseCall reports whether call releases the tracked descriptor:
// x.Release(), or a call to a function named release/Release with x among
// its arguments (the txn.Release helper pattern).
func (t *tracker) isReleaseCall(call *ast.CallExpr) bool {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Release" && len(call.Args) == 0 {
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && t.info.Uses[id] == t.c.obj {
			return true
		}
	}
	name := calleeName(call)
	if strings.EqualFold(name, "release") {
		for _, a := range call.Args {
			if id, ok := ast.Unparen(a).(*ast.Ident); ok && t.info.Uses[id] == t.c.obj {
				return true
			}
		}
	}
	return false
}

func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// pathStep is one level of the statement-list chain from the function
// body down to the creation statement.
type pathStep struct {
	list []ast.Stmt
	idx  int
	// loop marks lists that are loop bodies: falling off the end starts a
	// new iteration, which re-mints a descriptor, so the old one must be
	// released by then.
	loop bool
}

// pathTo builds the chain of enclosing statement lists from body down to
// target. Returns nil when target is not reachable through plain blocks
// (e.g. inside an if-init statement).
func pathTo(body *ast.BlockStmt, target ast.Stmt) []pathStep {
	var path []pathStep
	var find func(list []ast.Stmt, loop bool) bool
	find = func(list []ast.Stmt, loop bool) bool {
		for i, st := range list {
			if st == target {
				path = append(path, pathStep{list: list, idx: i, loop: loop})
				return true
			}
			if !stmapi.PosWithin(target.Pos(), st) {
				continue
			}
			path = append(path, pathStep{list: list, idx: i, loop: loop})
			for _, sub := range subLists(st) {
				if find(sub.list, sub.loop) {
					return true
				}
			}
			return false // inside a construct we do not model (if-init, …)
		}
		return false
	}
	if !find(body.List, false) {
		return nil
	}
	return path
}

type subList struct {
	list []ast.Stmt
	loop bool
}

func subLists(st ast.Stmt) []subList {
	switch s := st.(type) {
	case *ast.BlockStmt:
		return []subList{{list: s.List}}
	case *ast.IfStmt:
		out := []subList{{list: s.Body.List}}
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			out = append(out, subList{list: e.List})
		case *ast.IfStmt:
			out = append(out, subLists(e)...)
		}
		return out
	case *ast.ForStmt:
		return []subList{{list: s.Body.List, loop: true}}
	case *ast.RangeStmt:
		return []subList{{list: s.Body.List, loop: true}}
	case *ast.SwitchStmt:
		return clauseLists(s.Body)
	case *ast.TypeSwitchStmt:
		return clauseLists(s.Body)
	case *ast.SelectStmt:
		return clauseLists(s.Body)
	case *ast.LabeledStmt:
		return subLists(s.Stmt)
	}
	return nil
}

func clauseLists(body *ast.BlockStmt) []subList {
	var out []subList
	for _, c := range body.List {
		switch cl := c.(type) {
		case *ast.CaseClause:
			out = append(out, subList{list: cl.Body})
		case *ast.CommClause:
			out = append(out, subList{list: cl.Body})
		}
	}
	return out
}

// walkFrom walks the continuation of the creation: the rest of its own
// statement list, then the rest of each enclosing list, innermost first.
// A loop-body boundary or the function end reached without a release is a
// leak; so is every return statement reached first.
func (t *tracker) walkFrom(path []pathStep) {
	released := false
	for level := len(path) - 1; level >= 0; level-- {
		step := path[level]
		var res walkResult
		res, released = t.walkSeq(step.list[step.idx+1:], released)
		if released {
			return
		}
		if res == stopped {
			return // terminator or covered by defer on every continuation
		}
		if step.loop {
			t.pass.Reportf(t.c.stmt.Pos(), "descriptor %q from NewTx is not released before the next loop iteration (each iteration mints another; call Release or hoist the descriptor out of the loop)", objName(t.c.obj))
			return
		}
	}
	t.pass.Reportf(t.c.stmt.Pos(), "descriptor %q from NewTx is not released before the function returns (add `defer tx.Release()` right after minting it)", objName(t.c.obj))
}

type walkResult int

const (
	fellThrough walkResult = iota
	stopped                // path terminated (return reported, panic, exit)
)

// walkSeq walks one statement list with the given released state,
// reporting leaks at returns. It returns how the sequence ends and the
// released state at its end.
func (t *tracker) walkSeq(list []ast.Stmt, released bool) (walkResult, bool) {
	for _, st := range list {
		if released {
			return fellThrough, true
		}
		switch s := st.(type) {
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
				if t.isReleaseCall(call) {
					if t.sawRunner {
						t.pass.Reportf(call.Pos(), "descriptor %q from NewTx is released only on non-panic paths: a foreign panic unwinding out of the atomic body skips this release — use defer", objName(t.c.obj))
					}
					released = true
					continue
				}
				if t.isTerminatorCall(call) {
					return stopped, released
				}
				if t.borrowsObj(call) {
					t.sawRunner = true
				}
			}
		case *ast.DeferStmt:
			if t.deferReleases(s) {
				released = true
				continue
			}
		case *ast.ReturnStmt:
			t.pass.Reportf(s.Pos(), "descriptor %q from NewTx is not released on this return path (release it before returning, or `defer` the release right after minting)", objName(t.c.obj))
			return stopped, released
		case *ast.IfStmt:
			res := t.walkIf(s, released)
			if res.allReleased {
				released = true
				continue
			}
			if res.allStopped {
				return stopped, released
			}
		case *ast.BlockStmt:
			var res walkResult
			res, released = t.walkSeq(s.List, released)
			if res == stopped {
				return stopped, released
			}
		case *ast.ForStmt:
			t.walkSeq(s.Body.List, released) // body may run zero times
		case *ast.RangeStmt:
			t.walkSeq(s.Body.List, released)
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			all := true
			for _, sub := range subLists(s) {
				res, rel := t.walkSeq(sub.list, released)
				if !(rel || res == stopped) {
					all = false
				}
			}
			// Without a default clause the zero-clause path falls through
			// unreleased, so `all` alone cannot prove release.
			if all && hasDefault(s) {
				return stopped, released
			}
		case *ast.LabeledStmt:
			var res walkResult
			res, released = t.walkSeq([]ast.Stmt{s.Stmt}, released)
			if res == stopped {
				return stopped, released
			}
		}
	}
	return fellThrough, released
}

type ifResult struct {
	allReleased bool
	allStopped  bool
}

func (t *tracker) walkIf(s *ast.IfStmt, released bool) ifResult {
	thenRes, thenRel := t.walkSeq(s.Body.List, released)
	elseRes, elseRel := fellThrough, released
	switch e := s.Else.(type) {
	case *ast.BlockStmt:
		elseRes, elseRel = t.walkSeq(e.List, released)
	case *ast.IfStmt:
		r := t.walkIf(e, released)
		if r.allReleased {
			elseRel = true
		}
		if r.allStopped {
			elseRes = stopped
		}
	case nil:
		// No else: the fall-through path keeps the pre-if state.
		return ifResult{}
	}
	return ifResult{
		allReleased: thenRel && elseRel,
		allStopped: thenRes == stopped && elseRes == stopped &&
			// A stop that was a reported leak still ends the path; for
			// control-flow purposes both count as "does not continue".
			true,
	}
}

func hasDefault(st ast.Stmt) bool {
	var body *ast.BlockStmt
	switch s := st.(type) {
	case *ast.SwitchStmt:
		body = s.Body
	case *ast.TypeSwitchStmt:
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
	default:
		return false
	}
	for _, c := range body.List {
		switch cl := c.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				return true
			}
		case *ast.CommClause:
			if cl.Comm == nil {
				return true
			}
		}
	}
	return false
}

// deferReleases reports whether a defer statement releases the tracked
// descriptor, directly or via a closure.
func (t *tracker) deferReleases(s *ast.DeferStmt) bool {
	if t.isReleaseCall(s.Call) {
		return true
	}
	if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
		found := false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && t.isReleaseCall(call) {
				found = true
			}
			return !found
		})
		return found
	}
	return false
}

// borrowsObj reports whether call is an atomic-runner call taking the
// tracked descriptor (a borrow whose body can panic with a foreign panic).
func (t *tracker) borrowsObj(call *ast.CallExpr) bool {
	kind, _ := stmapi.ClassifyCall(t.info, t.wrappers, call)
	if kind == stmapi.NotBody {
		return false
	}
	for _, a := range call.Args {
		if id, ok := ast.Unparen(a).(*ast.Ident); ok && t.info.Uses[id] == t.c.obj {
			return true
		}
	}
	return false
}

// isTerminatorCall reports calls that never return: panic, os.Exit,
// log.Fatal*, runtime.Goexit, t.Fatal family.
func (t *tracker) isTerminatorCall(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic" && t.info.Uses[fun] == nil
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		if id, ok := fun.X.(*ast.Ident); ok {
			if pkg, ok := t.info.Uses[id].(*types.PkgName); ok {
				path := pkg.Imported().Path()
				switch {
				case path == "os" && name == "Exit":
					return true
				case path == "log" && strings.HasPrefix(name, "Fatal"):
					return true
				case path == "runtime" && name == "Goexit":
					return true
				}
				return false
			}
		}
		switch name {
		case "Fatal", "Fatalf", "FailNow", "Skip", "Skipf", "SkipNow":
			// t.Fatal family on a testing receiver.
			return isTestingRecv(t.info.TypeOf(fun.X))
		}
	}
	return false
}

func isTestingRecv(tt types.Type) bool {
	if tt == nil {
		return false
	}
	if p, ok := tt.(*types.Pointer); ok {
		tt = p.Elem()
	}
	n, ok := tt.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "testing"
}

func objName(obj types.Object) string { return obj.Name() }
