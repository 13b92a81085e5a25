// Package redoscope checks that Tx.Redo — the durability layer's redo
// capture — is only invoked from update-transaction bodies. Redo records
// describe logical state changes; a read-only or snapshot body has none,
// and a structural transaction (raw Begin/Commit on a descriptor: shard
// growth, recovery loading) must never be logged, because replay folds
// the log into logical key/value state only.
//
// Three shapes are flagged:
//
//   - Redo lexically inside an AtomicRO / AtomicSnap body;
//   - Redo reachable from an AtomicRO / AtomicSnap body through
//     in-package helpers (reported at the runner call site);
//   - Redo on a descriptor that the same function drives with a raw
//     Begin — a structural transaction.
//
// Helpers that take a descriptor parameter and call Redo (the kvstore
// composition pattern) are fine: the caller's execution mode decides, and
// the caller is where a violation is reported.
package redoscope

import (
	"fmt"
	"go/ast"
	"go/types"

	"tinystm/internal/analysis/framework"
	"tinystm/internal/analysis/stmapi"
)

// Analyzer is the redoscope analyzer.
var Analyzer = &framework.Analyzer{
	Name:   "redoscope",
	Doc:    "report Tx.Redo outside update-transaction bodies",
	Marker: "redo",
	Run:    run,
}

const maxDepth = 10

func run(pass *framework.Pass) error {
	info := pass.TypesInfo
	wrappers := stmapi.FindWrappers(info, pass.Files)
	funcLits := stmapi.LocalFuncLits(info, pass.Files)
	decls := stmapi.FuncDecls(info, pass.Files)

	for _, f := range pass.Files {
		// Rule 1+2: Redo reachable under a read-only runner.
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			kind, bodyArg := stmapi.ClassifyCall(info, wrappers, call)
			if !kind.ReadOnlyKind() {
				return true
			}
			w := &walker{pass: pass, info: info, decls: decls, kind: kind, visited: make(map[*types.Func]bool)}
			if _, isInline := ast.Unparen(bodyArg).(*ast.FuncLit); !isInline {
				w.reportAt = call
			}
			for _, body := range stmapi.ResolveBody(funcLits, info, bodyArg) {
				w.walk(body.Body, nil, 0)
			}
			return true
		})

		// Rule 3: Redo on a structurally driven descriptor. A function
		// that calls x.Begin(...) runs x outside any Atomic retry loop;
		// Redo on that x would log a structural transaction.
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			structural := make(map[types.Object]bool)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if sel.Sel.Name == "Begin" && stmapi.IsTxLike(info.TypeOf(sel.X)) {
					if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
						if obj := info.Uses[id]; obj != nil {
							structural[obj] = true
						}
					}
				}
				return true
			})
			if len(structural) == 0 {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !stmapi.RedoCall(info, call) {
					return true
				}
				sel := call.Fun.(*ast.SelectorExpr)
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil && structural[obj] {
						pass.Reportf(call.Pos(), "Redo on descriptor %q driven by a raw Begin: structural transactions must not be logged (redo records are for update-transaction bodies only)", id.Name)
					}
				}
				return true
			})
		}
	}
	return nil
}

type walker struct {
	pass     *framework.Pass
	info     *types.Info
	decls    map[*types.Func]*ast.FuncDecl
	kind     stmapi.BodyKind
	visited  map[*types.Func]bool
	reportAt *ast.CallExpr
	reported map[string]bool
}

func (w *walker) walk(n ast.Node, via []string, depth int) {
	if depth > maxDepth {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if stmapi.RedoCall(w.info, call) {
			w.report(call, via)
			return true
		}
		fn := stmapi.CalleeFunc(w.info, call)
		if fn == nil {
			return true
		}
		orig := fn.Origin()
		if w.visited[orig] || stmapi.OpaqueCallee(orig) {
			return true
		}
		if decl, ok := w.decls[orig]; ok {
			w.visited[orig] = true
			w.walk(decl.Body, append(via, orig.Name()), depth+1)
		}
		return true
	})
}

func (w *walker) report(call *ast.CallExpr, via []string) {
	chain := ""
	for _, v := range via {
		chain += v + " -> "
	}
	if chain != "" {
		chain = " via " + chain[:len(chain)-4]
	}
	if w.reportAt != nil {
		p := w.pass.Fset.Position(call.Pos())
		key := fmt.Sprintf("%s|%d", chain, w.reportAt.Pos())
		if w.reported == nil {
			w.reported = make(map[string]bool)
		}
		if w.reported[key] {
			return
		}
		w.reported[key] = true
		w.pass.Reportf(w.reportAt.Pos(), "%s body reaches Redo at %s:%d%s: redo records belong to update-transaction bodies only", w.kind, p.Filename, p.Line, chain)
		return
	}
	w.pass.Reportf(call.Pos(), "Redo inside %s body%s: redo records belong to update-transaction bodies only", w.kind, chain)
}
