// Package rowrite checks that read-only and snapshot transaction bodies
// never write: no tx.Store / tx.Free, and no mutating transactional-map
// operation (Put, Delete, CAS, Add taking a descriptor). AtomicRO
// bodies that write trigger the upgrade-on-write abort and restart as
// update transactions — correct but silently twice the work; AtomicSnap
// bodies that write abandon their wait-free guarantee the same way. A
// body that intends the upgrade documents it with //stm:allow-write.
//
// The check walks the in-package call graph: a body that calls a helper
// which writes is flagged at the runner call site (the helper may be
// shared with update bodies, so the helper itself is not the violation).
package rowrite

import (
	"fmt"
	"go/ast"
	"go/types"

	"tinystm/internal/analysis/framework"
	"tinystm/internal/analysis/stmapi"
)

// Analyzer is the rowrite analyzer.
var Analyzer = &framework.Analyzer{
	Name:   "rowrite",
	Doc:    "report writes reachable inside AtomicRO / AtomicSnap bodies",
	Marker: "write",
	Run:    run,
}

// maxDepth bounds the in-package call-graph walk.
const maxDepth = 10

func run(pass *framework.Pass) error {
	info := pass.TypesInfo
	wrappers := stmapi.FindWrappers(info, pass.Files)
	funcLits := stmapi.LocalFuncLits(info, pass.Files)
	decls := stmapi.FuncDecls(info, pass.Files)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			kind, bodyArg := stmapi.ClassifyCall(info, wrappers, call)
			if !kind.ReadOnlyKind() {
				return true
			}
			w := &walker{
				pass:    pass,
				info:    info,
				decls:   decls,
				kind:    kind,
				visited: make(map[*types.Func]bool),
			}
			// Inline literal: report at each write. Resolved through a
			// variable: the literal may be shared with update runners (the
			// batch-apply pattern), so report at the runner call site.
			if _, isInline := ast.Unparen(bodyArg).(*ast.FuncLit); !isInline {
				w.reportAt = call
			}
			for _, body := range stmapi.ResolveBody(funcLits, info, bodyArg) {
				w.walkNode(body.Body, nil, 0, nil)
			}
			return true
		})
	}
	return nil
}

type walker struct {
	pass    *framework.Pass
	info    *types.Info
	decls   map[*types.Func]*ast.FuncDecl
	kind    stmapi.BodyKind
	visited map[*types.Func]bool
	// reportAt, when set, anchors diagnostics at the runner call instead
	// of the write site (body resolved through a shared variable).
	reportAt *ast.CallExpr
	reported map[string]bool
}

// walkNode scans one function body. via names the call chain from the
// transactional body to this function; anchor, when non-nil, is the
// top-level call inside the body that led into helper code — diagnostics
// for nested writes land there, so the annotation goes next to the body's
// own code, not inside a helper shared with update bodies.
func (w *walker) walkNode(n ast.Node, via []string, depth int, anchor *ast.CallExpr) {
	if depth > maxDepth {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if label, isMut := stmapi.MutatorCall(w.info, call); isMut {
			w.report(call, anchor, label, via)
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
			next := anchor
			if next == nil {
				next = call
			}
			w.walkNode(decl.Body, append(via, orig.Name()), depth+1, next)
		}
		return true
	})
}

func (w *walker) report(call, anchor *ast.CallExpr, label string, via []string) {
	chain := ""
	for _, v := range via {
		chain += v + " -> "
	}
	if chain != "" {
		chain = " via " + chain[:len(chain)-4]
	}
	at := w.reportAt
	if at == nil {
		at = anchor
	}
	if at == nil {
		// Write lexically inside the body literal.
		w.pass.Reportf(call.Pos(), "%s inside %s body: read-only bodies must not write (//stm:allow-write documents an intended upgrade-on-write)",
			label, w.kind)
		return
	}
	// Reached through a helper or a shared body variable: anchor the
	// diagnostic where the caller can annotate it, one per anchor (the
	// first write found stands in for the rest).
	key := fmt.Sprintf("%d", at.Pos())
	if w.reported == nil {
		w.reported = make(map[string]bool)
	}
	if w.reported[key] {
		return
	}
	w.reported[key] = true
	p := w.pass.Fset.Position(call.Pos())
	w.pass.Reportf(at.Pos(), "%s body reaches a write: %s at %s:%d%s (read-only bodies must not write; //stm:allow-write documents an intended upgrade-on-write)",
		w.kind, label, p.Filename, p.Line, chain)
}
