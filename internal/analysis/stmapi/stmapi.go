// Package stmapi recognizes the repo's STM API shapes in type-checked
// syntax: atomic-runner calls (Atomic / AtomicRO / AtomicSnap /
// Irrevocable and in-package wrappers around them), transaction
// descriptors, the descriptor source (NewTx) and the
// transactional map's mutating operations. The analyzers under internal/analysis share these
// recognizers so they agree on what "a transactional body" is.
//
// Matching is by method name plus type shape, not by import path: the
// same analyzers then work against internal/core, internal/tl2, the
// generic txn.System[T] interface, and the small stub packages in each
// analyzer's testdata tree.
package stmapi

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BodyKind classifies the execution mode a transactional body runs under.
type BodyKind int

// The execution modes.
const (
	NotBody BodyKind = iota
	// Update: Atomic — the body may write; it re-executes on abort.
	Update
	// ReadOnly: AtomicRO — no read set extension, must not write.
	ReadOnly
	// Snapshot: AtomicSnap — MVCC snapshot mode, must not write.
	Snapshot
	// Irrevocable: Irrevocable — update mode, run alone behind the freeze
	// barrier. The body may write; a panic rolls it back.
	Irrevocable
)

// String returns the runner method name for the kind.
func (k BodyKind) String() string {
	switch k {
	case Update:
		return "Atomic"
	case ReadOnly:
		return "AtomicRO"
	case Snapshot:
		return "AtomicSnap"
	case Irrevocable:
		return "Irrevocable"
	default:
		return "NotBody"
	}
}

// ReadOnlyKind reports whether k forbids writes.
func (k BodyKind) ReadOnlyKind() bool { return k == ReadOnly || k == Snapshot }

var runnerNames = map[string]BodyKind{
	"Atomic":      Update,
	"AtomicRO":    ReadOnly,
	"AtomicSnap":  Snapshot,
	"Irrevocable": Irrevocable,
}

// ClassifyRunner reports whether call is a direct atomic-runner method
// call — x.Atomic(tx, fn), x.AtomicRO(tx, fn), x.AtomicSnap(tx, fn),
// x.Irrevocable(tx, fn) — returning its kind and the body argument.
func ClassifyRunner(info *types.Info, call *ast.CallExpr) (BodyKind, ast.Expr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return NotBody, nil
	}
	kind, ok := runnerNames[sel.Sel.Name]
	if !ok || len(call.Args) != 2 {
		return NotBody, nil
	}
	sig, ok := info.TypeOf(call.Args[1]).Underlying().(*types.Signature)
	if !ok || sig.Params().Len() != 1 || sig.Results().Len() != 0 {
		return NotBody, nil
	}
	return kind, call.Args[1]
}

// WrapperInfo describes an in-package function that forwards one of its
// func-typed parameters to an atomic runner (e.g. a store's
// snapshot-or-classic read helper). Calls to such a function run the forwarded argument as
// a transactional body of the recorded kind.
type WrapperInfo struct {
	Kind      BodyKind
	BodyParam int
}

// Wrappers maps a package function (its origin object) to wrapper info.
type Wrappers map[*types.Func]WrapperInfo

// FindWrappers scans the package for one-level runner wrappers. A
// function that forwards its parameter to both a read-only and a snapshot
// runner (the snapshot-or-fallback pattern) is classified ReadOnly.
func FindWrappers(info *types.Info, files []*ast.File) Wrappers {
	w := make(Wrappers)
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			params := paramObjects(info, fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				kind, body := ClassifyRunner(info, call)
				if kind == NotBody {
					return true
				}
				id, ok := body.(*ast.Ident)
				if !ok {
					return true
				}
				bodyObj := info.Uses[id]
				for i, p := range params {
					if p != nil && p == bodyObj {
						prev, seen := w[obj]
						k := kind
						if seen {
							k = weakerKind(prev.Kind, kind)
						}
						w[obj] = WrapperInfo{Kind: k, BodyParam: i}
					}
				}
				return true
			})
		}
	}
	return w
}

// weakerKind merges two runner kinds a wrapper may dispatch to: any
// read-only path makes the wrapper read-only for checking purposes.
func weakerKind(a, b BodyKind) BodyKind {
	if a == ReadOnly || b == ReadOnly {
		return ReadOnly
	}
	if a == Snapshot || b == Snapshot {
		return Snapshot
	}
	return Update
}

func paramObjects(info *types.Info, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			out = append(out, info.Defs[name])
		}
		if len(field.Names) == 0 {
			out = append(out, nil)
		}
	}
	return out
}

// ClassifyCall extends ClassifyRunner with the package's wrappers.
func ClassifyCall(info *types.Info, wrappers Wrappers, call *ast.CallExpr) (BodyKind, ast.Expr) {
	if kind, body := ClassifyRunner(info, call); kind != NotBody {
		return kind, body
	}
	fn := CalleeFunc(info, call)
	if fn == nil {
		return NotBody, nil
	}
	wi, ok := wrappers[fn.Origin()]
	if !ok || wi.BodyParam >= len(call.Args) {
		return NotBody, nil
	}
	return wi.Kind, call.Args[wi.BodyParam]
}

// CalleeFunc resolves the called function or method object, if any.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// IsTxLike reports whether t is a transaction-descriptor type: a (pointer
// to a) named type called Tx, the txn.Tx interface, or a type parameter
// whose constraint carries a Store method (the harness's generic T).
func IsTxLike(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch tt := t.(type) {
	case *types.Named:
		if tt.Obj().Name() == "Tx" {
			return true
		}
		return hasStoreMethod(t)
	case *types.TypeParam:
		return hasStoreMethod(tt.Constraint())
	case *types.Interface:
		return hasStoreMethod(tt)
	}
	return false
}

// hasStoreMethod reports whether t's method set contains
// Store(uint64, uint64).
func hasStoreMethod(t types.Type) bool {
	if t == nil {
		return false
	}
	if iface, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumMethods(); i++ {
			if isStoreSig(iface.Method(i)) {
				return true
			}
		}
		return false
	}
	ms := types.NewMethodSet(types.NewPointer(t))
	for i := 0; i < ms.Len(); i++ {
		if m, ok := ms.At(i).Obj().(*types.Func); ok && isStoreSig(m) {
			return true
		}
	}
	return false
}

func isStoreSig(m *types.Func) bool {
	if m.Name() != "Store" {
		return false
	}
	sig, ok := m.Type().(*types.Signature)
	return ok && sig.Params().Len() == 2 && sig.Results().Len() == 0
}

// ResolveBody resolves a runner's body argument to a function literal:
// either the literal itself or, via bodies, a local variable or struct
// field (x.f) bound to one.
func ResolveBody(bodies map[types.Object]*ast.FuncLit, info *types.Info, expr ast.Expr) *ast.FuncLit {
	switch e := ast.Unparen(expr).(type) {
	case *ast.FuncLit:
		return e
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			return bodies[obj]
		}
	case *ast.SelectorExpr:
		if f := fieldOf(info, e); f != nil {
			return bodies[f]
		}
	}
	return nil
}

// fieldOf returns the struct field sel selects, or nil. A field of an
// instantiated generic type resolves to the generic declaration's field,
// so every instantiation shares one identity.
func fieldOf(info *types.Info, sel *ast.SelectorExpr) types.Object {
	if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
		return v.Origin()
	}
	return nil
}

// LocalFuncLits indexes `v := func(...){...}` and `x.f = func(...){...}`
// bindings across the package so a runner call's body argument can be
// resolved when it is a variable or a struct field (bodies built once and
// kept on a struct, as kvstore's batchOp does). Only single-assignment
// bindings are recorded: a rebound variable or field could alias several
// literals.
func LocalFuncLits(info *types.Info, files []*ast.File) map[types.Object]*ast.FuncLit {
	out := make(map[types.Object]*ast.FuncLit)
	rebound := make(map[types.Object]bool)
	bind := func(lhs ast.Expr, rhs ast.Expr) {
		var obj types.Object
		switch e := lhs.(type) {
		case *ast.Ident:
			if obj = info.Defs[e]; obj == nil {
				obj = info.Uses[e]
			}
		case *ast.SelectorExpr:
			obj = fieldOf(info, e)
		}
		if obj == nil {
			return
		}
		lit, ok := ast.Unparen(rhs).(*ast.FuncLit)
		if !ok || out[obj] != nil || rebound[obj] {
			rebound[obj] = true
			delete(out, obj)
			return
		}
		out[obj] = lit
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				if len(st.Lhs) != len(st.Rhs) {
					return true
				}
				for i, lhs := range st.Lhs {
					if _, isLit := ast.Unparen(st.Rhs[i]).(*ast.FuncLit); isLit {
						bind(lhs, st.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if len(st.Names) != len(st.Values) {
					return true
				}
				for i, id := range st.Names {
					if _, isLit := ast.Unparen(st.Values[i]).(*ast.FuncLit); isLit {
						bind(id, st.Values[i])
					}
				}
			}
			return true
		})
	}
	return out
}

// FuncDecls indexes the package's function declarations by their (origin)
// object, for in-package call-graph walks.
func FuncDecls(info *types.Info, files []*ast.File) map[*types.Func]*ast.FuncDecl {
	out := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj, ok := info.Defs[fd.Name].(*types.Func); ok {
					out[obj] = fd
				}
			}
		}
	}
	return out
}

// MutatorCall reports whether call is a transactional write: tx.Store /
// tx.Free on a descriptor, or a map-style mutator — a method named Put,
// Delete, CAS or Add whose first argument is a descriptor.
// The returned label names the operation for diagnostics.
func MutatorCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	switch name {
	case "Store", "Free":
		if len(call.Args) == 2 && IsTxLike(info.TypeOf(sel.X)) {
			return "tx." + name, true
		}
	case "Put", "Delete", "CAS", "Add":
		if len(call.Args) >= 1 && IsTxLike(info.TypeOf(call.Args[0])) {
			return name, true
		}
	}
	return "", false
}

// RedoCall reports whether call records a redo operation: a method named
// Redo taking one argument, on a descriptor.
func RedoCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Redo" && len(call.Args) == 1 && IsTxLike(info.TypeOf(sel.X))
}

// TxSourceCall reports whether call mints a descriptor: x.NewTx() whose
// result is a descriptor.
func TxSourceCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && len(call.Args) == 0 && sel.Sel.Name == "NewTx" && IsTxLike(info.TypeOf(call))
}

// PosWithin reports whether pos lies within node's source range.
func PosWithin(pos token.Pos, node ast.Node) bool {
	return node != nil && node.Pos() <= pos && pos < node.End()
}

// OpaqueCallee reports whether a call-graph walk should treat fn as a
// leaf. Methods on descriptor (TxLike) types and the atomic runners
// themselves are the STM runtime: walking into tx.Load would surface the
// runtime's own rollback writes as body violations, and a nested runner
// call is txbody's nesting diagnostic, not a reachable-write chain.
func OpaqueCallee(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	recv := sig.Recv()
	if recv == nil {
		return false
	}
	if IsTxLike(recv.Type()) {
		return true
	}
	switch fn.Name() {
	case "Atomic", "AtomicRO", "AtomicSnap":
		return true
	}
	return false
}
