// Package rawatomic checks that raw shared-memory synchronization —
// sync.Mutex / sync.RWMutex and the sync/atomic package — stays inside
// the STM's own implementation layers. Application-level packages built
// on the STM must route shared state through transactions: a raw mutex or
// atomic next to transactional accesses reintroduces exactly the
// ad-hoc-synchronization bugs the STM exists to remove, and its effects
// are invisible to conflict detection and rollback.
//
// The allowlist names the packages that ARE the implementation: the
// word-based and object-based runtimes, the MVCC sidecar, epoch
// reclamation, the WAL, the tuning loop, and the arena allocator.
// Everything else gets one diagnostic per declaration (a field or
// variable of a mutex/atomic type) and per direct sync/atomic call; an
// intentional use — a pool free-list, a stats counter read outside any
// transaction — is annotated //stm:allow-atomic with the reason on the
// line above.
//
// Test files are skipped: tests freely use atomics for counters and
// barriers around the code under test.
package rawatomic

import (
	"go/ast"
	"go/types"
	"strings"

	"tinystm/internal/analysis/framework"
)

// Analyzer is the rawatomic analyzer.
var Analyzer = &framework.Analyzer{
	Name:   "rawatomic",
	Doc:    "report sync.Mutex / sync/atomic use outside the STM implementation layers",
	Marker: "atomic",
	Run:    run,
}

// allowedLayers are the final import-path segments of packages that
// implement the STM itself and legitimately use raw synchronization.
var allowedLayers = map[string]bool{
	"core":    true, // word-based STM runtime
	"tl2":     true, // commit-time locking runtime
	"mvcc":    true, // multi-version sidecar
	"reclaim": true, // epoch-based reclamation
	"wal":     true, // write-ahead log
	"tuning":  true, // online tuning loop
	"mem":     true, // transactional arena allocator
	"obs":     true, // observability: lock-free histograms, seqlock ring, registry
	// Client-side and test-harness infrastructure: these packages talk to
	// the server over sockets, never to transactional memory, so their
	// counters, breakers and fault switches are legitimately raw.
	"resilience": true, // deadlines, retry budgets, circuit breaker
	"netchaos":   true, // fault-injecting TCP proxy (tests and smoke only)
}

func run(pass *framework.Pass) error {
	if seg := lastSegment(pass.PkgPath); allowedLayers[seg] {
		return nil
	}
	info := pass.TypesInfo
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.Field:
				if name := syncTypeName(info.TypeOf(d.Type)); name != "" {
					pass.Reportf(d.Pos(), "%s field in package %q: raw synchronization belongs to the STM layers; route shared state through transactions (//stm:allow-atomic with a reason if this state is genuinely outside transactional control)", name, lastSegment(pass.PkgPath))
				}
			case *ast.ValueSpec:
				if name := declaredSyncType(info, d); name != "" {
					pass.Reportf(d.Pos(), "%s variable in package %q: raw synchronization belongs to the STM layers; route shared state through transactions (//stm:allow-atomic with a reason if this state is genuinely outside transactional control)", name, lastSegment(pass.PkgPath))
				}
			case *ast.CallExpr:
				if name := atomicPkgCall(info, d); name != "" {
					pass.Reportf(d.Pos(), "call to %s in package %q: raw atomics bypass conflict detection and rollback; use transactional accesses (//stm:allow-atomic with a reason if this word is genuinely outside transactional control)", name, lastSegment(pass.PkgPath))
				}
			}
			return true
		})
	}
	return nil
}

func lastSegment(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// syncTypeName reports the display name when t is (or directly contains,
// for arrays/slices/pointers) a sync.Mutex, sync.RWMutex, or a
// sync/atomic type; "" otherwise.
func syncTypeName(t types.Type) string {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
			continue
		case *types.Slice:
			t = tt.Elem()
			continue
		case *types.Array:
			t = tt.Elem()
			continue
		}
		break
	}
	n, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	switch obj.Pkg().Path() {
	case "sync":
		switch obj.Name() {
		case "Mutex", "RWMutex":
			return "sync." + obj.Name()
		}
	case "sync/atomic":
		return "atomic." + obj.Name()
	}
	return ""
}

// declaredSyncType reports the sync type name when a var/const spec
// declares a value of a flagged type, via an explicit type or an
// initializer expression.
func declaredSyncType(info *types.Info, vs *ast.ValueSpec) string {
	if vs.Type != nil {
		return syncTypeName(info.TypeOf(vs.Type))
	}
	for _, v := range vs.Values {
		if name := syncTypeName(info.TypeOf(v)); name != "" {
			return name
		}
	}
	return ""
}

// atomicPkgCall reports "atomic.F" when call invokes a function from
// sync/atomic (LoadUint64, CompareAndSwapPointer, …); "" otherwise.
func atomicPkgCall(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pkg, ok := info.Uses[id].(*types.PkgName)
	if !ok || pkg.Imported().Path() != "sync/atomic" {
		return ""
	}
	return "atomic." + sel.Sel.Name
}
