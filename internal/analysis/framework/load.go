package framework

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// A Package is one loaded-and-type-checked analysis unit.
type Package struct {
	PkgPath string
	Name    string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	// TypeErrors collects go/types errors; analysis still runs on a
	// partially checked package, but drivers should surface these.
	TypeErrors []error
	// Kind is "prod" (GoFiles only), "test" (GoFiles+TestGoFiles) or
	// "xtest" (the external _test package), or "stub" for analysistest
	// packages loaded from a testdata/src tree.
	Kind string
}

// A Loader loads module packages (via the go command) or testdata stub
// packages, type-checking target sources against gc export data produced
// by `go list -export` — the same data go/packages serves, with no
// dependency outside the standard library and the toolchain.
type Loader struct {
	// Dir is the module root all go commands run in.
	Dir string
	// StubRoot, when set, is an analysistest-style source root: import
	// paths are resolved against StubRoot/<path> before the module and
	// the standard library.
	StubRoot string
	// IncludeTests selects the augmented (test-file) variant of each
	// target package plus its external _test package.
	IncludeTests bool

	Fset *token.FileSet

	exportImp   types.ImporterFrom
	exportPaths map[string]string
	// testExports maps a package under test to the export data of its
	// test binary's variants (itself with its _test.go files, and every
	// dependency rebuilt against that), by plain import path.
	testExports map[string]map[string]string
	stubCache   map[string]*stubEntry
}

type stubEntry struct {
	pkg      *Package
	checking bool
}

// NewLoader returns a loader rooted at dir.
func NewLoader(dir string) *Loader {
	l := &Loader{
		Dir:         dir,
		Fset:        token.NewFileSet(),
		exportPaths: make(map[string]string),
		testExports: make(map[string]map[string]string),
		stubCache:   make(map[string]*stubEntry),
	}
	l.exportImp = importer.ForCompiler(l.Fset, "gc", l.lookupExport).(types.ImporterFrom)
	return l
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath   string
	Name         string
	Dir          string
	Export       string
	ForTest      string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Error        *struct{ Err string }
}

// Load loads the packages matching patterns and returns one analysis unit
// per package (plus external test packages when IncludeTests is set).
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	targets, err := l.goList(append([]string{"-e", "-json", "--"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	l.warmExports(patterns)

	var out []*Package
	for _, t := range targets {
		if t.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", t.ImportPath, t.Error.Err)
		}
		if t.Name == "" || len(t.GoFiles) == 0 && len(t.TestGoFiles) == 0 {
			continue
		}
		files := t.GoFiles
		kind := "prod"
		if l.IncludeTests && len(t.TestGoFiles) > 0 {
			files = append(append([]string{}, t.GoFiles...), t.TestGoFiles...)
			kind = "test"
		}
		pkg, err := l.checkSource(t.ImportPath, t.Name, t.Dir, files, kind, l)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
		if l.IncludeTests && len(t.XTestGoFiles) > 0 {
			// The external test package imports the package under test
			// with its _test.go files (helpers exported for _test files),
			// and every other import as the test binary builds it: one
			// that imports the package under test in turn then sees the
			// same one.
			variants := l.testExports[t.ImportPath]
			imp := importer.ForCompiler(l.Fset, "gc", func(path string) (io.ReadCloser, error) {
				if p, ok := variants[path]; ok {
					return os.Open(p)
				}
				return l.lookupExport(path)
			})
			xpkg, err := l.checkSource(t.ImportPath+"_test", t.Name+"_test", t.Dir, t.XTestGoFiles, "xtest", imp)
			if err != nil {
				return nil, err
			}
			out = append(out, xpkg)
		}
	}
	return out, nil
}

// LoadStub loads one package from the StubRoot tree (analysistest).
func (l *Loader) LoadStub(path string) (*Package, error) {
	if l.StubRoot == "" {
		return nil, fmt.Errorf("loader has no StubRoot")
	}
	e, err := l.loadStubEntry(path)
	if err != nil {
		return nil, err
	}
	return e.pkg, nil
}

func (l *Loader) loadStubEntry(path string) (*stubEntry, error) {
	if e, ok := l.stubCache[path]; ok {
		if e.checking {
			return nil, fmt.Errorf("import cycle through stub package %q", path)
		}
		return e, nil
	}
	dir := filepath.Join(l.StubRoot, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, "_") {
			continue
		}
		files = append(files, name)
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in stub package %s", dir)
	}
	e := &stubEntry{checking: true}
	l.stubCache[path] = e
	pkg, err := l.checkSource(path, "", dir, files, "stub", l)
	e.checking = false
	if err != nil {
		delete(l.stubCache, path)
		return nil, err
	}
	e.pkg = pkg
	return e, nil
}

// checkSource parses the named files in dir and type-checks them as one
// package, resolving imports through imp.
func (l *Loader) checkSource(pkgPath, name, dir string, files []string, kind string, imp types.Importer) (*Package, error) {
	var syntax []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(l.Fset, filepath.Join(dir, f), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		syntax = append(syntax, af)
	}
	if name == "" && len(syntax) > 0 {
		name = syntax[0].Name.Name
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	pkg := &Package{
		PkgPath: pkgPath,
		Name:    name,
		Dir:     dir,
		Fset:    l.Fset,
		Files:   syntax,
		Info:    info,
		Kind:    kind,
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, _ := conf.Check(pkgPath, l.Fset, syntax, info)
	pkg.Types = tpkg
	return pkg, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.Dir, 0)
}

// ImportFrom implements types.ImporterFrom: stub packages first, then gc
// export data (module + standard library).
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.StubRoot != "" {
		if st, err := os.Stat(filepath.Join(l.StubRoot, filepath.FromSlash(path))); err == nil && st.IsDir() {
			e, err := l.loadStubEntry(path)
			if err != nil {
				return nil, err
			}
			return e.pkg.Types, nil
		}
	}
	return l.exportImp.ImportFrom(path, dir, mode)
}

// lookupExport hands the gc importer a reader over path's export data,
// asking the go command to (re)build it if the build cache is cold.
func (l *Loader) lookupExport(path string) (io.ReadCloser, error) {
	if p, ok := l.exportPaths[path]; ok {
		if p == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(p)
	}
	out, err := l.goRaw("list", "-export", "-f", "{{.Export}}", path)
	p := strings.TrimSpace(string(out))
	if err != nil || p == "" {
		l.exportPaths[path] = ""
		if err != nil {
			return nil, fmt.Errorf("go list -export %s: %w", path, err)
		}
		return nil, fmt.Errorf("no export data for %q", path)
	}
	l.exportPaths[path] = p
	return os.Open(p)
}

// warmExports pre-resolves export data for the targets' whole dependency
// graph (test imports included) with a single go invocation, so the
// per-import fallback in lookupExport stays the exception.
func (l *Loader) warmExports(patterns []string) {
	args := append([]string{"-deps", "-test", "-export", "-e", "-json", "--"}, patterns...)
	pkgs, err := l.goList(args...)
	if err != nil {
		return // lookupExport will resolve paths one by one
	}
	for _, p := range pkgs {
		if p.Export == "" {
			continue
		}
		// A per-test-binary rebuild ("pkg [other.test]") is a variant
		// compilation of the same import path: only other's external
		// test package imports it.
		if p.ForTest != "" {
			path, _, _ := strings.Cut(p.ImportPath, " ")
			if l.testExports[p.ForTest] == nil {
				l.testExports[p.ForTest] = make(map[string]string)
			}
			l.testExports[p.ForTest][path] = p.Export
			continue
		}
		if _, ok := l.exportPaths[p.ImportPath]; !ok {
			l.exportPaths[p.ImportPath] = p.Export
		}
	}
}

func (l *Loader) goList(args ...string) ([]*listPkg, error) {
	out, err := l.goRaw(append([]string{"list"}, args...)...)
	if err != nil && len(bytes.TrimSpace(out)) == 0 {
		return nil, err
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

func (l *Loader) goRaw(args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return out, fmt.Errorf("go %s: %v: %s", strings.Join(args, " "), err, stderr.String())
	}
	return out, nil
}
