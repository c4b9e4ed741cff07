package filtermap_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	pathpkg "path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The unreached-API gate (DESIGN.md §11): every package-level identifier
// and method under internal/, and every unexported one in a main
// package, must be reached from a non-test file of this module or of
// the benchmark module. The facade's own names are the public API and
// are not checked. A method also counts as reached when its receiver
// type implements an interface that declares it: one declared in or
// appearing in module code, a named interface of a loaded standard
// library package, error, or the Unwrap/Is/As interfaces package errors
// asserts anonymously. No package calls methods by name through
// reflect or text/template, so there is nothing else to see.

// unreachedAllowed holds the test seams that tests in other packages
// need, one line each with its reason. A seam only its own package's
// tests use lives in that package's export_test.go instead. An entry
// that non-test code reaches again, or that names nothing, fails the
// gate. A key is a package directory, which covers all of the package,
// or a package directory and a dotted name.
var unreachedAllowed = map[string]string{
	"internal/corpustest":                    "block-page corpus fixtures shared by the blockpage, fingerprint and root differential tests",
	"internal/store.WithoutSync":             "lets the server, monitor, cluster and cmd tests skip fsync on throwaway stores",
	"internal/netsim.Network.SetDialLatency": "gives the measurement and monitor reuse tests a dial cost to save",
	"internal/categorydb.DB.Submissions":     "lets the confirm and world tests read which URLs a campaign submitted",
	"internal/engine.Snapshot.Stage":         "lets tests in other packages read one stage's counters by name",
}

// TestNoUnreachedAPI is `make unused-gate`: it fails with one line per
// identifier that no non-test code reaches and per stale allowlist
// entry.
func TestNoUnreachedAPI(t *testing.T) {
	found, err := findUnreached(".", "filtermap", unreachedAllowed)
	if err != nil {
		t.Fatal(err)
	}
	if len(found) > 0 {
		t.Errorf("%d findings; delete what no non-test code reaches, or move a seam only its own package's tests use into its export_test.go:\n\t%s",
			len(found), strings.Join(found, "\n\t"))
	}
}

// TestUnreachedAPIFixture runs the gate's checker over a small tree: it
// must report an uncalled exported function, a method that shares its
// name with a standard library interface its type does not implement,
// and both kinds of stale allowlist entry, and must not report a method
// reached only by converting its type to an interface.
func TestUnreachedAPIFixture(t *testing.T) {
	found, err := findUnreached("testdata/unused", "fixture", map[string]string{
		"internal/lib.Used": "reached by the facade, so stale",
		"internal/lib.Gone": "names nothing, so stale",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/lib.Counter.Len (internal/lib/lib.go:24)",
		"internal/lib.Dead (internal/lib/lib.go:11)",
		"stale allowlist entry internal/lib.Gone: names nothing",
		"stale allowlist entry internal/lib.Used: non-test code reaches it",
	}
	if got := strings.Join(found, "\n"); got != strings.Join(want, "\n") {
		t.Errorf("fixture report:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
}

// findUnreached type-checks every non-test package under root, whose
// import paths start with module, and returns the sorted report lines.
// Directories with their own go.mod (the benchmark module) supply uses
// but are not checked themselves.
func findUnreached(root, module string, allow map[string]string) ([]string, error) {
	l := &apiLoader{
		fset:   token.NewFileSet(),
		ctxt:   build.Default,
		root:   root,
		module: module,
		byDir:  map[string]*apiPackage{},
	}
	l.ctxt.CgoEnabled = false // the pure-Go variants of net and os/user
	var mine []*apiPackage
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(root, path)
		p, err := l.loadModule(filepath.ToSlash(rel))
		if p != nil {
			mine = append(mine, p)
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	reached := map[types.Object]bool{}
	var ifaces []*types.Interface
	var named []types.Type
	for _, p := range mine {
		for _, obj := range p.info.Uses {
			reached[originOf(obj)] = true
		}
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
		for _, obj := range p.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
					named = append(named, n)
				}
			}
		}
	}
	ifaces = append(ifaces, l.stdInterfaces()...)
	markInterfaceMethods(reached, named, ifaces)

	var out []string
	covered, stale := map[string]bool{}, map[string]bool{}
	for _, p := range mine {
		for _, imp := range p.pkg.Imports() {
			if rel := strings.TrimPrefix(imp.Path(), module+"/"); allow[rel] != "" {
				stale[rel] = true
			}
		}
	}
	report := func(key string, obj types.Object) {
		if pkgKey := key[:strings.Index(key, ".")]; allow[pkgKey] != "" {
			covered[pkgKey] = true
			return
		}
		if _, ok := allow[key]; ok {
			stale[key] = stale[key] || reached[obj]
			covered[key] = true
			return
		}
		if !reached[obj] {
			pos := l.fset.Position(obj.Pos())
			file, _ := filepath.Rel(root, pos.Filename)
			out = append(out, fmt.Sprintf("%s (%s:%d)", key, filepath.ToSlash(file), pos.Line))
		}
	}
	for _, p := range mine {
		isMain := p.pkg.Name() == "main"
		if p.nested || (!isMain && !strings.HasPrefix(p.rel+"/", "internal/")) {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if isMain && (obj.Exported() || name == "main") {
				continue
			}
			report(p.rel+"."+name, obj)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n := tn.Type().(*types.Named)
			for i := 0; i < n.NumMethods(); i++ {
				if m := n.Method(i); !isMain || !m.Exported() {
					report(p.rel+"."+name+"."+m.Name(), m)
				}
			}
		}
	}
	for key := range allow {
		switch {
		case stale[key]:
			out = append(out, "stale allowlist entry "+key+": non-test code reaches it")
		case !covered[key]:
			out = append(out, "stale allowlist entry "+key+": names nothing")
		}
	}
	sort.Strings(out)
	return out, nil
}

// markInterfaceMethods marks every method that some named type's method
// set (of T or *T, promoted methods included) contributes to an
// interface the type implements.
func markInterfaceMethods(reached map[types.Object]bool, named []types.Type, ifaces []*types.Interface) {
	byName := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	for _, it := range ifaces {
		if seen[it] {
			continue
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			byName[it.Method(i).Name()] = append(byName[it.Method(i).Name()], it)
		}
	}
	for _, t := range named {
		switch t.Underlying().(type) {
		case *types.Interface, *types.Pointer:
		default:
			t = types.NewPointer(t)
		}
		ms := types.NewMethodSet(t)
		for i := 0; i < ms.Len(); i++ {
			m := ms.At(i).Obj()
			for _, it := range byName[m.Name()] {
				if types.Implements(t, it) {
					reached[originOf(m)] = true
					break
				}
			}
		}
	}
}

// errorsInterfaces are the anonymous interfaces package errors asserts.
const errorsInterfaces = `package errorsinterfaces
type unwrap interface{ Unwrap() error }
type unwrapAll interface{ Unwrap() []error }
type is interface{ Is(error) bool }
type as interface{ As(any) bool }
`

// stdInterfaces returns error, the errors package's anonymous
// interfaces and every named interface of a loaded standard library
// package.
func (l *apiLoader) stdInterfaces() []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	f, _ := parser.ParseFile(l.fset, "errors.go", errorsInterfaces, 0)
	errs, _ := (&types.Config{}).Check("errorsinterfaces", l.fset, []*ast.File{f}, nil)
	pkgs := []*types.Package{errs}
	for _, p := range l.byDir {
		if p.info == nil {
			pkgs = append(pkgs, p.pkg)
		}
	}
	for _, pkg := range pkgs {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
					if it, ok := n.Underlying().(*types.Interface); ok {
						out = append(out, it)
					}
				}
			}
		}
	}
	return out
}

// originOf maps a method of an instantiated generic type to its
// declaration.
func originOf(obj types.Object) types.Object {
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return obj
}

// apiLoader type-checks module packages with their function bodies and
// standard library packages without them, sharing one object per
// declaration across every package.
type apiLoader struct {
	fset   *token.FileSet
	ctxt   build.Context
	root   string
	module string
	byDir  map[string]*apiPackage
}

type apiPackage struct {
	rel    string // module packages: slash path below the root
	nested bool   // in a module of its own below the root
	pkg    *types.Package
	info   *types.Info // nil for the standard library
}

// loadModule loads the module package in directory rel, or returns nil
// when the directory holds no non-test Go file.
func (l *apiLoader) loadModule(rel string) (*apiPackage, error) {
	dir := filepath.Join(l.root, filepath.FromSlash(rel))
	if p, ok := l.byDir[dir]; ok {
		return p, nil
	}
	bp, err := l.ctxt.ImportDir(dir, 0)
	if _, ok := err.(*build.NoGoError); ok || (err == nil && len(bp.GoFiles) == 0) {
		return nil, nil
	} else if err != nil {
		return nil, err
	}
	path := l.module
	if rel != "." {
		path += "/" + rel
	}
	p := &apiPackage{rel: rel, info: &types.Info{
		Uses:  map[*ast.Ident]types.Object{},
		Defs:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}}
	for d := rel; d != "."; d = pathpkg.Dir(d) {
		if _, err := os.Stat(filepath.Join(l.root, filepath.FromSlash(d), "go.mod")); err == nil {
			p.nested = true
		}
	}
	l.byDir[dir] = p
	if err := l.check(p, path, bp, nil); err != nil {
		return nil, err
	}
	return p, nil
}

// ImportFrom implements types.ImporterFrom.
func (l *apiLoader) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	switch {
	case path == "unsafe":
		return types.Unsafe, nil
	case path == l.module || strings.HasPrefix(path, l.module+"/"):
		rel := "."
		if path != l.module {
			rel = strings.TrimPrefix(path, l.module+"/")
		}
		p, err := l.loadModule(rel)
		if err == nil && p == nil {
			err = fmt.Errorf("import %s: no non-test Go files", path)
		}
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	}
	bp, err := l.ctxt.Import(path, srcDir, 0)
	if err != nil {
		return nil, err
	}
	if p, ok := l.byDir[bp.Dir]; ok {
		return p.pkg, nil
	}
	p := &apiPackage{}
	l.byDir[bp.Dir] = p
	err = l.check(p, bp.ImportPath, bp, func(error) {})
	return p.pkg, err
}

func (l *apiLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// check parses and type-checks bp's non-test files; ignore, when set,
// swallows type errors (the standard library is checked without bodies).
func (l *apiLoader) check(p *apiPackage, path string, bp *build.Package, ignore func(error)) error {
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l, IgnoreFuncBodies: p.info == nil, Error: ignore}
	var err error
	p.pkg, err = conf.Check(path, l.fset, files, p.info)
	if ignore != nil {
		return nil
	}
	return err
}
