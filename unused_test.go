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
	"reflect"
	"sort"
	"strconv"
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
//
// The field rule: a struct field under internal/ is live only if
// non-test code reads it, and an exported one only if non-test code
// also writes it. A constructor's default is not a write: an
// assignment to a field in the body of an if that compares the same
// field with a constant or nil (if o.X <= 0 { o.X = d }). Exempt are
// fields with a json tag (encoding/json reads and writes them),
// embedded fields, and fields of a struct type used as a map key or
// compared with == or != (equality reads them).
// The exported fields of the facade's types, and of the struct types
// those reach through exported fields, pointers, slices, arrays and
// maps, are the public API: a caller may read them, so they need not be
// read, but a public option that nothing sets is dead, so they must be
// written. Identical anonymous struct types count as one type.

// unreachedAllowed holds the test seams that tests in other packages
// need, the fields only tests set and the public fields that are
// deployment settings, one line each with its reason. A seam only its
// own package's tests use lives in that package's export_test.go
// instead. An entry that non-test code reaches again, or that names
// nothing, fails the gate. A key is a package directory, which covers
// all of the package, or a package directory and a dotted name: an
// identifier, a method (Type.Method) or a field (Type.Field).
var unreachedAllowed = map[string]string{
	"internal/corpustest":                    "block-page corpus fixtures shared by the blockpage, fingerprint and root differential tests",
	"internal/store.WithoutSync":             "lets the server, monitor, cluster and cmd tests skip fsync on throwaway stores",
	"internal/netsim.Network.SetDialLatency": "gives the measurement and monitor reuse tests a dial cost to save",
	"internal/netsim.Network.Hosts":          "lets the world tests count the hosts a lazy realm registered",
	"internal/categorydb.DB.Submissions":     "lets the confirm and world tests read which URLs a campaign submitted",
	"internal/engine.Snapshot.Stage":         "lets tests in other packages read one stage's counters by name",

	// Fields only tests write: options with the test that sets them.
	"internal/httpwire.Client.Proxy":                           "sends through an explicit proxy in TestClientProxyMode and common's TestExplicitProxyHandler",
	"internal/httpwire.Proxy.Host":                             "names the proxy TestClientProxyMode and TestExplicitProxyHandler send through",
	"internal/httpwire.Proxy.Port":                             "names the proxy TestClientProxyMode and TestExplicitProxyHandler send through",
	"internal/netsim.FaultRule.Dst":                            "scopes a fault to one destination in TestFaultRuleScoping and plan's TestReplicaRetriesFailedValidation",
	"internal/netsim.FaultRule.Port":                           "scopes a fault to one port in TestFaultRuleScoping and TestResponseInlineMatchesGoroutine",
	"internal/netsim.FaultRule.Hostname":                       "scopes a fault to a dialed name in TestFaultRuleScoping",
	"internal/products/common.Gateway.OnBlock":                 "shows TestGatewayCallbacks the category a blocked request met",
	"internal/products/netsweeper.Engine.DisableDenyPageTests": "turns the deny-page test tool off in TestDenyPageTestsSpecialCase (§4.4)",
	"internal/cluster.Worker.OnResult":                         "counts the shards a worker finished before TestClusterWorkerDrain drains it",
	"internal/measurement.Client.DisableReuse":                 "gives BenchmarkListReuse its dial-per-request baseline (BENCH_monitor.json)",
	"internal/server.ClusterOptions.WorkerPoll":                "shortens the local workers' idle poll in the server's clusterTestOptions and TestClusterReplication",

	// Public fields that are deployment settings: the public API offers
	// them to its callers, and nothing in the module has one to set.
	"internal/cluster.Follower.Client":      "the caller's own HTTP client for tailing a coordinator (ReplicaFollower)",
	"internal/cluster.HTTPTransport.Client": "the caller's own HTTP client for the shard protocol (ClusterTransport)",
}

// TestNoUnreachedAPI is `make unused-gate`: it fails with one line per
// identifier that no non-test code reaches, per field that the field
// rule finds dead and per stale allowlist entry.
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
// a field nothing reads, an exported field nothing writes, a public one
// too, options only their constructor defaults (compared with a
// constant, and with nil), and both kinds of stale allowlist entry for
// an identifier and for a field. It must not report a defaulted option
// a caller also sets, a method reached only by converting its type to
// an interface, a field written only by a positional literal, a public
// field nothing reads, or a field one of the field rule's exemptions
// covers (internal/lib/fields.go has one case each).
func TestUnreachedAPIFixture(t *testing.T) {
	found, err := findUnreached("testdata/unused", "fixture", map[string]string{
		"internal/lib.Used":        "reached by the facade, so stale",
		"internal/lib.Gone":        "names nothing, so stale",
		"internal/lib.Pair.A":      "read and written, so stale",
		"internal/lib.Record.Gone": "names nothing, so stale",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/lib.Counter.Len (internal/lib/lib.go:24)",
		"internal/lib.Dead (internal/lib/lib.go:11)",
		"internal/lib.Inner.Depth (internal/lib/fields.go:35): never written",
		"internal/lib.Options.Retries (internal/lib/fields.go:40): never written",
		"internal/lib.Options.Sink (internal/lib/fields.go:41): never written",
		"internal/lib.Record.Label (internal/lib/fields.go:9): never written",
		"internal/lib.Record.seen (internal/lib/fields.go:8): never read",
		"stale allowlist entry internal/lib.Gone: names nothing",
		"stale allowlist entry internal/lib.Pair.A: non-test code reaches it",
		"stale allowlist entry internal/lib.Record.Gone: names nothing",
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
	// report files key, declared at pos, when it is not live and no
	// allowlist entry covers it; why follows the position.
	report := func(key string, pos token.Pos, live bool, why string) {
		if pkgKey := key[:strings.Index(key, ".")]; allow[pkgKey] != "" {
			covered[pkgKey] = true
			return
		}
		if _, ok := allow[key]; ok {
			stale[key] = stale[key] || live
			covered[key] = true
			return
		}
		if !live {
			p := l.fset.Position(pos)
			file, _ := filepath.Rel(root, p.Filename)
			out = append(out, fmt.Sprintf("%s (%s:%d)%s", key, filepath.ToSlash(file), p.Line, why))
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
			report(p.rel+"."+name, obj.Pos(), reached[obj], "")
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n := tn.Type().(*types.Named)
			for i := 0; i < n.NumMethods(); i++ {
				if m := n.Method(i); !isMain || !m.Exported() {
					report(p.rel+"."+name+"."+m.Name(), m.Pos(), reached[m], "")
				}
			}
		}
	}
	fields := collectFieldUses(mine, l.byDir[filepath.Join(root, ".")])
	for _, p := range mine {
		if p.nested || !strings.HasPrefix(p.rel+"/", "internal/") {
			continue
		}
		for _, f := range p.files {
			declaredFields(f, func(name string, id *ast.Ident, tag string) {
				v := p.info.Defs[id].(*types.Var)
				c := fields.field(v)
				if c != v {
					return // a second spelling of an anonymous struct type
				}
				dead := ""
				_, tagged := reflect.StructTag(tag).Lookup("json")
				switch {
				case tagged || fields.exempt[c]:
				case !fields.read[c] && !fields.api[c]:
					dead = ": never read"
				case v.Exported() && !fields.written[c]:
					dead = ": never written"
				}
				report(p.rel+"."+name, id.Pos(), dead == "", dead)
			})
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

// fieldUses records what the non-test code of the module does with
// struct fields. Every field of an anonymous struct type stands for the
// same field of the first identical anonymous struct type spelled.
type fieldUses struct {
	canon                 map[*types.Var]*types.Var
	read, written, exempt map[*types.Var]bool
	api                   map[*types.Var]bool // public API: need not be read
	compared, public      map[types.Type]bool // seen by exemptStruct, markPublic
}

// field maps a field, of a generic type's instance too, to the field
// that stands for it.
func (u *fieldUses) field(v *types.Var) *types.Var {
	v = v.Origin()
	if c, ok := u.canon[v]; ok {
		return c
	}
	return v
}

// collectFieldUses reads every package of the module. A field is read
// by any use but the left side of = or := and a composite literal's
// key, and written by an assignment, &x.f, x.f++ or a composite
// literal. The fields of a struct type that is a map key or an operand
// of == or != are exempt. The exported fields of the facade's types and
// of the struct types they reach through exported fields, pointers,
// slices, arrays and maps are marked api.
func collectFieldUses(mine []*apiPackage, facade *apiPackage) *fieldUses {
	u := &fieldUses{
		canon: map[*types.Var]*types.Var{},
		read:  map[*types.Var]bool{}, written: map[*types.Var]bool{}, exempt: map[*types.Var]bool{},
		api:      map[*types.Var]bool{},
		compared: map[types.Type]bool{}, public: map[types.Type]bool{},
	}
	var anon []*types.Struct
	for _, p := range mine {
		named := map[ast.Expr]bool{}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					named[n.Type] = true
				case *ast.StructType:
					st, ok := p.info.Types[n].Type.(*types.Struct)
					if !ok || named[n] {
						break
					}
					for _, a := range anon {
						if types.Identical(a, st) {
							for i := 0; i < st.NumFields(); i++ {
								u.canon[st.Field(i)] = a.Field(i)
							}
							return true
						}
					}
					anon = append(anon, st)
				}
				return true
			})
		}
	}
	for _, p := range mine {
		info := p.info
		notRead := map[*ast.Ident]bool{}
		fieldOf := func(e ast.Expr) (*ast.Ident, *types.Var) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
					return sel.Sel, u.field(v)
				}
			}
			return nil, nil
		}
		// comparedField returns the field cond compares with a constant
		// or nil, or nil when cond is no such comparison.
		comparedField := func(cond ast.Expr) *types.Var {
			bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
			if !ok {
				return nil
			}
			switch bin.Op {
			case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
			default:
				return nil
			}
			for _, pair := range [][2]ast.Expr{{bin.X, bin.Y}, {bin.Y, bin.X}} {
				if tv := info.Types[pair[1]]; tv.Value != nil || tv.IsNil() {
					if _, v := fieldOf(pair[0]); v != nil {
						return v
					}
				}
			}
			return nil
		}
		// defaulted holds the left sides of a constructor's defaults:
		// assignments to a field in the body of an if that compares that
		// field with a constant or nil. They do not write the field.
		defaulted := map[ast.Expr]bool{}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.IfStmt:
					if v := comparedField(n.Cond); v != nil {
						for _, st := range n.Body.List {
							if as, ok := st.(*ast.AssignStmt); ok {
								for _, lhs := range as.Lhs {
									if _, w := fieldOf(lhs); w == v {
										defaulted[lhs] = true
									}
								}
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if id, v := fieldOf(lhs); v != nil {
							u.written[v] = u.written[v] || !defaulted[lhs]
							notRead[id] = n.Tok == token.ASSIGN || n.Tok == token.DEFINE
						}
					}
				case *ast.IncDecStmt:
					if _, v := fieldOf(n.X); v != nil {
						u.written[v] = true
					}
				case *ast.UnaryExpr:
					if _, v := fieldOf(n.X); v != nil && n.Op == token.AND {
						u.written[v] = true
					}
				case *ast.CompositeLit:
					t := info.TypeOf(n)
					if ptr, ok := t.(*types.Pointer); ok {
						t = ptr.Elem()
					}
					st, ok := t.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							id := kv.Key.(*ast.Ident)
							notRead[id] = true
							u.written[u.field(info.Uses[id].(*types.Var))] = true
						} else {
							u.written[u.field(st.Field(i))] = true
						}
					}
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						u.exemptStruct(info.TypeOf(n.X))
					}
				}
				return true
			})
		}
		for id, obj := range info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() && !notRead[id] {
				u.read[u.field(v)] = true
			}
		}
		for _, tv := range info.Types {
			if m, ok := tv.Type.(*types.Map); ok {
				u.exemptStruct(m.Key())
			}
		}
	}
	if facade != nil {
		scope := facade.pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
				u.markPublic(tn.Type())
			}
		}
	}
	return u
}

// exemptStruct exempts the fields of struct type t, and of the struct
// types they hold by value, which comparing a t compares.
func (u *fieldUses) exemptStruct(t types.Type) {
	if t == nil || u.compared[t] {
		return
	}
	u.compared[t] = true
	switch t := t.Underlying().(type) {
	case *types.Array:
		u.exemptStruct(t.Elem())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			u.exempt[u.field(t.Field(i))] = true
			u.exemptStruct(t.Field(i).Type())
		}
	}
}

// markPublic marks api the exported fields of the struct types public
// type t reaches.
func (u *fieldUses) markPublic(t types.Type) {
	if u.public[t] {
		return
	}
	u.public[t] = true
	switch t := t.(type) {
	case *types.Named:
		u.markPublic(t.Underlying())
	case *types.Alias:
		u.markPublic(types.Unalias(t))
	case *types.Pointer:
		u.markPublic(t.Elem())
	case *types.Slice:
		u.markPublic(t.Elem())
	case *types.Array:
		u.markPublic(t.Elem())
	case *types.Map:
		u.markPublic(t.Key())
		u.markPublic(t.Elem())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if f := t.Field(i); f.Exported() {
				u.api[u.field(f)] = true
				u.markPublic(f.Type())
			}
		}
	}
}

// declaredFields calls visit for every named struct field file f
// declares, with its dotted name: T.F for a field of package-level type
// T, T.F.G for one of a struct type nested in it, and a field of a
// struct type spelled in a function or variable declaration takes that
// declaration's name first (F.G, or R.M.G for a method M of R).
// Embedded fields are not named, so they are not visited.
func declaredFields(f *ast.File, visit func(name string, id *ast.Ident, tag string)) {
	var walk func(prefix string, n ast.Node)
	walk = func(prefix string, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				walk(prefix+"."+n.Name.Name, n.Type)
				return false
			case *ast.StructType:
				for _, fld := range n.Fields.List {
					tag := ""
					if fld.Tag != nil {
						tag, _ = strconv.Unquote(fld.Tag.Value)
					}
					for _, id := range fld.Names {
						visit(prefix+"."+id.Name, id, tag)
						walk(prefix+"."+id.Name, fld.Type)
					}
				}
				return false
			}
			return true
		})
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			name := d.Name.Name
			if d.Recv != nil {
				recv, _, _ := strings.Cut(types.ExprString(d.Recv.List[0].Type), "[")
				name = strings.TrimPrefix(recv, "*") + "." + name
			}
			walk(name, d)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					walk(spec.Name.Name, spec.Type)
				case *ast.ValueSpec:
					walk(spec.Names[0].Name, spec)
				}
			}
		}
	}
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
	files  []*ast.File // module packages: the non-test files
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
	if p.info != nil {
		p.files = files
	}
	conf := types.Config{Importer: l, IgnoreFuncBodies: p.info == nil, Error: ignore}
	var err error
	p.pkg, err = conf.Check(path, l.fset, files, p.info)
	if ignore != nil {
		return nil
	}
	return err
}
