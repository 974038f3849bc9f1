package analysis_test

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"threading/internal/analysis"
	"threading/internal/analysis/load"
)

// TestNoOrphans holds the module to its rule that code inside an
// internal/ tree needs a caller. It type-checks the whole program —
// the root module, the benchmark module and the root package's
// external tests — and reports every declaration under internal/ that
// no root reaches. See orphans for what counts as a root.
func TestNoOrphans(t *testing.T) {
	root := moduleRoot(t)
	for _, o := range orphans(t, root, "benchmark") {
		t.Errorf("%s has no caller outside tests: delete it, or exempt it with //threadvet:ignore orphan <reason>", o)
	}
}

// TestOrphanFixture runs the check over a doctored module,
// testdata/orphanmod: exactly its two orphans are reported, and none
// of its exempt cases (a used func, a func declared in and used by
// its package's tests, an interface-implementing method, a method of
// a type the root package re-exports by alias, an ignored orphan).
func TestOrphanFixture(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "orphanmod"))
	if err != nil {
		t.Fatal(err)
	}
	got := orphans(t, dir)
	want := []string{
		"internal/lib/lib.go:30: orphanmod/internal/lib.Orphan",
		"internal/lib/lib.go:33: orphanmod/internal/lib.Scratch",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("orphans = %q\nwant %q", got, want)
	}
}

// decl is one top-level declaration or method, keyed by declKey.
type decl struct {
	pos  token.Position
	uses []string // declKeys of the declarations it refers to
	// report marks a declaration the check may report: it is in an
	// internal/ package that is not a test helper (*test).
	report bool
}

// orphans type-checks the module at root (its ./..., the ./... of each
// nested module in mods, and the root package's external tests) and
// returns "file:line: pkgpath.Name" for every declaration under
// internal/ that is unreachable from a root. Reachability runs over
// top-level declarations and methods to a fixed point, so a use inside
// an unreachable declaration does not count. The roots are:
//   - every declaration outside internal/ (the root package, cmd/,
//     examples/, nested modules) and in packages named *test;
//   - init and main;
//   - the root package's _test.go files;
//   - the exported methods of every type the root package re-exports
//     by alias: the module's public API;
//   - on a reachable type, each method that implements a method of an
//     interface type in the program (String, Error, ServeHTTP, ...);
//   - a declaration with //threadvet:ignore orphan <reason> on the
//     line above it.
//
// Files under internal/ ending in _test.go are not loaded, so their
// uses do not count.
func orphans(t *testing.T, root string, mods ...string) []string {
	t.Helper()
	l := load.New(root)
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	var modPath string
	fsets := make(map[*load.Package]*token.FileSet)
	for _, p := range pkgs {
		fsets[p] = l.Fset()
		if p.Dir == root {
			modPath = p.ImportPath
		}
	}
	if modPath == "" {
		t.Fatalf("no package in %s", root)
	}
	for _, m := range mods {
		ml := load.New(filepath.Join(root, m))
		mp, err := ml.Load("./...")
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range mp {
			fsets[p] = ml.Fset()
		}
		pkgs = append(pkgs, mp...)
	}
	if xtest := rootTests(t, l, root); xtest != nil {
		fsets[xtest] = l.Fset()
		pkgs = append(pkgs, xtest)
	}

	decls := make(map[string]*decl)
	var roots []string
	var named []*types.Named
	ifaces := make(map[*types.Interface]bool)
	seen := make(map[*types.Package]bool)
	for _, p := range pkgs {
		internal := strings.HasPrefix(p.ImportPath, modPath+"/internal/") &&
			!strings.HasSuffix(p.Types.Name(), "test")
		collectInterfaces(p.Types, ifaces, seen)
		for _, tv := range p.Info.Types {
			addInterface(tv.Type, ifaces)
		}
		fset := fsets[p]
		for _, f := range p.Files {
			ignored := ignoreLines(t, fset, f)
			add := func(name *ast.Ident, node ast.Node) {
				obj := p.Info.Defs[name]
				key := declKey(obj)
				if key == "" {
					return
				}
				pos := fset.Position(name.Pos())
				d := decls[key]
				if d == nil {
					d = &decl{pos: pos}
					decls[key] = d
				}
				d.uses = append(d.uses, usesIn(p.Info, node)...)
				if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
					if n, ok := tn.Type().(*types.Named); ok {
						named = append(named, n)
					}
				}
				isEntry := obj.Name() == "init" || obj.Name() == "main" && p.Types.Name() == "main"
				if !internal || isEntry || ignored[pos.Line-1] {
					roots = append(roots, key)
				} else if name.Name != "_" {
					d.report = true
				}
			}
			for _, dcl := range f.Decls {
				switch dcl := dcl.(type) {
				case *ast.FuncDecl:
					add(dcl.Name, dcl)
				case *ast.GenDecl:
					for _, spec := range dcl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							add(spec.Name, spec)
						case *ast.ValueSpec:
							for _, n := range spec.Names {
								add(n, spec)
							}
						}
					}
				}
			}
		}
		if p.ImportPath == modPath {
			roots = append(roots, aliasAPI(p.Types)...)
		}
	}

	live := make(map[string]bool)
	var queue []string
	mark := func(key string) {
		if !live[key] {
			live[key] = true
			queue = append(queue, key)
		}
	}
	for _, k := range roots {
		mark(k)
	}
	checked := make(map[*types.Named]bool)
	for len(queue) > 0 {
		for len(queue) > 0 {
			k := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if d := decls[k]; d != nil {
				for _, u := range d.uses {
					mark(u)
				}
			}
		}
		// A reachable type keeps the methods through which it
		// satisfies an interface: they are called dynamically.
		for _, n := range named {
			if checked[n] || !live[declKey(n.Obj())] {
				continue
			}
			checked[n] = true
			for _, k := range implementing(n, ifaces) {
				mark(k)
			}
		}
	}

	var out []string
	for k, d := range decls {
		if d.report && !live[k] {
			file := d.pos.Filename
			if rel, err := filepath.Rel(root, file); err == nil {
				file = rel
			}
			out = append(out, fmt.Sprintf("%s:%d: %s", file, d.pos.Line, k))
		}
	}
	sort.Strings(out)
	return out
}

// rootTests type-checks the root package's _test.go files, which must
// all be an external test package (package <name>_test). The loader
// lists no test files, so they are type-checked from a copy through
// CheckDir; the package under test resolves from export data.
func rootTests(t *testing.T, l *load.Loader, root string) *load.Package {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(root, "*_test.go"))
	if err != nil || len(files) == 0 {
		return nil
	}
	dir := filepath.Join(t.TempDir(), "xtest")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), src, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p, err := l.CheckDir(dir)
	if err != nil {
		t.Fatalf("root package tests: %v", err)
	}
	return p
}

// declKey is a declaration's identity across type-checks: a package
// seen from source and the same package seen by an importer through
// export data yield distinct objects but equal keys. It is
// "pkgpath.Name" for package-level objects, "pkgpath.Type.Method" for
// methods of named non-interface types, and "" for anything else.
func declKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if f, ok := obj.(*types.Func); ok {
		if f.Type().(*types.Signature).Recv() == nil {
			return analysis.ObjectKey(f)
		}
		if n := analysis.ReceiverNamed(f); n != nil && !types.IsInterface(n) {
			return analysis.ObjectKey(f)
		}
		return ""
	}
	if _, ok := obj.(*types.PkgName); ok || obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// usesIn returns the keys of the declarations node refers to.
func usesIn(info *types.Info, node ast.Node) []string {
	var out []string
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if k := declKey(info.Uses[id]); k != "" {
				out = append(out, k)
			}
		}
		return true
	})
	return out
}

// aliasAPI returns the keys of the exported methods of every type the
// root package re-exports by alias.
func aliasAPI(pkg *types.Package) []string {
	var out []string
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok || !tn.IsAlias() {
			continue
		}
		n, ok := analysis.Named(tn.Type())
		if !ok {
			continue
		}
		ms := types.NewMethodSet(types.NewPointer(n.Origin()))
		for i := 0; i < ms.Len(); i++ {
			if m := ms.At(i).Obj(); m.Exported() {
				out = append(out, declKey(m))
			}
		}
	}
	return out
}

// methodID is a method's name, package-qualified when unexported.
func methodID(f *types.Func) string {
	if f.Exported() {
		return f.Name()
	}
	return f.Pkg().Path() + "." + f.Name()
}

// sameSignature reports whether two method signatures match. A
// package type-checked from source and the same package seen through
// export data yield distinct named types, so where types.Identical
// fails the signatures are compared as text, with full package paths
// and without parameter names.
func sameSignature(a, b types.Type) bool {
	return types.Identical(a, b) || sigString(a.(*types.Signature)) == sigString(b.(*types.Signature))
}

func sigString(sig *types.Signature) string {
	var b strings.Builder
	tuple := func(t *types.Tuple) {
		b.WriteByte('(')
		for i := 0; i < t.Len(); i++ {
			b.WriteString(types.TypeString(t.At(i).Type(), (*types.Package).Path) + ",")
		}
		b.WriteByte(')')
	}
	tuple(sig.Params())
	if sig.Variadic() {
		b.WriteString("...")
	}
	tuple(sig.Results())
	return b.String()
}

// collectInterfaces records every named interface type declared in pkg
// and in the packages it imports, transitively.
func collectInterfaces(pkg *types.Package, ifaces map[*types.Interface]bool, seen map[*types.Package]bool) {
	if seen[pkg] {
		return
	}
	seen[pkg] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			addInterface(tn.Type(), ifaces)
		}
	}
	for _, imp := range pkg.Imports() {
		collectInterfaces(imp, ifaces, seen)
	}
}

// addInterface records t when it is an interface with methods.
func addInterface(t types.Type, ifaces map[*types.Interface]bool) {
	if t == nil {
		return
	}
	if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
		ifaces[it] = true
	}
}

// implementing returns the keys of n's methods (promoted ones included)
// through which n or *n satisfies an interface in ifaces.
func implementing(n *types.Named, ifaces map[*types.Interface]bool) []string {
	if types.IsInterface(n) {
		return nil
	}
	have := make(map[string]*types.Func)
	ms := types.NewMethodSet(types.NewPointer(n))
	for i := 0; i < ms.Len(); i++ {
		f := ms.At(i).Obj().(*types.Func)
		have[methodID(f)] = f
	}
	var out []string
	for it := range ifaces {
		var keys []string
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			f := have[methodID(m)]
			if f == nil || !sameSignature(f.Type(), m.Type()) {
				break
			}
			keys = append(keys, declKey(f))
		}
		if len(keys) == it.NumMethods() {
			out = append(out, keys...)
		}
	}
	return out
}

// ignoreLines returns the lines of f holding a well-formed
// //threadvet:ignore orphan <reason> directive; a directive without a
// reason fails the test.
func ignoreLines(t *testing.T, fset *token.FileSet, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			fields := strings.Fields(c.Text)
			if len(fields) < 2 || fields[0] != "//threadvet:ignore" || fields[1] != "orphan" {
				continue
			}
			pos := fset.Position(c.Pos())
			if len(fields) == 2 {
				t.Errorf("%s: //threadvet:ignore orphan needs a reason", pos)
			}
			lines[pos.Line] = true
		}
	}
	return lines
}
