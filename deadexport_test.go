package repro_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis/directive"
	"repro/internal/analysis/load"
)

// TestNoDeadExports keeps the library surface at what the programs use
// (DESIGN.md §10). It fails on any exported function or method under
// internal/ that no non-test code references: not the module's own
// packages, not cmd/ or examples/, and not the bench/ module. A method
// that satisfies an interface counts as referenced, since it is reached
// through that interface. An export that must stay anyway — a test oracle,
// a fixture other packages' tests import, reproduction evidence that tests
// pin — carries a
//
//	//trimlint:allow deadexport <reason>
//
// directive on its own line or the line above it.
func TestNoDeadExports(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module and the standard library it imports")
	}
	dead, err := deadExports(".", "repro")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		t.Errorf("%s: %s is exported but no non-test code references it: delete it, or say why it stays with //trimlint:allow deadexport <reason>", d.pos, d.name)
	}
}

// TestDeadExportsFixture runs the check over a small module tree under
// testdata/deadexport: an export only a test calls is flagged, and so is
// one that only calls itself; an export that only bench/ or cmd/ calls,
// an allowed one and methods reached through an interface (a net/rpc
// server codec among them) pass.
func TestDeadExportsFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks net/rpc and its imports from source")
	}
	dead, err := deadExports(filepath.Join("testdata", "deadexport"), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range dead {
		got = append(got, d.name)
	}
	want := []string{"lib.OnlyTest", "lib.Recursive", "lib.Table.OnlyTest"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("flagged %v, want %v", got, want)
	}
}

type deadExport struct {
	pos  token.Position
	name string // pkg.Func or pkg.Type.Method
}

// deadExports loads every package of the module rooted at root (module
// path modPath), treating a nested module such as bench/ as part of it,
// and returns the exported functions and methods under internal/ that no
// loaded file references outside their own body, in source order.
func deadExports(root, modPath string) ([]deadExport, error) {
	var paths []string
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoSource(dir) {
			rel, _ := filepath.Rel(root, dir)
			paths = append(paths, strings.TrimSuffix(modPath+"/"+filepath.ToSlash(rel), "/."))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	resolve := load.ModuleResolver(modPath, root)
	loader := load.New(func(path string) (string, bool) {
		if dir, ok := resolve(path); ok {
			return dir, true
		}
		dir := filepath.Join(root, "vendor", filepath.FromSlash(path))
		return dir, hasGoSource(dir)
	})
	var pkgs []*load.Package
	for _, path := range paths {
		p, err := loader.Load(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}

	// The candidates, with the extent of each declaration so that a
	// function calling itself does not keep itself alive.
	type candidate struct {
		decl *ast.FuncDecl
		pkg  *load.Package
	}
	cands := make(map[*types.Func]candidate)
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, modPath+"/internal/") {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					cands[p.Info.Defs[fd.Name].(*types.Func)] = candidate{fd, p}
				}
			}
		}
	}
	for _, p := range pkgs {
		for id, obj := range p.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if c, ok := cands[fn]; ok && (id.Pos() < c.decl.Pos() || id.Pos() >= c.decl.End()) {
				delete(cands, fn)
			}
		}
	}

	ifaces := interfacesByMethod(pkgs)
	allows := make(map[*load.Package]*directive.Index)
	var dead []deadExport
	for fn, c := range cands {
		name := c.pkg.Types.Name() + "." + fn.Name()
		if recv := fn.Signature().Recv(); recv != nil {
			named := namedOf(recv.Type())
			if implementsAny(named, ifaces[fn.Name()]) {
				continue
			}
			name = c.pkg.Types.Name() + "." + named.Obj().Name() + "." + fn.Name()
		}
		if allows[c.pkg] == nil {
			allows[c.pkg] = directive.NewFiles(loader.Fset, c.pkg.Files)
		}
		if allows[c.pkg].Allows(fn.Pos(), "deadexport") {
			continue
		}
		dead = append(dead, deadExport{loader.Fset.Position(fn.Pos()), name})
	}
	sort.Slice(dead, func(i, j int) bool {
		a, b := dead[i].pos, dead[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return dead, nil
}

// hasGoSource reports whether dir holds a non-test Go file.
func hasGoSource(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if n := e.Name(); !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true
		}
	}
	return false
}

// interfacesByMethod indexes, by method name, every non-empty interface
// the loaded code can see: the interface types declared at package level
// anywhere in its import graph (the standard library's included, so a
// net/rpc codec or a fmt.Stringer counts) and every interface-typed
// expression in the loaded packages themselves.
func interfacesByMethod(pkgs []*load.Package) map[string][]*types.Interface {
	out := make(map[string][]*types.Interface)
	added := make(map[*types.Interface]bool)
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || added[it] {
			return
		}
		added[it] = true
		for i := range it.NumMethods() {
			name := it.Method(i).Name()
			out[name] = append(out[name], it)
		}
	}
	seen := make(map[*types.Package]bool)
	var visit func(*types.Package)
	visit = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); !ok || named.TypeParams() == nil {
					add(tn.Type())
				}
			}
		}
		for _, imp := range tp.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p.Types)
		for _, tv := range p.Info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	return out
}

// namedOf strips a receiver's pointer and returns its named type.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// implementsAny reports whether the named type or a pointer to it
// implements one of the interfaces.
func implementsAny(named *types.Named, ifaces []*types.Interface) bool {
	if named == nil || named.TypeParams() != nil {
		return false
	}
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		if types.Implements(named, it) || types.Implements(ptr, it) {
			return true
		}
	}
	return false
}
