package xmoe_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// module is the import path of this module (go.mod's module line).
const module = "xmoe"

// TestEveryExportHasACaller fails on an exported identifier — a
// package-level func, type, var or const, or a method — declared in a
// non-test file that nothing references except its own package's tests: a
// non-test file anywhere in the module (benchmark/, cmd/ and examples/
// included) or another package's test is a caller. Exempt are methods
// that satisfy an interface declared in the module, which an interface
// call reaches without naming them, and String, Error and Unwrap methods,
// which fmt and errors reach the same way. Struct fields are out of scope:
// encoding/json and fmt read them by reflection.
func TestEveryExportHasACaller(t *testing.T) {
	l, paths, canon := loadModule(t)

	// The non-test packages: what declares the exports, and what every
	// importer sees. Their own files are callers.
	used := map[string]bool{}
	var ifaces []*types.Interface
	for _, p := range paths {
		info := canon.infos[p]
		if info == nil {
			continue
		}
		markUses(info, used, "")
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	// Each package's tests: their references count for every package but
	// their own. An external test package imports its package with the
	// internal test files added, as go test builds it, so it is checked in
	// a world of its own where the packages between the two are rebuilt.
	for _, p := range paths {
		bp, w := l.dirs[p], canon
		if len(bp.XTestGoFiles) > 0 && len(bp.TestGoFiles) > 0 {
			w = newWorld()
		}
		if len(bp.TestGoFiles) > 0 {
			pkg, info, err := l.check(p, slices.Concat(bp.GoFiles, bp.TestGoFiles), w)
			if err != nil {
				t.Fatalf("type-check %s with its tests: %v", p, err)
			}
			markUses(info, used, p)
			if w != canon {
				w.pkgs[p] = pkg
			}
		}
		if len(bp.XTestGoFiles) > 0 {
			_, info, err := l.check(p+"_test", bp.XTestGoFiles, w)
			if err != nil {
				t.Fatalf("type-check %s_test: %v", p, err)
			}
			markUses(info, used, p)
		}
	}

	for _, p := range paths {
		pkg := canon.pkgs[p]
		if pkg == nil {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if obj.Exported() && !used[key(obj)] {
				t.Errorf("%s: %s.%s has no caller outside its own package's tests", l.where(obj), p, name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !m.Exported() || used[key(m)] || m.Name() == "String" || m.Name() == "Error" || m.Name() == "Unwrap" || satisfies(named, m.Name(), ifaces) {
					continue
				}
				t.Errorf("%s: %s.%s.%s has no caller outside its own package's tests", l.where(m), p, name, m.Name())
			}
		}
	}
}

// key names obj the same way in every type-check of its package:
// "path.Name" for a package-level object, "path.Type.Name" for a method of
// a named type, "" for anything else (locals, fields, parameters).
func key(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return obj.Pkg().Path() + "." + n.Obj().Name() + "." + obj.Name()
			}
			return ""
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// markUses records every object info's identifiers and selectors refer to
// (a method reached through an embedded field names its declaration),
// except those of package self.
func markUses(info *types.Info, used map[string]bool, self string) {
	mark := func(obj types.Object) {
		if obj.Pkg() != nil && obj.Pkg().Path() != self {
			used[key(obj)] = true
		}
	}
	for _, obj := range info.Uses {
		mark(obj)
	}
	for _, sel := range info.Selections {
		mark(sel.Obj())
	}
}

// satisfies reports whether the method called name of named (or of a
// pointer to it) implements one of ifaces that declares it.
func satisfies(named *types.Named, name string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, name); obj == nil {
			continue
		}
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}

// loadModule parses every package of the module and type-checks the
// non-test files of each into one world. It returns the loader, the
// packages' import paths in order, and that world.
func loadModule(t *testing.T) (*loader, []string, *world) {
	t.Helper()
	l := &loader{fset: token.NewFileSet(), std: importer.Default(), dirs: map[string]*build.Package{},
		files: map[string]*ast.File{}}
	if err := filepath.WalkDir(".", l.walk); err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	canon := newWorld()
	for _, p := range paths {
		if len(l.dirs[p].GoFiles) == 0 {
			continue
		}
		if _, err := l.load(p, canon); err != nil {
			t.Fatalf("type-check %s: %v", p, err)
		}
	}
	return l, paths, canon
}

// loader type-checks the module's packages from source and the standard
// library from export data.
type loader struct {
	fset  *token.FileSet
	std   types.Importer
	dirs  map[string]*build.Package // by import path, as go/build sees them for this GOOS/GOARCH
	files map[string]*ast.File      // by path relative to the module root
}

// world is one set of type-checked module packages that import each
// other, with what their identifiers refer to.
type world struct {
	pkgs  map[string]*types.Package
	infos map[string]*types.Info
}

func newWorld() *world {
	return &world{pkgs: map[string]*types.Package{}, infos: map[string]*types.Info{}}
}

func (l *loader) walk(path string, d fs.DirEntry, err error) error {
	if err != nil || !d.IsDir() {
		return err
	}
	if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
		return filepath.SkipDir
	}
	bp, err := build.Default.ImportDir(path, 0)
	if _, none := err.(*build.NoGoError); none {
		return nil
	} else if err != nil {
		return err
	}
	for _, names := range [][]string{bp.GoFiles, bp.TestGoFiles, bp.XTestGoFiles} {
		for _, name := range names {
			file := filepath.Join(path, name)
			if l.files[file], err = parser.ParseFile(l.fset, file, nil, parser.SkipObjectResolution); err != nil {
				return err
			}
		}
	}
	l.dirs[filepath.ToSlash(filepath.Join(module, path))] = bp
	return nil
}

// load type-checks the non-test files of the package at path into w, once.
func (l *loader) load(path string, w *world) (*types.Package, error) {
	if pkg, ok := w.pkgs[path]; ok {
		return pkg, nil
	}
	pkg, info, err := l.check(path, l.dirs[path].GoFiles, w)
	if err != nil {
		return nil, err
	}
	w.pkgs[path], w.infos[path] = pkg, info
	return pkg, nil
}

// check type-checks the named files of the package at dir path (path may
// carry the "_test" suffix of an external test package), resolving the
// module's imports in w.
func (l *loader) check(path string, names []string, w *world) (*types.Package, *types.Info, error) {
	bp := l.dirs[strings.TrimSuffix(path, "_test")]
	files := make([]*ast.File, len(names))
	for i, name := range names {
		files[i] = l.files[filepath.Join(bp.Dir, name)]
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{},
		Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{Importer: importerFunc(func(imp string) (*types.Package, error) {
		if imp != module && !strings.HasPrefix(imp, module+"/") {
			return l.std.Import(imp)
		}
		return l.load(imp, w)
	})}
	pkg, err := conf.Check(path, l.fset, files, info)
	return pkg, info, err
}

// where is obj's file:line, relative to the module root.
func (l *loader) where(obj types.Object) string {
	pos := l.fset.Position(obj.Pos())
	return fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
