package xmoe_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// lentSenders names every function that builds a payload crossing an
// exchange: the flat exchange's chunk and return packs, RBD's Stage-1
// pilot buffer (dispatchPilots), Stage-2 staging, Stage-2 returns
// (fromLayout, forward and backward), merged C1 rows (combine), and the
// backward's reverse-C1 rows, reverse-C2 gradients and reverse-S1 pilot
// gradients (Backward), and the ZeRO all-gather of the dense parameter.
// Each draws its buffer from the rank arena with simrt's Rank.Lend.
var lentSenders = []struct{ file, recv, name string }{
	{"internal/moe/overlap.go", "", "packSegments"},
	{"internal/moe/overlap.go", "", "packBlocks"},
	{"internal/rbd/rbd.go", "State", "dispatchPilots"},
	{"internal/rbd/rbd.go", "Dispatcher", "stageReplicas"},
	{"internal/rbd/rbd.go", "State", "fromLayout"},
	{"internal/rbd/forward.go", "State", "combine"},
	{"internal/rbd/backward.go", "State", "Backward"},
	{"internal/train/dist.go", "DistTrainer", "gatherBias"},
}

// TestSendBuffersAreLent fails, naming file:line, when a function that
// builds an exchange payload allocates a float32 buffer fresh —
// make([]float32, …) or tensor.New — instead of lending it from the rank
// arena, where its receivers' releases return it. A named function that
// is missing fails too, so a rename cannot pass vacuously.
func TestSendBuffersAreLent(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	for _, s := range lentSenders {
		f := files[s.file]
		if f == nil {
			var err error
			if f, err = parser.ParseFile(fset, filepath.FromSlash(s.file), nil, 0); err != nil {
				t.Fatal(err)
			}
			files[s.file] = f
		}
		fn := findFunc(f, s.recv, s.name)
		if fn == nil {
			t.Errorf("%s: no func %s (receiver %q): update lentSenders", s.file, s.name, s.recv)
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && freshFloats(call) {
				t.Errorf("%s: %s allocates a send buffer fresh; lend it from the rank arena (simrt.Rank.Lend)",
					fset.Position(call.Pos()), s.name)
			}
			return true
		})
	}
}

// TestPartMetaIsPointer fails, naming file:line, on an assignment to a
// Meta field (x.Meta = v, or Meta: v in a literal) in non-test Go whose
// value is not an & expression. simrt.Part.Meta is an interface, and a
// non-pointer value put into one is boxed in a heap object of its own, one
// per part; a pointer into an array the sender allocated once per call is
// not. It fails too when it finds no assignment, so a rename cannot pass
// vacuously.
func TestPartMetaIsPointer(t *testing.T) {
	fset := token.NewFileSet()
	sites := 0
	check := func(v ast.Expr) {
		sites++
		if u, ok := v.(*ast.UnaryExpr); !ok || u.Op != token.AND {
			t.Errorf("%s: Meta is set to a value, which boxes it; point it into an array the sender holds (&a[i])",
				fset.Position(v.Pos()))
		}
	}
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "Meta" && len(n.Rhs) == len(n.Lhs) {
						check(n.Rhs[i])
					}
				}
			case *ast.KeyValueExpr:
				if key, ok := n.Key.(*ast.Ident); ok && key.Name == "Meta" {
					check(n.Value)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sites == 0 {
		t.Error("no assignment to a Meta field found: the check would pass vacuously")
	}
}

// callTableUsers names every function of the two exchanges, the flat
// all-to-all and RBD, that builds a layer call's index tables: geometry,
// part and exchange lists, and the metadata peers read. Each cuts them
// from the call's moe.CallTables set with moe.Table, which goes back to its
// pool when the call ends.
var callTableUsers = []struct{ file, recv, name string }{
	{"internal/moe/exchange.go", "flat", "Forward"},
	{"internal/moe/exchange.go", "flat", "Backward"},
	{"internal/rbd/rbd.go", "State", "dispatchPilots"},
	{"internal/rbd/rbd.go", "Dispatcher", "selectPilots"},
	{"internal/rbd/rbd.go", "Dispatcher", "stageReplicas"},
	{"internal/rbd/rbd.go", "State", "fromLayout"},
	{"internal/rbd/rbd.go", "State", "mergesByChunk"},
	{"internal/rbd/forward.go", "State", "dispatch"},
	{"internal/rbd/forward.go", "State", "combine"},
	{"internal/rbd/backward.go", "State", "Backward"},
	{"internal/rbd/backward.go", "State", "newBwdS1Metas"},
	{"internal/rbd/backward.go", "State", "combineWeightGrads"},
}

// gcOwnedTables are the slices those functions may still make: what a
// reader holds after the call ends, keyed by function and element type.
var gcOwnedTables = []struct{ name, elem, reason string }{
	{"flat.Backward", "float32", "the combine-weight gradients, returned to the caller"},
	{"State.combineWeightGrads", "float32", "the combine-weight gradients, returned to the caller"},
	{"State.newBwdS1Metas", "float32", "reverse S1's combine-weight gradients, which their source reads after its closing drain"},
	{"State.newBwdS1Metas", "bwdS1Meta", "reverse S1's metadata, which its source reads after its closing drain"},
}

// TestCallTablesArePooled fails, naming file:line, when a function that
// builds a layer call's index tables makes a slice (make([]int, …),
// make([]simrt.Part, …) and the like) instead of cutting it from the
// call's moe.CallTables set, unless gcOwnedTables lists it. A named
// function that is missing fails too, and so does an allowlist entry no
// function uses, so neither list can go stale.
func TestCallTablesArePooled(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	used := make([]bool, len(gcOwnedTables))
	for _, s := range callTableUsers {
		f := files[s.file]
		if f == nil {
			var err error
			if f, err = parser.ParseFile(fset, filepath.FromSlash(s.file), nil, 0); err != nil {
				t.Fatal(err)
			}
			files[s.file] = f
		}
		fn := findFunc(f, s.recv, s.name)
		if fn == nil {
			t.Errorf("%s: no func %s (receiver %q): update callTableUsers", s.file, s.name, s.recv)
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "make" || len(call.Args) == 0 {
				return true
			}
			arr, ok := call.Args[0].(*ast.ArrayType)
			if !ok || arr.Len != nil {
				return true
			}
			elem := types.ExprString(arr.Elt)
			for i, g := range gcOwnedTables {
				if g.name == s.recv+"."+s.name && g.elem == elem {
					used[i] = true
					return true
				}
			}
			t.Errorf("%s: %s makes a []%s; cut it from the call's tables (moe.Table) or list it in gcOwnedTables with the reason a reader holds it after the call",
				fset.Position(call.Pos()), s.name, elem)
			return true
		})
	}
	for i, g := range gcOwnedTables {
		if !used[i] {
			t.Errorf("gcOwnedTables lists a []%s in %s, which makes none: drop the entry", g.elem, g.name)
		}
	}
}

// findFunc returns the declaration of func name in f, a method of recv's
// (pointer) type when recv is set.
func findFunc(f *ast.File, recv, name string) *ast.FuncDecl {
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Name.Name != name || (fn.Recv == nil) != (recv == "") {
			continue
		}
		if recv == "" {
			return fn
		}
		typ := fn.Recv.List[0].Type
		if star, ok := typ.(*ast.StarExpr); ok {
			typ = star.X
		}
		if id, ok := typ.(*ast.Ident); ok && id.Name == recv {
			return fn
		}
	}
	return nil
}

// freshFloats reports whether call is make([]float32, …) or tensor.New(…).
func freshFloats(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fun.Name != "make" || len(call.Args) == 0 {
			return false
		}
		arr, ok := call.Args[0].(*ast.ArrayType)
		if !ok || arr.Len != nil {
			return false
		}
		elt, ok := arr.Elt.(*ast.Ident)
		return ok && elt.Name == "float32"
	case *ast.SelectorExpr:
		pkg, ok := fun.X.(*ast.Ident)
		return ok && pkg.Name == "tensor" && fun.Sel.Name == "New"
	}
	return false
}
