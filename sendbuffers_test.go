package xmoe_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
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
