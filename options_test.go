package xmoe_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// optionStructs are the option and configuration structs whose every
// exported field must be a value some caller chooses.
var optionStructs = []string{
	"xmoe/internal/moe.PipelineOpts",
	"xmoe/internal/train.DistConfig",
	"xmoe/internal/train.FTOptions",
	"xmoe/internal/baselines.RunSpec",
	"xmoe/internal/memmodel.Setup",
	"xmoe/internal/zero.Config",
	"xmoe/internal/bench.Options",
}

// unsetOptions are the option fields no non-test file sets that stay
// anyway, each with the reason it does.
var unsetOptions = map[string]string{
	"xmoe/internal/train.FTOptions.CkptCost": "a test seam: TestAsyncCkptMidWriteFallback needs a checkpoint write far longer than a step",
}

// TestEveryOptionHasASetter fails on an exported field of an option
// struct that no non-test file outside the struct's own package sets: by
// a key of a struct literal, an unkeyed struct literal, an assignment, an
// increment or by taking its address (flag.IntVar(&o.N, …)). A package
// filling in a default or forcing a value of its own option is not a
// caller choosing one, so its own files do not count. A field no caller
// sets holds one value for good: it is a configuration every code path
// must honour that nothing runs.
func TestEveryOptionHasASetter(t *testing.T) {
	l, paths, canon := loadModule(t)

	// fields maps each gated field to its "path.Type.Field" name.
	fields := map[*types.Var]string{}
	for _, name := range optionStructs {
		dot := strings.LastIndex(name, ".")
		path, typ := name[:dot], name[dot+1:]
		pkg := canon.pkgs[path]
		if pkg == nil {
			t.Fatalf("%s: package not loaded", name)
		}
		obj := pkg.Scope().Lookup(typ)
		if obj == nil {
			t.Fatalf("%s: no such type", name)
		}
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			t.Fatalf("%s: not a struct", name)
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				fields[f] = name + "." + f.Name()
			}
		}
	}
	for name := range unsetOptions {
		if !slices.Contains(slices.Collect(maps.Values(fields)), name) {
			t.Errorf("unsetOptions names %s, which is no gated field", name)
		}
	}

	set := map[string]bool{}
	for _, p := range paths {
		info := canon.infos[p]
		if info == nil {
			continue
		}
		mark := func(obj types.Object) {
			if f, ok := obj.(*types.Var); ok && fields[f] != "" && f.Pkg().Path() != p {
				set[fields[f]] = true
			}
		}
		selected := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					mark(s.Obj())
				}
			}
		}
		for _, name := range l.dirs[p].GoFiles {
			ast.Inspect(l.files[filepath.Join(l.dirs[p].Dir, name)], func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, ok := info.TypeOf(n).Underlying().(*types.Struct)
					for i, elt := range n.Elts {
						if kv, keyed := elt.(*ast.KeyValueExpr); keyed {
							if id, ok := kv.Key.(*ast.Ident); ok {
								mark(info.Uses[id])
							}
						} else if ok {
							mark(st.Field(i))
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						selected(lhs)
					}
				case *ast.IncDecStmt:
					selected(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						selected(n.X)
					}
				}
				return true
			})
		}
	}

	for f, name := range fields {
		if !set[name] && unsetOptions[name] == "" {
			t.Errorf("%s: %s is set by no non-test file outside its package", l.where(f), name)
		}
	}
}
