package prefcqa_test

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptOrphans are the functions under internal/ that nothing shipped
// reaches and that stay anyway; every row carries its reason. A row
// whose function is gone, or has found a shipping caller, fails the
// test too.
var keptOrphans = map[string]string{
	"query.EvalNaive":                  "oracle: active-domain evaluation every planned path is held to",
	"query.EvalTrace":                  "oracle: plan-recording evaluation of the planner differentials",
	"priority.AllTotalExtensions":      "oracle: total extensions of a priority, behind the P2 / P4 axiom checks' tests",
	"priority.ExtendableToCyclic":      "oracle: the acyclicity differential of the priority tests",
	"priority.FromRanks":               "oracle: rank-built priorities, the fixtures of the family tests",
	"bitset.Union":                     "oracle: set algebra behind C ⊆ G ⊆ S ⊆ L ⊆ Rep",
	"bitset.Intersect":                 "oracle: set algebra behind C ⊆ G ⊆ S ⊆ L ⊆ Rep",
	"bitset.Set.Intersects":            "oracle: set algebra behind C ⊆ G ⊆ S ⊆ L ⊆ Rep",
	"bitset.Set.SubsetOf":              "oracle: set algebra behind C ⊆ G ⊆ S ⊆ L ⊆ Rep",
	"bitset.Set.Equal":                 "oracle: set algebra behind C ⊆ G ⊆ S ⊆ L ⊆ Rep",
	"bitset.Difference":                "oracle: set algebra behind C ⊆ G ⊆ S ⊆ L ⊆ Rep",
	"bitset.Set.String":                "diagnostic: tuple sets in other packages' test failures",
	"priority.Priority.String":         "diagnostic: priorities in other packages' test failures",
	"conflict.Graph.LiveSet":           "oracle: the tuple universe of the whole-instance references in core, clean and priority tests",
	"relation.Instance.Contains":       "public API through prefcqa.Instance, shown by ExampleDB_Clean",
	"core.Engine.CountCached":          "oracle: the era-keyed count cache against a fresh count",
	"conflict.Graph.ASCII":             "diagnostic: conflict graphs in other packages' test failures",
	"relation.Instance.AllIDs":         "diagnostic: the ID universe, tombstones included, in other packages' tests",
	"wal.DecodeSegment":                "the entry point of FuzzWALReplay",
	"wal.SetSyncFile":                  "seam: the facade's tests hold a checkpoint's fsync through it",
	"cqa.GroundQFEvaluate":             "Fig. 5's PTIME cell (settled in PR 21); GroundQFCertain, ToDNF and IsGround ship through it",
	"server.httpError.Unwrap":          "called by errors.Is / errors.As, never by name",
	"replication.terminalError.Unwrap": "called by errors.Is / errors.As, never by name",
}

// TestNoOrphanFunctions is the function-level companion of CI's
// package orphan gate: a function or method declared in a non-test
// file under internal/ must be reached from some non-test package of
// the root module or of the benchmark module (cmd/ and examples/
// included).
//
// The packages are type-checked from source with go/types, in the
// dependency order `go list -deps` prints; the standard library is
// read from its export data. A use is an identifier that go/types
// resolves to the function, so two functions that share a name are
// told apart. A call through an interface resolves to the interface's
// method, not to any implementation; so wherever a value of a
// concrete type is converted to an interface type — assigned,
// passed, returned, sent or put in a composite literal where an
// interface is expected, or converted explicitly — every method of
// that interface counts as used on the concrete type, from the
// function in which the conversion happens. Package fmt looks for a
// String method on every operand it formats, so a conversion to any
// interface also counts String. Any other method that is found only by
// a run-time type assertion (errors.Is calling Unwrap) is not reached
// by these rules and needs a keptOrphans row. A use inside a
// function already found orphaned does not count, nor does a
// function's use of itself, to a fixpoint.
func TestNoOrphanFunctions(t *testing.T) {
	fset := token.NewFileSet()
	exports := map[string]string{} // import path → export data file, standard library only
	checked := map[string]*types.Package{}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return gc.Import(path)
	})
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}

	type use struct{ fn, in *types.Func } // in: the enclosing declared function, nil at package level
	var uses []use
	decls := map[*types.Func]string{} // a function under internal/ → its key "pkg.Recv.Name"
	for _, dir := range []string{".", "benchmark"} {
		for _, lp := range goListDeps(t, dir) {
			if lp.Standard {
				exports[lp.ImportPath] = lp.Export
				continue
			}
			if checked[lp.ImportPath] != nil {
				continue // a root-module package the benchmark imports
			}
			var files []*ast.File
			for _, name := range lp.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
			}
			info := &types.Info{
				Types: map[ast.Expr]types.TypeAndValue{},
				Defs:  map[*ast.Ident]types.Object{},
				Uses:  map[*ast.Ident]types.Object{},
			}
			pkg, err := (&types.Config{Importer: imp}).Check(lp.ImportPath, fset, files, info)
			if err != nil {
				t.Fatalf("type-checking %s: %v", lp.ImportPath, err)
			}
			checked[lp.ImportPath] = pkg

			// internal/workload is the one test-support package (CI's
			// package gate names it): its generators are users, not candidates.
			rel, _ := filepath.Rel(root, lp.Dir)
			rel = filepath.ToSlash(rel)
			candidate := strings.HasPrefix(rel, "internal/") && !strings.HasPrefix(rel, "internal/workload")
			for _, f := range files {
				for _, d := range f.Decls {
					var in *types.Func
					if fd, ok := d.(*ast.FuncDecl); ok {
						in = info.Defs[fd.Name].(*types.Func)
						if candidate {
							decls[in] = funcKey(in)
						}
					}
					walkUses(d, info, func(fn *types.Func) {
						uses = append(uses, use{fn.Origin(), in})
					})
				}
			}
		}
	}

	// What a kept function calls is in use: only the bodies of functions
	// to be deleted stop counting.
	unused, bad := map[*types.Func]bool{}, []string(nil)
	for changed := true; changed; {
		changed = false
		used := map[*types.Func]bool{}
		for _, u := range uses {
			if u.fn != u.in && (u.in == nil || !unused[u.in] || keptOrphans[decls[u.in]] != "") {
				used[u.fn] = true
			}
		}
		for fn, key := range decls {
			if !used[fn] && !unused[fn] {
				unused[fn], changed = true, true
				if keptOrphans[key] == "" {
					bad = append(bad, key)
				}
			}
		}
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		t.Errorf("%d functions under internal/ that only tests reach (delete them, or add a keptOrphans row with the reason):\n  %s",
			len(bad), strings.Join(bad, "\n  "))
	}
	byKey := map[string]*types.Func{}
	for fn, key := range decls {
		byKey[key] = fn
	}
	for key := range keptOrphans {
		if fn := byKey[key]; fn == nil || !unused[fn] {
			t.Errorf("keptOrphans row %q is stale: the function is gone or something that ships uses it", key)
		}
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// listedPackage is what the gate reads of `go list -json`.
type listedPackage struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	Standard                bool
}

// goListDeps lists the packages of the module in dir and all their
// dependencies, each after the packages it imports.
func goListDeps(t *testing.T, dir string) []listedPackage {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var list []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			t.Fatal(err)
		}
		list = append(list, lp)
	}
	return list
}

// funcKey names a declared function as "pkg.Name" or "pkg.Recv.Name".
func funcKey(fn *types.Func) string {
	key := fn.Pkg().Name() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		typ := recv.Type()
		if ptr, ok := typ.(*types.Pointer); ok {
			typ = ptr.Elem()
		}
		key += typ.(*types.Named).Obj().Name() + "."
	}
	return key + fn.Name()
}

// walkUses reports every function that the declaration names, and
// every method that it reaches by converting a concrete value to an
// interface (see TestNoOrphanFunctions). A function literal's
// returns convert to its own results.
func walkUses(decl ast.Node, info *types.Info, report func(*types.Func)) {
	typeOf := func(e ast.Expr) types.Type { return info.Types[e].Type }
	convert := func(from, to types.Type) {
		if from == nil || to == nil || types.IsInterface(from) || !types.IsInterface(to) {
			return
		}
		iface := to.Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i)
			if fn, ok := sel(types.LookupFieldOrMethod(from, false, m.Pkg(), m.Name())).(*types.Func); ok {
				report(fn)
			}
		}
		// fmt looks for a String method on every operand it formats.
		if fn, ok := sel(types.LookupFieldOrMethod(from, false, nil, "String")).(*types.Func); ok {
			report(fn)
		}
	}
	var walk func(n ast.Node, results *types.Tuple)
	walk = func(n ast.Node, results *types.Tuple) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if fn, ok := info.Uses[n].(*types.Func); ok {
					report(fn)
				}
			case *ast.FuncDecl:
				if n.Body != nil {
					walk(n.Body, info.Defs[n.Name].Type().(*types.Signature).Results())
				}
				if n.Recv != nil {
					walk(n.Recv, nil)
				}
				walk(n.Type, nil)
				return false
			case *ast.FuncLit:
				walk(n.Body, typeOf(n).(*types.Signature).Results())
				return false
			case *ast.ReturnStmt:
				if results != nil && len(n.Results) == results.Len() {
					for i, r := range n.Results {
						convert(typeOf(r), results.At(i).Type())
					}
				}
			case *ast.AssignStmt:
				if n.Tok != token.ASSIGN {
					break
				}
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						convert(typeOf(n.Rhs[i]), typeOf(n.Lhs[i]))
					}
				} else if tuple, ok := typeOf(n.Rhs[0]).(*types.Tuple); ok {
					for i := range n.Lhs {
						convert(tuple.At(i).Type(), typeOf(n.Lhs[i]))
					}
				}
			case *ast.ValueSpec:
				if n.Type != nil {
					for _, v := range n.Values {
						convert(typeOf(v), typeOf(n.Type))
					}
				}
			case *ast.SendStmt:
				if ch, ok := typeOf(n.Chan).Underlying().(*types.Chan); ok {
					convert(typeOf(n.Value), ch.Elem())
				}
			case *ast.CallExpr:
				if tv := info.Types[n.Fun]; tv.IsType() {
					if len(n.Args) == 1 {
						convert(typeOf(n.Args[0]), tv.Type)
					}
				} else if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
					params := sig.Params()
					for i, a := range n.Args {
						switch {
						case sig.Variadic() && i >= params.Len()-1:
							last := params.At(params.Len() - 1).Type()
							if n.Ellipsis.IsValid() {
								convert(typeOf(a), last)
							} else {
								convert(typeOf(a), last.(*types.Slice).Elem())
							}
						case i < params.Len():
							convert(typeOf(a), params.At(i).Type())
						}
					}
				}
			case *ast.CompositeLit:
				lit := typeOf(n)
				if lit == nil {
					break
				}
				for i, e := range n.Elts {
					key, val := ast.Expr(nil), e
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						key, val = kv.Key, kv.Value
					}
					switch u := lit.Underlying().(type) {
					case *types.Struct:
						if id, ok := key.(*ast.Ident); ok {
							for j := 0; j < u.NumFields(); j++ {
								if u.Field(j).Name() == id.Name {
									convert(typeOf(val), u.Field(j).Type())
								}
							}
						} else if key == nil && i < u.NumFields() {
							convert(typeOf(val), u.Field(i).Type())
						}
					case *types.Slice:
						convert(typeOf(val), u.Elem())
					case *types.Array:
						convert(typeOf(val), u.Elem())
					case *types.Map:
						if key != nil {
							convert(typeOf(key), u.Key())
						}
						convert(typeOf(val), u.Elem())
					}
				}
			}
			return true
		})
	}
	walk(decl, nil)
}

// sel keeps the object of a types.LookupFieldOrMethod result.
func sel(obj types.Object, _ []int, _ bool) types.Object { return obj }
