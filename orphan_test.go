package prefcqa_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptOrphans are the functions under internal/ that no shipped file
// names and that stay anyway; every row carries its reason. A row whose
// function is gone, or has found a shipping caller, fails the test too.
var keptOrphans = map[string]string{
	"query.EvalNaive":                  "oracle: active-domain evaluation every planned path is held to",
	"query.EvalTrace":                  "oracle: plan-recording evaluation of the planner differentials",
	"clean.AllOutcomes":                "oracle: every outcome of Algorithm 1, what C-Rep is compared against",
	"priority.AllTotalExtensions":      "oracle: total extensions of a priority, behind the P2 / P4 axiom checks' tests",
	"priority.ExtendableToCyclic":      "oracle: the acyclicity differential of the priority tests",
	"priority.FromRanks":               "oracle: rank-built priorities, the fixtures of the family tests",
	"bitset.Union":                     "oracle: set algebra behind C ⊆ G ⊆ S ⊆ L ⊆ Rep",
	"bitset.Intersect":                 "oracle: set algebra behind C ⊆ G ⊆ S ⊆ L ⊆ Rep",
	"bitset.Set.Intersects":            "oracle: set algebra behind C ⊆ G ⊆ S ⊆ L ⊆ Rep",
	"bitset.Set.SubsetOf":              "oracle: set algebra behind C ⊆ G ⊆ S ⊆ L ⊆ Rep",
	"core.Engine.CountCached":          "oracle: the era-keyed count cache against a fresh count",
	"conflict.Graph.ASCII":             "diagnostic: conflict graphs in other packages' test failures",
	"relation.Instance.AllIDs":         "diagnostic: the ID universe, tombstones included, in other packages' tests",
	"wal.DecodeSegment":                "the entry point of FuzzWALReplay",
	"cqa.GroundQFEvaluate":             "Fig. 5's PTIME cell (settled in PR 21); GroundQFCertain, ToDNF and IsGround ship through it",
	"clean.byElems.Less":               "sort.Interface: called by package sort, never by name",
	"clean.byElems.Swap":               "sort.Interface: called by package sort, never by name",
	"server.httpError.Unwrap":          "called by errors.Is / errors.As, never by name",
	"replication.terminalError.Unwrap": "called by errors.Is / errors.As, never by name",
}

// TestNoOrphanFunctions is the function-level companion of CI's
// package orphan gate: a function or method declared in a non-test
// file under internal/ must be named by some non-test file of the
// checkout (benchmark/, cmd/ and examples/ included). Uses are counted
// by identifier name — no type checking — and a use inside a function
// already found orphaned does not count, to a fixpoint.
func TestNoOrphanFunctions(t *testing.T) {
	type use struct{ name, in string } // in: the enclosing function's key, "" at file level
	var uses []use
	decls := map[string]string{} // key "pkg.Recv.Name" of a function under internal/ → its bare name
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		record := func(n ast.Node, in string, skip *ast.Ident) {
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id != skip {
					uses = append(uses, use{id.Name, in})
				}
				return true
			})
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				record(d, "", nil)
				continue
			}
			key := f.Name.Name + "."
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				typ := fn.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if idx, ok := typ.(*ast.IndexExpr); ok { // generic receiver
					typ = idx.X
				}
				if id, ok := typ.(*ast.Ident); ok {
					key += id.Name + "."
				}
			}
			key += fn.Name.Name
			// internal/workload is the one test-support package (CI's
			// package gate names it): its generators are users, not candidates.
			if p := filepath.ToSlash(path); strings.HasPrefix(p, "internal/") && !strings.HasPrefix(p, "internal/workload/") {
				decls[key] = fn.Name.Name
			}
			record(fn, key, fn.Name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// What a kept function calls is in use: only the bodies of functions
	// to be deleted stop counting.
	unused, bad := map[string]bool{}, []string(nil)
	for changed := true; changed; {
		changed = false
		used := map[string]bool{}
		for _, u := range uses {
			// A function's own body does not keep its name alive.
			if (!unused[u.in] || keptOrphans[u.in] != "") && decls[u.in] != u.name {
				used[u.name] = true
			}
		}
		for key, name := range decls {
			if !used[name] && !unused[key] {
				unused[key], changed = true, true
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
	for key := range keptOrphans {
		if !unused[key] {
			t.Errorf("keptOrphans row %q is stale: the function is gone or something that ships uses it", key)
		}
	}
}
