package prefcqa

import (
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"prefcqa/internal/core"
	"prefcqa/internal/cqa"
	"prefcqa/internal/query"
)

// corpusOf returns the query texts of the named package-level string
// corpora of a test file: every string literal in their initialisers.
// The corpora stay where the tests that own them keep them; reading the
// source replays each of them here as it grows.
func corpusOf(t *testing.T, file string, vars ...string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	found := map[string]bool{}
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if !slices.Contains(vars, name.Name) || i >= len(vs.Values) {
					continue
				}
				found[name.Name] = true
				ast.Inspect(vs.Values[i], func(n ast.Node) bool {
					if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						s, err := strconv.Unquote(lit.Value)
						if err != nil {
							t.Fatal(err)
						}
						out = append(out, s)
					}
					return true
				})
			}
		}
	}
	for _, v := range vars {
		if !found[v] {
			t.Fatalf("%s declares no corpus %s", file, v)
		}
	}
	return out
}

// relFixture is one relation of a test database: its name, attributes,
// FD (none when empty), rows, and the preferences and deletions, by row
// index.
type relFixture struct {
	name  string
	attrs []Attribute
	fd    string
	rows  [][]any
	prefs [][2]int
	dead  []int
}

// mustDB builds a database of the fixtures.
func mustDB(t *testing.T, rels ...relFixture) *DB {
	t.Helper()
	db := New()
	for _, rf := range rels {
		r, err := db.CreateRelation(rf.name, rf.attrs...)
		if err != nil {
			t.Fatal(err)
		}
		if rf.fd != "" {
			if err := r.AddFD(rf.fd); err != nil {
				t.Fatal(err)
			}
		}
		ids := make([]TupleID, len(rf.rows))
		for i, row := range rf.rows {
			if ids[i], err = r.Insert(row...); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range rf.prefs {
			if err := r.Prefer(ids[p[0]], ids[p[1]]); err != nil {
				t.Fatal(err)
			}
		}
		for _, i := range rf.dead {
			if _, err := r.Delete(ids[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// TestQueryCacheMatchesFresh runs the planner corpora of internal/query
// (over R, S, T with a name column) and the closed and open corpora of
// internal/cqa (over their fixtures' schemas, with oriented, unoriented
// and triangle components) through the cached facade twice, under every
// family, and requires each answer — or error — to be the one a fresh
// query.Parse + cqa.Evaluate / cqa.FreeAnswers gives on the same pinned
// input. The second pass is served from the cache alone.
func TestQueryCacheMatchesFresh(t *testing.T) {
	ctx := context.Background()
	planDB := mustDB(t,
		relFixture{"R", []Attribute{IntAttr("A"), IntAttr("B")}, "A -> B",
			[][]any{{0, 0}, {0, 1}, {1, 2}, {1, 1}, {2, 1}, {2, 2}, {3, 3}}, [][2]int{{0, 1}, {2, 3}}, []int{6}},
		relFixture{"S", []Attribute{IntAttr("C"), NameAttr("D")}, "C -> D",
			[][]any{{0, "n0"}, {1, "n1"}, {2, "n0"}, {1, "n2"}}, nil, nil},
		relFixture{"T", []Attribute{IntAttr("E"), IntAttr("F")}, "E -> F",
			[][]any{{0, 0}, {1, 1}, {0, 2}, {1, 3}, {2, 2}}, [][2]int{{0, 2}}, []int{4}})
	closedDB := mustDB(t,
		relFixture{"R", []Attribute{IntAttr("K"), IntAttr("V")}, "K -> V",
			[][]any{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 0}, {2, 1}, {3, 0}, {3, 1}, {4, 0}, {4, 1}, {5, 0}, {5, 1}, {0, 7}, {5, 2}, {9, 9}},
			[][2]int{{0, 1}, {2, 3}, {4, 5}, {10, 13}}, []int{12}},
		relFixture{"S", []Attribute{IntAttr("K"), IntAttr("W")}, "K -> W",
			[][]any{{0, 0}, {0, 5}, {1, 1}, {1, 6}, {2, 2}}, [][2]int{{0, 1}}, nil})
	openDB := mustDB(t,
		relFixture{"Emp", []Attribute{NameAttr("Name"), IntAttr("Sal")}, "Name -> Sal",
			[][]any{{"Mary", 40}, {"Mary", 50}, {"John", 30}, {"John", 35}, {"Ann", 45}}, [][2]int{{3, 2}}, nil},
		relFixture{"Dept", []Attribute{NameAttr("DName"), IntAttr("Bud")}, "DName -> Bud",
			[][]any{{"R&D", 100}, {"R&D", 90}, {"IT", 35}}, [][2]int{{0, 1}}, nil})
	for _, c := range []struct {
		name   string
		db     *DB
		corpus []string
	}{
		{"planner", planDB, append(corpusOf(t, "internal/query/executor_test.go", "executorCorpus"),
			corpusOf(t, "internal/query/peel_test.go", "peelCorpus")...)},
		{"closed", closedDB, corpusOf(t, "internal/cqa/closed_test.go", "closedDiffCorpus", "closedGroundCorpus", "closedDeclinedCorpus")},
		{"open", openDB, corpusOf(t, "internal/cqa/open_test.go", "openDiffCorpus")},
	} {
		snap, err := c.db.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		in, err := snap.input(ctx)
		if err != nil {
			t.Fatal(err)
		}
		// fresh answers src without the cache, as the facade did before it.
		fresh := func(f Family, src string) string {
			q, err := query.Parse(src)
			if err != nil {
				return "error: " + err.Error()
			}
			if len(query.FreeVars(q)) > 0 {
				bs, err := cqa.FreeAnswers(f, in, q)
				return fmt.Sprint(bs, err)
			}
			a, err := cqa.Evaluate(f, in, q)
			return fmt.Sprint(a, err)
		}
		cached := func(f Family, src string) string {
			q, err := query.Parse(src)
			if err != nil {
				_, err := snap.QueryContext(ctx, f, src)
				return "error: " + err.Error()
			}
			if len(query.FreeVars(q)) > 0 {
				bs, err := snap.QueryOpenContext(ctx, f, src)
				return fmt.Sprint(bs, err)
			}
			a, err := snap.QueryContext(ctx, f, src)
			return fmt.Sprint(a, err)
		}
		// Texts that do not parse or validate are not kept.
		schemas := map[string]*Schema{}
		for _, r := range in.Rels {
			schemas[r.Inst.Schema().Name()] = r.Inst.Schema()
		}
		rejected := 0
		for _, src := range c.corpus {
			if q, err := query.Parse(src); err != nil || query.Validate(q, schemas) != nil {
				rejected++
			}
		}
		if rejected > len(c.corpus)/4 {
			t.Fatalf("%s: %d of %d texts rejected: the fixture does not fit the corpus", c.name, rejected, len(c.corpus))
		}
		for _, f := range core.Families {
			for pass := 0; pass < 2; pass++ {
				before := c.db.QueryStats()
				for _, src := range c.corpus {
					want := fresh(f, src)
					if got := cached(f, src); got != want {
						t.Errorf("%s %v pass %d %q: cached %s, fresh %s", c.name, f, pass, src, got, want)
					}
				}
				after := c.db.QueryStats()
				if pass == 1 {
					if hits, misses := after.QueryCacheHits-before.QueryCacheHits, after.QueryCacheMisses-before.QueryCacheMisses; misses != int64(rejected) || hits != int64(len(c.corpus)-rejected) {
						t.Errorf("%s %v: second pass of %d texts (%d rejected) took %d hits, %d misses", c.name, f, len(c.corpus), rejected, hits, misses)
					}
				}
			}
		}
	}
}

// TestQueryCacheInvalidation: an entry is valid for the relations the
// database had when it was made. A text naming a relation that does
// not exist yet errors, then answers once the relation is created; a
// snapshot pinned before the creation keeps erroring, although its
// evaluation would never reach the relation (R(1, 2) holds); an arity
// mismatch is reported under every epoch; a creation makes every kept
// text validate again; and one database's entries never answer
// another's texts.
func TestQueryCacheInvalidation(t *testing.T) {
	db := mustDB(t, relFixture{"R", []Attribute{IntAttr("K"), IntAttr("V")}, "K -> V", [][]any{{1, 2}}, nil, nil})
	old, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	const text, wrongArity, kept = "R(1, 2) OR (EXISTS x . Q(x))", "Q(1, 2)", "R(1, 2)"
	misses := func() int64 { return db.QueryStats().QueryCacheMisses }
	for i := 0; i < 2; i++ { // the second round would be served by a stale entry
		if _, err := old.Query(Global, text); err == nil || !strings.Contains(err.Error(), `unknown relation "Q"`) {
			t.Fatalf("%s before Q exists: %v, want unknown relation", text, err)
		}
		if a, err := old.Query(Global, kept); err != nil || a != True {
			t.Fatalf("%s: %v, %v", kept, a, err)
		}
	}
	q, err := db.CreateRelation("Q", IntAttr("X"))
	if err != nil {
		t.Fatal(err)
	}
	q.MustInsert(7)
	for i := 0; i < 2; i++ {
		before := misses()
		if a, err := db.Query(Global, kept); err != nil || a != True {
			t.Fatalf("%s: %v, %v", kept, a, err)
		}
		if d := misses() - before; d != int64(1-i) {
			t.Fatalf("read %d of %s after Q is created: %d misses, want %d", i+1, kept, d, 1-i)
		}
		if a, err := db.Query(Global, text); err != nil || a != True {
			t.Fatalf("%s after Q is created: %v, %v, want true", text, a, err)
		}
		if _, err := db.Query(Global, wrongArity); err == nil || !strings.Contains(err.Error(), "expects 1 arguments") {
			t.Fatalf("%s against Q(X): %v, want an arity error", wrongArity, err)
		}
		// The cache now holds the text for the new epoch; the old pin
		// must not be answered from it.
		if a, err := old.Query(Global, text); err == nil {
			t.Fatalf("%s on the snapshot pinned before Q was created: %v, want unknown relation", text, a)
		}
	}

	other := mustDB(t, relFixture{"R", []Attribute{IntAttr("K")}, "", [][]any{{1}}, nil, nil})
	if _, err := other.Query(Global, kept); err == nil || !strings.Contains(err.Error(), "expects 1 arguments") {
		t.Fatalf("%s on another database's R(K): %v, want an arity error", kept, err)
	}
}

// TestQueryCacheConcurrentCreate runs cached readers while relations
// are created (go test -race): every reader pins a snapshot and asks
// texts over the relation that exists from the start and over the ones
// being created. A text answers exactly when its snapshot has the
// relation it names, with that relation's answer, and the existing
// relation's answers never move.
func TestQueryCacheConcurrentCreate(t *testing.T) {
	const created, readers = 24, 4
	db := mustDB(t, relFixture{"R", []Attribute{IntAttr("K"), IntAttr("V")}, "K -> V",
		[][]any{{0, 0}, {0, 1}, {1, 0}}, [][2]int{{0, 1}}, nil})
	var wg sync.WaitGroup
	var rounds atomic.Int64
	done := make(chan struct{})
	errs := make(chan error, readers)
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; ; round++ {
				select {
				case <-done:
					if round > 0 {
						return
					}
				default:
				}
				rounds.Add(1)
				snap, err := db.Snapshot()
				if err != nil {
					errs <- err
					return
				}
				have := map[string]bool{}
				for _, name := range snap.Relations() {
					have[name] = true
				}
				for i := 0; i < created; i++ {
					name := fmt.Sprintf("Q%d", (i+w+round)%created)
					a, err := snap.Query(Global, fmt.Sprintf("EXISTS x . %s(x) AND R(0, 0)", name))
					switch {
					case have[name] && (err != nil || a != True):
						errs <- fmt.Errorf("%s exists in the pin: %v, %v", name, a, err)
						return
					case !have[name] && err == nil:
						errs <- fmt.Errorf("%s is not in the pin: answered %v", name, a)
						return
					}
					for text, want := range map[string]Answer{"R(0, 0)": True, "R(0, 1)": False, "EXISTS v . R(1, v)": True} {
						if a, err := snap.Query(Global, text); err != nil || a != want {
							errs <- fmt.Errorf("%s: %v, %v, want %v", text, a, err, want)
							return
						}
					}
				}
			}
		}(w)
	}
	for i := 0; i < created; i++ {
		// Let a reader pin between any two creations.
		for start := rounds.Load(); rounds.Load() == start && len(errs) == 0; {
			runtime.Gosched()
		}
		// The relation arrives with its row: a pin never sees it empty.
		schema, err := NewSchema(fmt.Sprintf("Q%d", i), IntAttr("X"))
		if err != nil {
			t.Fatal(err)
		}
		inst := NewInstance(schema)
		inst.MustInsert(i)
		if _, err := db.AddInstance(inst); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := db.QueryStats(); st.QueryCacheHits == 0 {
		t.Errorf("no cache hits in %+v", st)
	}
}
