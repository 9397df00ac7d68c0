package cqa

import (
	"fmt"
	"slices"
	"testing"

	"prefcqa/internal/core"
	"prefcqa/internal/fd"
	"prefcqa/internal/query"
	"prefcqa/internal/relation"
)

// openDiffInput builds a two-relation conflicted scenario for the
// open-query differential tests: Emp(Name, Sal) with key conflicts on
// Name, Dept(DName, Bud) with key conflicts on DName, and priorities
// orienting some (not all) conflicts so the five families genuinely
// differ.
func openDiffInput(t testing.TB) Input {
	t.Helper()
	se := relation.MustSchema("Emp", relation.NameAttr("Name"), relation.IntAttr("Sal"))
	e := relation.NewInstance(se)
	mary40 := e.MustInsert("Mary", 40)
	e.MustInsert("Mary", 50)
	john30 := e.MustInsert("John", 30)
	john35 := e.MustInsert("John", 35)
	e.MustInsert("Ann", 45) // no conflict
	rel1, err := NewRelation(e, fd.MustParseSet(se, "Name -> Sal"))
	if err != nil {
		t.Fatal(err)
	}
	rel1.Pri.MustAdd(john35, john30) // prefer John's 35; Mary unoriented
	_ = mary40

	sd := relation.MustSchema("Dept", relation.NameAttr("DName"), relation.IntAttr("Bud"))
	d := relation.NewInstance(sd)
	rd100 := d.MustInsert("R&D", 100)
	rd90 := d.MustInsert("R&D", 90)
	d.MustInsert("IT", 35)
	rel2, err := NewRelation(d, fd.MustParseSet(sd, "DName -> Bud"))
	if err != nil {
		t.Fatal(err)
	}
	rel2.Pri.MustAdd(rd100, rd90)

	in, err := NewInput(rel1, rel2)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// openSpineless and openPartly are the corpus entries that range a
// free variable over the active domain: x occurs in no positive atom
// and no equality pins it, beside no covered variable at all and beside
// a covered n.
const (
	openSpineless = "NOT Emp(x, 35)"
	openPartly    = "EXISTS s . Emp(n, s) AND NOT Emp(x, s)"
)

// openDiffCorpus is the open-query mix the differential tests pin:
// single and multi free variables, joins across relations, residual
// comparisons, negation residuals (dropped during candidate
// generation, restored by verification), kind-constrained variables,
// and one entry per route of a free variable the spine does not bind.
var openDiffCorpus = []string{
	"EXISTS s . Emp(n, s)",
	"Emp(n, s)",
	"EXISTS s . Emp(n, s) AND s >= 35",
	"Emp(n, s) AND s > 30",
	"EXISTS b . Emp(n, s) AND Dept(d, b) AND s < b",
	"Emp(n, s) AND Dept(d, b) AND s < b",
	"EXISTS s . Emp(n, s) AND NOT Dept(n, 35)",
	"EXISTS s, b . Emp(n, s) AND Dept(d, b) AND NOT Emp('Ann', b)",
	// x constrained to both kinds at once.
	"EXISTS s . Emp(x, s) AND Dept(x, 35)",
	"Emp(n, 35)",
	// The inner quantifier has no positive atom, so the closed checks
	// behind candidate verification cannot be support-pruned: this
	// entry keeps the full-enumeration path alive in the corpus.
	"Emp(n, s) AND (EXISTS u . u = s)",
	// Ranged: beside a covered variable, and with no positive atom.
	openPartly,
	openSpineless,
	// Pinned to a constant: with a spine, with a spine that binds no
	// variable, and with no spine.
	"EXISTS s . Emp(n, s) AND d = 'R&D' AND NOT Dept(d, 90)",
	"Emp('Ann', 45) AND x = 35",
	"x = 35 AND NOT Emp('John', x)",
	// Pinned to a spine variable: an existential one, a free one.
	"EXISTS s . Emp(n, s) AND s = t",
	"Emp(n, s) AND x = n AND NOT Dept(x, 35)",
	// u, of the existential prefix, occurs in no atom: it generates
	// nothing.
	"EXISTS s, u . Emp(n, s) AND NOT Dept(u, s)",
}

// substAnswers is the substitution reference FreeAnswers is pinned to:
// one closed certain-answer check per combination of active-domain
// values — the live values of every relation plus the query's
// constants, ascending — for the free variables in sorted order, with
// no pruning of any kind.
func substAnswers(f core.Family, in Input, q query.Expr) ([]Binding, error) {
	seen := map[relation.Value]bool{}
	var dom []relation.Value
	add := func(v relation.Value) {
		if !seen[v] {
			seen[v] = true
			dom = append(dom, v)
		}
	}
	for _, r := range in.Rels {
		r.Inst.Range(func(_ relation.TupleID, t relation.Tuple) bool {
			for _, v := range t {
				add(v)
			}
			return true
		})
	}
	for _, v := range query.Constants(q) {
		add(v)
	}
	slices.SortFunc(dom, relation.Value.Order)
	vars := query.FreeVars(q)
	var answers []Binding
	env := make(map[string]relation.Value, len(vars))
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(vars) {
			var err error
			answers, err = appendIfCertain(answers, f, in, q, env)
			return err
		}
		for _, v := range dom {
			env[vars[i]] = v
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		delete(env, vars[i])
		return nil
	}
	return answers, rec(0)
}

// sameAnswers reports the first difference between two answer lists,
// order included; "" when they are equal.
func sameAnswers(got, want []Binding) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%v vs reference %v", got, want)
	}
	for i := range got {
		if got[i].String() != want[i].String() {
			return fmt.Sprintf("answer %d: %v vs reference %v", i, got[i], want[i])
		}
	}
	return ""
}

// TestFreeAnswersDirectMatchesSubstitution pins FreeAnswers
// bit-for-bit against the substitution reference across all five
// repair families, and asserts via the stats counters which entries
// ranged a variable over the active domain: openSpineless and
// openPartly, and no other.
func TestFreeAnswersDirectMatchesSubstitution(t *testing.T) {
	in := openDiffInput(t)
	stats := &EvalStats{}
	in = in.WithStats(stats)
	for _, f := range core.Families {
		for _, src := range openDiffCorpus {
			q := query.MustParse(src)
			tag := fmt.Sprintf("%v %q", f, src)
			before := stats.Snapshot()
			got, err := FreeAnswers(f, in, q)
			if err != nil {
				t.Fatalf("%s: FreeAnswers: %v", tag, err)
			}
			after := stats.Snapshot()
			wantDirect, wantFallback := int64(1), int64(0)
			if src == openSpineless || src == openPartly {
				wantDirect, wantFallback = 0, 1
			}
			if dd, df := after.OpenDirect-before.OpenDirect, after.OpenFallback-before.OpenFallback; dd != wantDirect || df != wantFallback {
				t.Fatalf("%s: OpenDirect +%d OpenFallback +%d, want +%d +%d", tag, dd, df, wantDirect, wantFallback)
			}
			want, err := substAnswers(f, in, q)
			if err != nil {
				t.Fatalf("%s: substAnswers: %v", tag, err)
			}
			if d := sameAnswers(got, want); d != "" {
				t.Fatalf("%s: %s", tag, d)
			}
		}
	}
	snap := stats.Snapshot()
	// Candidate verification runs closed checks underneath: both the
	// pruned (ground / support-covered quantified) path and the full
	// enumeration (uncoverable quantifiers) must have fired.
	if snap.ClosedPruned == 0 {
		t.Fatal("pruned closed verification never fired on the corpus")
	}
	if snap.ClosedFull == 0 {
		t.Fatal("full closed verification never fired on the corpus")
	}
}

// FuzzOpenEquivalence parses arbitrary query text and, for every
// accepted open formula over openDiffInput's schemas with at most two
// free variables, requires FreeAnswers and the substitution reference
// (substAnswers) to return the same answers in the same order for
// every family. Run with `go test -fuzz=FuzzOpenEquivalence
// ./internal/cqa` to explore.
func FuzzOpenEquivalence(f *testing.F) {
	for _, s := range openDiffCorpus {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := query.Parse(src)
		if err != nil {
			return
		}
		in := openDiffInput(t)
		if n := len(query.FreeVars(q)); n == 0 || n > 2 || query.Validate(q, in.schemas()) != nil {
			return
		}
		for _, fam := range core.Families {
			got, errG := FreeAnswers(fam, in, q)
			want, errW := substAnswers(fam, in, q)
			if (errG == nil) != (errW == nil) {
				t.Fatalf("%v: error mismatch FreeAnswers=%v reference=%v for %s", fam, errG, errW, q)
			}
			if d := sameAnswers(got, want); errW == nil && d != "" {
				t.Fatalf("%v: %s for %s", fam, d, q)
			}
		}
	})
}

// The certain answers of EXISTS v . R(x, v) AND v > n-6 under G-Rep on
// R(Name, Val): n tuples cycling through 100 names with unique values,
// plus 100 twins (same Val, other Name) under Val -> Name, each
// conflict oriented toward the original. Every candidate the spine
// does not kill costs one closed certain-answer check. "direct" is
// that query: one columnar pass leaves 5 names alive and only those
// are verified. "ranged" is the partly covered shape EXISTS s . R(n, s)
// AND s = t AND s > n-10: t occurs in no atom, and the equality pins it
// to s, so it ranges nothing and the spine leaves 9 candidates; a
// substitution evaluator ranges both n and t over the active domain
// (about 2 200 values each).
//
// "ground" is the serving benchmark's open_range class: C(x, 0) AND
// x >= 0 AND x < n on C(K, V) under K -> V, n clusters (k, 0) / (k, 1),
// every tenth oriented toward its 0-tuple and the others away from it.
// The spine leaves all n keys as candidates and each costs one ground
// closed check — analyse, resolve one component, prepare, evaluate — for
// n/10 answers: the per-candidate cost of the closed pipeline is all
// this case measures.
//
// Every case must take the spine with no ranged variable (OpenDirect).
func BenchmarkOpenAnswers(b *testing.B) {
	const n = 2000
	schema := relation.MustSchema("R", relation.NameAttr("Name"), relation.IntAttr("Val"))
	inst := relation.NewInstance(schema)
	for i := 0; i < n; i++ {
		inst.MustInsert(fmt.Sprintf("u%d", i%100), i) // tuple i has ID i
	}
	twins := make([]relation.TupleID, 100)
	for j := range twins {
		twins[j] = inst.MustInsert(fmt.Sprintf("x%d", j), j)
	}
	rel, err := NewRelation(inst, fd.MustParseSet(schema, "Val -> Name"))
	if err != nil {
		b.Fatal(err)
	}
	for j, twin := range twins {
		rel.Pri.MustAdd(j, twin)
	}
	spine, err := NewInput(rel)
	if err != nil {
		b.Fatal(err)
	}

	cSchema := relation.MustSchema("C", relation.IntAttr("K"), relation.IntAttr("V"))
	cInst := relation.NewInstance(cSchema)
	for k := 0; k < n; k++ {
		cInst.MustInsert(k, 0) // ID 2k
		cInst.MustInsert(k, 1) // ID 2k+1
	}
	relC, err := NewRelation(cInst, fd.MustParseSet(cSchema, "K -> V"))
	if err != nil {
		b.Fatal(err)
	}
	for k := 0; k < n; k++ {
		if k%10 == 0 {
			relC.Pri.MustAdd(2*k, 2*k+1)
		} else {
			relC.Pri.MustAdd(2*k+1, 2*k)
		}
	}
	clusters, err := NewInput(relC)
	if err != nil {
		b.Fatal(err)
	}

	for _, c := range []struct {
		mode string
		base Input
		q    query.Expr
		want int
	}{
		// The matching tuples are conflict-free, so the spine's
		// candidates are all answers.
		{"direct", spine, query.MustParse(fmt.Sprintf("EXISTS v . R(x, v) AND v > %d", n-6)), 5},
		{"ranged", spine, query.MustParse(fmt.Sprintf("EXISTS s . R(n, s) AND s = t AND s > %d", n-10)), 9},
		{"ground", clusters, query.MustParse(fmt.Sprintf("C(x, 0) AND x >= 0 AND x < %d", n)), n / 10},
	} {
		b.Run(c.mode, func(b *testing.B) {
			stats := &EvalStats{}
			in := c.base.WithStats(stats)
			answers := func() int {
				ans, err := FreeAnswers(core.Global, in, c.q)
				if err != nil {
					b.Fatal(err)
				}
				return len(ans)
			}
			// Warm the lazily built indexes.
			if got := answers(); got != c.want {
				b.Fatalf("warmup: %d answers, want %d", got, c.want)
			}
			if snap := stats.Snapshot(); snap.OpenDirect == 0 || snap.OpenFallback != 0 {
				b.Fatalf("direct open enumeration did not fire: %+v", snap)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := answers(); got != c.want {
					b.Fatalf("%d answers, want %d", got, c.want)
				}
			}
		})
	}
}
