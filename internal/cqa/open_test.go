package cqa

import (
	"fmt"
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

// openSpineless is the corpus entry the direct path declines: t occurs
// only in a comparison, so no positive spine covers it and
// substitution answers.
const openSpineless = "EXISTS s . Emp(n, s) AND s = t"

// openDiffCorpus is the open-query mix the differential test pins:
// single and multi free variables, joins across relations, residual
// comparisons, negation residuals (dropped during candidate
// generation, restored by verification), spineless shapes that force
// the substitution fallback, and kind-constrained variables.
var openDiffCorpus = []string{
	"EXISTS s . Emp(n, s)",
	"Emp(n, s)",
	"EXISTS s . Emp(n, s) AND s >= 35",
	"Emp(n, s) AND s > 30",
	"EXISTS b . Emp(n, s) AND Dept(d, b) AND s < b",
	"Emp(n, s) AND Dept(d, b) AND s < b",
	"EXISTS s . Emp(n, s) AND NOT Dept(n, 35)",
	"EXISTS s, b . Emp(n, s) AND Dept(d, b) AND NOT Emp('Ann', b)",
	openSpineless,
	// x constrained to both kinds at once: domain pruning must still
	// agree with the unpruned fallback semantics.
	"EXISTS s . Emp(x, s) AND Dept(x, 35)",
	"Emp(n, 35)",
	// The inner quantifier has no positive atom, so the closed checks
	// behind candidate verification cannot be support-pruned: this
	// entry keeps the full-enumeration path alive in the corpus.
	"Emp(n, s) AND (EXISTS u . u = s)",
}

// TestFreeAnswersDirectMatchesSubstitution pins the direct
// open-enumeration path bit-for-bit against the substitution baseline
// across all five repair families, and asserts via the stats counters
// which path answered each query: direct enumeration with no fallback
// for every entry but openSpineless.
func TestFreeAnswersDirectMatchesSubstitution(t *testing.T) {
	in := openDiffInput(t)
	stats := &EvalStats{}
	in = in.WithStats(stats)
	for _, f := range core.Families {
		for _, src := range openDiffCorpus {
			q := query.MustParse(src)
			tag := fmt.Sprintf("%v %q", f, src)
			before := stats.Snapshot()
			direct, err := FreeAnswers(f, in, q)
			if err != nil {
				t.Fatalf("%s: FreeAnswers: %v", tag, err)
			}
			after := stats.Snapshot()
			wantDirect, wantFallback := int64(1), int64(0)
			if src == openSpineless {
				wantDirect, wantFallback = 0, 1
			}
			if dd, df := after.OpenDirect-before.OpenDirect, after.OpenFallback-before.OpenFallback; dd != wantDirect || df != wantFallback {
				t.Fatalf("%s: OpenDirect +%d OpenFallback +%d, want +%d +%d", tag, dd, df, wantDirect, wantFallback)
			}
			subst, err := freeAnswersSubst(f, in, q, query.FreeVars(q), "forced")
			if err != nil {
				t.Fatalf("%s: freeAnswersSubst: %v", tag, err)
			}
			if len(direct) != len(subst) {
				t.Fatalf("%s: direct %v vs subst %v", tag, direct, subst)
			}
			for i := range direct {
				if direct[i].String() != subst[i].String() {
					t.Fatalf("%s: answer %d: direct %v vs subst %v", tag, i, direct[i], subst[i])
				}
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

// TestFreeAnswersKindPruning pins the kind-aware substitution domains:
// a variable the query binds only at int positions must not try
// names, and the pruned domains must not change the answer set.
func TestFreeAnswersKindPruning(t *testing.T) {
	in := openDiffInput(t)
	q := query.MustParse("Emp(n, s) AND s > 30")
	doms := in.varDomains(q, query.FreeVars(q)) // vars sorted: n, s
	for _, v := range doms[0] {
		if v.Kind() != relation.KindName {
			t.Fatalf("n should only try names, domain has %v", v)
		}
	}
	for _, v := range doms[1] {
		if v.Kind() != relation.KindInt {
			t.Fatalf("s should only try ints, domain has %v", v)
		}
	}
	// A variable whose kind the query leaves open keeps both pools.
	qOpen := query.MustParse("EXISTS s . Emp(n, s) AND NOT Dept(n, 35) AND x = x")
	domsOpen := in.varDomains(qOpen, []string{"x"})
	kinds := map[relation.Kind]bool{}
	for _, v := range domsOpen[0] {
		kinds[v.Kind()] = true
	}
	if !kinds[relation.KindInt] || !kinds[relation.KindName] {
		t.Fatalf("x should try both kinds, domain %v", domsOpen[0])
	}
}

// The certain answers of EXISTS v . R(x, v) AND v > n-6 under G-Rep on
// R(Name, Val): n tuples cycling through 100 names with unique values,
// plus 100 twins (same Val, other Name) under Val -> Name, each
// conflict oriented toward the original. Every candidate the spine
// does not kill costs one closed certain-answer check. "direct" is
// FreeAnswers, which must take the spine enumeration with no
// fallback: one columnar pass leaves 5 names alive and only those are
// verified. "subst" closed-evaluates all 200 names of x's kind-pruned
// domain.
//
// "ground" is the serving benchmark's open_range class: C(x, 0) AND
// x >= 0 AND x < n on C(K, V) under K -> V, n clusters (k, 0) / (k, 1),
// every tenth oriented toward its 0-tuple and the others away from it.
// The spine leaves all n keys as candidates and each costs one ground
// closed check — analyse, resolve one component, prepare, evaluate — for
// n/10 answers: the per-candidate cost of the closed pipeline is all
// this case measures.
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

	spineQ := query.MustParse(fmt.Sprintf("EXISTS v . R(x, v) AND v > %d", n-6))
	for _, c := range []struct {
		mode string
		base Input
		q    query.Expr
		want int
	}{
		// The 5 matching tuples are conflict-free, so both modes must
		// find exactly them.
		{"direct", spine, spineQ, 5},
		{"subst", spine, spineQ, 5},
		{"ground", clusters, query.MustParse(fmt.Sprintf("C(x, 0) AND x >= 0 AND x < %d", n)), n / 10},
	} {
		b.Run(c.mode, func(b *testing.B) {
			stats := &EvalStats{}
			in := c.base.WithStats(stats)
			answers := func() int {
				var ans []Binding
				var err error
				if c.mode == "subst" {
					ans, err = freeAnswersSubst(core.Global, in, c.q, query.FreeVars(c.q), "forced")
				} else {
					ans, err = FreeAnswers(core.Global, in, c.q)
				}
				if err != nil {
					b.Fatal(err)
				}
				return len(ans)
			}
			// Warm the lazily built indexes.
			if got := answers(); got != c.want {
				b.Fatalf("warmup: %d answers, want %d", got, c.want)
			}
			if snap := stats.Snapshot(); c.mode != "subst" && (snap.OpenDirect == 0 || snap.OpenFallback != 0) {
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
