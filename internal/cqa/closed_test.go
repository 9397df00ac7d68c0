package cqa

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"prefcqa/internal/bitset"
	"prefcqa/internal/core"
	"prefcqa/internal/fd"
	"prefcqa/internal/priority"
	"prefcqa/internal/query"
	"prefcqa/internal/relation"
)

// quantDiffInput builds the two-relation multi-component fixture the
// quantified differential tests run on:
//
//   - R(K, V) under K → V: six clusters (k, 0)/(k, 1) for k = 0..5,
//     clusters 0–2 oriented toward the 0-tuple, 3–4 unoriented,
//     cluster 5 a key triangle with a partial orientation, plus a
//     tombstoned tuple (inserted and deleted before the conflict
//     graph is built) and a conflict-free singleton (9, 9).
//   - S(K, W) under K → W: one oriented cluster at K = 0, one
//     unoriented at K = 1, singletons elsewhere.
//
// Distinct families disagree on the partially-oriented triangle, so
// the corpus exercises family-specific choice sets, not just Rep.
func quantDiffInput(t testing.TB) Input {
	t.Helper()
	sr := relation.MustSchema("R", relation.IntAttr("K"), relation.IntAttr("V"))
	r := relation.NewInstance(sr)
	var ids [6][2]relation.TupleID
	for k := 0; k < 6; k++ {
		ids[k][0] = r.MustInsert(k, 0)
		ids[k][1] = r.MustInsert(k, 1)
	}
	tomb := r.MustInsert(0, 7) // conflicts cluster 0, then dies
	r.Delete(tomb)
	tri := r.MustInsert(5, 2) // cluster 5 becomes a key triangle
	r.MustInsert(9, 9)        // conflict-free singleton
	relR, err := NewRelation(r, fd.MustParseSet(sr, "K -> V"))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		relR.Pri.MustAdd(ids[k][0], ids[k][1])
	}
	relR.Pri.MustAdd(ids[5][0], tri) // partial orientation on the triangle

	ss := relation.MustSchema("S", relation.IntAttr("K"), relation.IntAttr("W"))
	s := relation.NewInstance(ss)
	s00 := s.MustInsert(0, 0)
	s05 := s.MustInsert(0, 5)
	s.MustInsert(1, 1)
	s.MustInsert(1, 6)
	s.MustInsert(2, 2)
	relS, err := NewRelation(s, fd.MustParseSet(ss, "K -> W"))
	if err != nil {
		t.Fatal(err)
	}
	relS.Pri.MustAdd(s00, s05)

	in, err := NewInput(relR, relS)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// closedDeclinedCorpus holds the uncoverable shapes: a quantifier has
// no positive atom, so the support analysis declines and the walk runs
// over the whole database. The last three are the serving benchmark's
// declined class — the variable occurs only under a negation — asked
// about an unoriented cluster, an oriented one and an absent key.
var closedDeclinedCorpus = []string{
	"EXISTS v . R(0, v) AND (EXISTS u . u = v)",
	"FORALL v . NOT R(3, v) OR (EXISTS u . u = v AND u < 2)",
	"EXISTS x . x = 3 AND NOT R(x, 0)",
	"EXISTS x . x = 0 AND NOT R(x, 0)",
	"EXISTS x . x = 7 AND NOT R(x, 0)",
}

// evaluateNaive is Definition 3 with the oracle evaluator: q under
// plain active-domain iteration (query.EvalNaive: no planner, no range
// restriction) in every preferred repair of the whole database.
func evaluateNaive(t *testing.T, f core.Family, in Input, q query.Expr) Answer {
	t.Helper()
	seenTrue, seenFalse := false, false
	err := in.forEachPreferredRepair(f, func(subsets map[string]*bitset.Set) bool {
		holds, err := query.EvalNaive(q, in.model(subsets))
		if err != nil {
			t.Fatalf("EvalNaive(%s): %v", q, err)
		}
		seenTrue, seenFalse = seenTrue || holds, seenFalse || !holds
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := verdict(seenTrue, seenFalse)
	if err != nil {
		t.Fatal(err)
	}
	return ans
}

// closedGroundCorpus holds ground shapes, which take the same path as
// every other closed query: present and absent tuples under both signs,
// oriented, unoriented and triangle components, two relations varying at
// once, nothing touched at all, ground comparisons (an order comparison
// under NOT, equality on names).
var closedGroundCorpus = []string{
	"R(0, 0)",                         // the winner of an oriented cluster
	"NOT R(0, 1)",                     // its loser
	"R(3, 0)",                         // unoriented: undetermined
	"NOT R(3, 0) AND R(3, 1)",         // one component, both signs
	"R(3, 0) OR R(3, 1)",              // every repair keeps one of the two
	"R(0, 7)",                         // tombstoned: absent
	"R(7, 7) OR NOT S(9, 9)",          // absent tuples only: nothing is touched
	"R(5, 2) OR R(5, 0)",              // the triangle: families disagree
	"R(3, 0) AND S(1, 1)",             // two relations vary
	"R(9, 9) AND 1 < 2 AND NOT 2 < 1", // ground comparisons
	"'n' = 'n' AND R(4, 0) AND 'n' != 'm'",
	"R(3, 0) OR R(4, 1) OR R(9, 9)", // four leaves, true on their intersection
}

// closedBoundedCorpus lists the queries of closedDiffCorpus that are
// decided on a bound of their walk, in every family: more than two
// leaves, one polarity, and false on the union or true on the
// intersection.
var closedBoundedCorpus = []string{
	"EXISTS k, v . R(k, v) AND v = 7",
	"FORALL k, v . NOT R(k, v) OR v >= 0",
	"R(3, 0) OR R(4, 1) OR R(9, 9)",
}

// closedDiffCorpus is the closed-query mix the differential test pins:
// oriented, unoriented and triangle components, whole-relation
// supports, empty supports, negated-atom residuals, cross-relation
// joins, boolean combinations of quantifiers, mixed ground/quantified
// skeletons, the ground shapes and the declined shapes above.
var closedDiffCorpus = slices.Concat([]string{
	"EXISTS v . R(0, v) AND v < 2",                                // single oriented component
	"EXISTS v . R(3, v) AND v = 0",                                // unoriented: undetermined
	"FORALL v . NOT R(3, v) OR v <= 1",                            // universal over one component
	"EXISTS v . R(5, v) AND v = 2",                                // the triangle: families disagree
	"EXISTS k, v . R(k, v) AND v = 7",                             // whole-relation support, false
	"FORALL k, v . NOT R(k, v) OR v >= 0",                         // whole-relation universal, true
	"EXISTS v . R(0, v) AND NOT R(3, v)",                          // negated atom residual
	"EXISTS v, w . R(0, v) AND S(0, w) AND v <= w",                // join across relations
	"(EXISTS v . R(4, v) AND v = 1) AND NOT (EXISTS w . S(9, w))", // empty S support
	"EXISTS v . R(7, v)",                                          // empty R support: false everywhere
	"R(9, 9) AND EXISTS v . R(4, v) AND v = 1",                    // mixed ground + quantified
	"(EXISTS v . R(1, v) AND v = 1) OR (EXISTS w . S(1, w) AND w = 6)",
	"NOT (EXISTS v . R(2, v) AND v = 1)", // negated quantifier
}, closedGroundCorpus, closedDeclinedCorpus)

// TestClosedQuantPrunedMatchesFull pins the one closed-query path
// bit-for-bit against the full whole-database repair enumeration,
// across all five families, and asserts via the stats counters what
// answered each query: pruned for every shape the support analysis
// accepts — ground ones included — and decided on a bound exactly where
// closedBoundedCorpus says; the walk over the whole database, with no
// bound tried, for every declined one.
func TestClosedQuantPrunedMatchesFull(t *testing.T) {
	in := quantDiffInput(t)
	stats := &EvalStats{}
	in = in.WithEngine(core.NewEngine()).WithStats(stats)
	for _, f := range core.Families {
		for _, src := range closedDiffCorpus {
			q := query.MustParse(src)
			tag := fmt.Sprintf("%v %q", f, src)
			before := stats.Snapshot()
			pruned, err := Evaluate(f, in, q)
			if err != nil {
				t.Fatalf("%s: Evaluate: %v", tag, err)
			}
			after := stats.Snapshot()
			want := EvalStatsSnapshot{ClosedPruned: 1}
			if slices.Contains(closedDeclinedCorpus, src) {
				want = EvalStatsSnapshot{ClosedFull: 1}
			}
			if slices.Contains(closedBoundedCorpus, src) {
				want.ClosedBounded = 1
			}
			got := EvalStatsSnapshot{
				ClosedPruned:  after.ClosedPruned - before.ClosedPruned,
				ClosedFull:    after.ClosedFull - before.ClosedFull,
				ClosedBounded: after.ClosedBounded - before.ClosedBounded,
			}
			if got != want {
				t.Fatalf("%s: counters moved by %+v, want %+v", tag, got, want)
			}
			full, err := evaluateFull(f, in, q)
			if err != nil {
				t.Fatalf("%s: evaluateFull: %v", tag, err)
			}
			if pruned != full {
				t.Fatalf("%s: pruned=%v full=%v", tag, pruned, full)
			}
			// The two above share the query evaluator; the oracle
			// evaluator is the independent one.
			if naive := evaluateNaive(t, f, in, q); full != naive {
				t.Fatalf("%s: full=%v, active-domain iteration per repair=%v", tag, full, naive)
			}
		}
	}
}

// randomQuantQuery draws a closed quantified query over R(A,B,C) from
// a shape pool mixing coverable spines (single-atom, join, universal,
// negated residual) with uncoverable ones (atomless inner
// quantifiers) so random rounds exercise both evaluation paths.
func randomQuantQuery(rng *rand.Rand) query.Expr {
	c := func() int { return rng.Intn(3) }
	shapes := []func() string{
		func() string { return fmt.Sprintf("EXISTS x . R(%d, x, %d)", c(), c()) },
		func() string { return fmt.Sprintf("EXISTS x, y . R(%d, x, y) AND x <= y", c()) },
		func() string { return fmt.Sprintf("FORALL x . NOT R(%d, %d, x) OR x >= %d", c(), c(), c()) },
		func() string { return fmt.Sprintf("EXISTS x . R(x, %d, %d) AND NOT R(%d, x, x)", c(), c(), c()) },
		func() string { return fmt.Sprintf("EXISTS x, y, z . R(x, y, z) AND x = %d", c()) },
		func() string {
			return fmt.Sprintf("(EXISTS x . R(%d, %d, x)) AND NOT (EXISTS y . R(y, %d, %d))", c(), c(), c(), c())
		},
		func() string { return fmt.Sprintf("R(%d, %d, %d) OR (EXISTS v . R(%d, v, v))", c(), c(), c(), c()) },
		// Uncoverable: the inner quantifier falls back to
		// active-domain iteration, forcing the full path.
		func() string { return fmt.Sprintf("EXISTS x . R(%d, x, x) AND (EXISTS u . u = x)", c()) },
	}
	return query.MustParse(shapes[rng.Intn(len(shapes))]())
}

// TestClosedQuantRandomMutations cross-validates pruned and full
// evaluation on randomly grown instances: each round applies a
// mutation batch (inserts plus a tombstoning delete) to a persistent
// instance, rebuilds the conflict context, randomizes the priority,
// and requires both answers to agree for every family on a fresh
// random quantified query.
func TestClosedQuantRandomMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	s := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"), relation.IntAttr("C"))
	inst := relation.NewInstance(s)
	fds := fd.MustParseSet(s, "A -> B", "B -> C")
	for round := 0; round < 40; round++ {
		// Mutation batch: a few inserts, then delete one live tuple so
		// postings keep crossing tombstones.
		for i := 0; i < 2+rng.Intn(3); i++ {
			inst.MustInsert(rng.Intn(3), rng.Intn(3), rng.Intn(3))
		}
		if ids := inst.AllIDs(); ids.Len() > 6 {
			alive := ids.Slice()
			inst.Delete(alive[rng.Intn(len(alive))])
		}
		rel, err := NewRelation(inst, fds)
		if err != nil {
			t.Fatal(err)
		}
		rel.Pri = priority.Random(rel.Pri.Graph(), 0.5, rng)
		in, err := NewInput(rel)
		if err != nil {
			t.Fatal(err)
		}
		q := randomQuantQuery(rng)
		for _, f := range core.Families {
			full, err := evaluateFull(f, in, q)
			if err != nil {
				t.Fatalf("round %d %v: full: %v on %s", round, f, err, q)
			}
			pruned, err := Evaluate(f, in, q)
			if err != nil {
				t.Fatalf("round %d %v: pruned: %v on %s", round, f, err, q)
			}
			if full != pruned {
				t.Fatalf("round %d %v: full=%v pruned=%v for %s\n%s",
					round, f, full, pruned, q, rel.Pri.Graph().ASCII())
			}
		}
	}
}

// TestClosedQuantForkedVersions pins snapshot isolation across the
// pruned path: answers computed against a frozen parent version must
// not move after the child fork is mutated, and the child's own
// answers must agree with its full enumeration.
func TestClosedQuantForkedVersions(t *testing.T) {
	s := relation.MustSchema("R", relation.IntAttr("K"), relation.IntAttr("V"))
	parent := relation.NewInstance(s)
	a := parent.MustInsert(0, 0)
	b := parent.MustInsert(0, 1)
	parent.MustInsert(1, 1)
	fds := fd.MustParseSet(s, "K -> V")
	q := query.MustParse("EXISTS v . R(0, v) AND v < 1")

	mkInput := func(inst *relation.Instance, orient bool) Input {
		rel, err := NewRelation(inst, fds)
		if err != nil {
			t.Fatal(err)
		}
		if orient {
			rel.Pri.MustAdd(a, b)
		}
		in, err := NewInput(rel)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	parentIn := mkInput(parent, true)
	before, err := Evaluate(core.Global, parentIn, q)
	if err != nil {
		t.Fatal(err)
	}
	if before != CertainlyTrue {
		t.Fatalf("parent answer = %v, want true", before)
	}

	// Mutate the fork: kill the preferred tuple and add a new cluster.
	child := parent.Fork()
	child.Delete(a)
	child.MustInsert(2, 0)
	child.MustInsert(2, 1)

	after, err := Evaluate(core.Global, parentIn, q)
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("parent answer moved %v → %v after child mutation", before, after)
	}
	// The child (unoriented: the orienting edge died with a) must
	// answer false — R(0,1) survives alone — and agree with full.
	childIn := mkInput(child, false)
	got, err := Evaluate(core.Global, childIn, q)
	if err != nil {
		t.Fatal(err)
	}
	full, err := evaluateFull(core.Global, childIn, q)
	if err != nil {
		t.Fatal(err)
	}
	if got != CertainlyFalse || got != full {
		t.Fatalf("child: pruned=%v full=%v, want false", got, full)
	}
}

// TestClosedQuantConcurrent is the -race exercise for the pruned
// path: reader goroutines share one input, one memoizing engine and
// one stats sink, repeatedly evaluating the corpus (pruned and full)
// against precomputed expected answers while the engine's
// choice-set cache and the stats atomics are hammered concurrently.
func TestClosedQuantConcurrent(t *testing.T) {
	in := quantDiffInput(t)
	stats := &EvalStats{}
	in = in.WithEngine(core.NewEngine()).WithStats(stats)

	want := make(map[string]Answer, len(closedDiffCorpus))
	for _, src := range closedDiffCorpus {
		ans, err := Evaluate(core.Global, in, query.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		want[src] = ans
	}

	const readers = 6
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				src := closedDiffCorpus[(w+i)%len(closedDiffCorpus)]
				q := query.MustParse(src)
				ans, err := Evaluate(core.Global, in, q)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %v", w, err)
					return
				}
				if ans != want[src] {
					errs <- fmt.Errorf("reader %d: %q = %v, want %v", w, src, ans, want[src])
					return
				}
				if i%3 == 0 {
					full, err := evaluateFull(core.Global, in, q)
					if err != nil || full != want[src] {
						errs <- fmt.Errorf("reader %d: full %q = %v, %v", w, src, full, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// FuzzClosedEquivalence parses arbitrary query text and, for every
// accepted closed formula over the fixture's schemas, requires the one
// closed-query path (evaluateClosed: a support of tuple IDs, of whole
// relations, or none — the three arms its seeds reach through
// closedGroundCorpus, the quantified shapes and closedDeclinedCorpus)
// and the reference enumeration (evaluateFull, reference_test.go) to
// agree for every family. Run with
// `go test -fuzz=FuzzClosedEquivalence ./internal/cqa` to explore.
func FuzzClosedEquivalence(f *testing.F) {
	for _, s := range closedDiffCorpus {
		f.Add(s)
	}
	for _, s := range boundSeeds {
		f.Add(s.src)
	}
	f.Add("R(0, 0)")
	f.Add("EXISTS k, v . R(k, v) AND S(k, v)")
	f.Add("FORALL k, v . NOT S(k, v) OR k < v OR k = 0")
	f.Fuzz(func(t *testing.T, src string) {
		q, err := query.Parse(src)
		if err != nil {
			return
		}
		in := quantDiffInput(t)
		if query.Validate(q, in.schemas()) != nil || len(query.FreeVars(q)) != 0 {
			return
		}
		for _, fam := range core.Families {
			pruned, errP := Evaluate(fam, in, q)
			full, errF := evaluateFull(fam, in, q)
			if (errP == nil) != (errF == nil) {
				t.Fatalf("%v: error mismatch pruned=%v full=%v for %s", fam, errP, errF, q)
			}
			if errF == nil && pruned != full {
				t.Fatalf("%v: pruned=%v full=%v for %s", fam, pruned, full, q)
			}
		}
	})
}

// One quantified certain-answer check, EXISTS v . R(7, v) AND v < 2
// under G-Rep, on n/2 clusters R(k, 0) / R(k, 1) under K -> V, all
// oriented toward the 0-tuple except the last three (2^3 preferred
// repairs, all agreeing on cluster 7). The support is the K = 7
// posting: "pruned" is Evaluate, which must walk that one component
// and nothing else; "full" is evaluateFull over the whole database;
// "ground" is the point read R(7, 0), whose support is that one tuple.
// All must answer true.
func BenchmarkClosedVerify(b *testing.B) {
	const n = 2000
	schema := relation.MustSchema("R", relation.IntAttr("K"), relation.IntAttr("V"))
	inst := relation.NewInstance(schema)
	for k := 0; k < n/2; k++ {
		inst.MustInsert(k, 0) // ID 2k
		inst.MustInsert(k, 1) // ID 2k+1
	}
	rel, err := NewRelation(inst, fd.MustParseSet(schema, "K -> V"))
	if err != nil {
		b.Fatal(err)
	}
	for k := 0; k < n/2-3; k++ {
		rel.Pri.MustAdd(2*k, 2*k+1)
	}
	base, err := NewInput(rel)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"pruned", "ground", "full"} {
		q := query.MustParse("EXISTS v . R(7, v) AND v < 2")
		if mode == "ground" {
			q = query.MustParse("R(7, 0)")
		}
		b.Run(mode, func(b *testing.B) {
			stats := &EvalStats{}
			in := base.WithEngine(core.NewEngine()).WithStats(stats)
			eval := Evaluate
			if mode == "full" {
				eval = evaluateFull
			}
			check := func() {
				if ans, err := eval(core.Global, in, q); err != nil || ans != CertainlyTrue {
					b.Fatalf("%s answer = %v, %v; want true", mode, ans, err)
				}
			}
			check()
			snap := stats.Snapshot()
			if mode != "full" && (snap.ClosedPruned == 0 || snap.ClosedFull != 0) {
				b.Fatalf("pruned verification did not fire: %+v", snap)
			}
			if mode == "full" && snap.ClosedFull == 0 {
				b.Fatalf("full enumeration did not fire: %+v", snap)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				check()
			}
		})
	}
}

// TestLentSetsComeBackEmpty pins the invariant that lets a point read
// reuse its visibility set: a touched part clears exactly its
// components' tuples when released, so every set the version's free
// list holds is empty — a bit left behind would make a tuple visible to the
// next read that borrows the set. The corpus crosses single- and
// multi-choice components, bounds, walks and two relations at once.
func TestLentSetsComeBackEmpty(t *testing.T) {
	in := quantDiffInput(t).WithEngine(core.NewEngine())
	inspected := 0
	for _, f := range core.Families {
		for _, src := range closedDiffCorpus {
			if _, err := Evaluate(f, in, query.MustParse(src)); err != nil {
				t.Fatalf("%v %q: %v", f, src, err)
			}
			for _, r := range in.Rels {
				r.free.mu.Lock()
				for _, s := range r.free.sets {
					inspected++
					if !s.Empty() {
						t.Errorf("%v %q left %v in a released set of %s", f, src, s, r.Inst.Schema().Name())
					}
				}
				r.free.mu.Unlock()
			}
		}
	}
	if inspected == 0 {
		t.Fatal("no query of the corpus released a set")
	}
}
