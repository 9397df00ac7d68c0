package query

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"prefcqa/internal/bitset"
	"prefcqa/internal/relation"
)

// supportModel is fuzzPlanModel exposed as a DBModel whose Subsets
// map the tests own: R(A,B) with a tombstone at id 1, S(C,D) with a
// name column, T(E,F) with a tombstone at id 2.
func supportModel() DBModel {
	return fuzzPlanModel()
}

// TestAnalyzeSupportCoverage pins the domain-freedom gate: a query is
// prunable iff every quantifier (after the ∀ ⇒ ¬∃¬ rewrite) is
// spine-covered, recursively through residual conjuncts.
func TestAnalyzeSupportCoverage(t *testing.T) {
	m := supportModel()
	cases := []struct {
		src string
		ok  bool
	}{
		{"TRUE", true},
		{"R(0, 0)", true},
		{"EXISTS x . R(0, x)", true},
		{"EXISTS x, y . R(x, y)", true},
		{"EXISTS x . x = 1 AND R(1, x)", true},
		{"FORALL a, b . NOT R(a, b) OR a <= 2", true}, // rewrite: ∃a,b. R(a,b) ∧ a > 2
		{"EXISTS x . R(x, 0) AND NOT (EXISTS y . S(y, 'n1') AND y = x)", true},
		{"(EXISTS x . R(0, x)) AND NOT (EXISTS y . T(y, y))", true},
		// The canonical counterexample: x occurs in no positive atom,
		// so evaluation falls back to active-domain iteration and the
		// verdict can depend on tuples no atom mentions.
		{"EXISTS x . x = 1 AND NOT S(x, 'n0')", false},
		{"EXISTS x . x = 1", false},                          // no atom at all
		{"FORALL x . R(x, 0)", false},                        // rewrite: ∃x. ¬R(x,0) — negative only
		{"EXISTS x . NOT R(x, x)", false},                    // negative atom only
		{"EXISTS x, y . R(x, 0) AND y = x", false},           // y uncovered
		{"EXISTS x . R(x, 0) AND (EXISTS u . u = x)", false}, // uncovered residual quantifier
		{"EXISTS x . Nope(x)", false},                        // no backing
	}
	for _, c := range cases {
		if _, ok := AnalyzeSupport(Analyze(MustParse(c.src)), m); ok != c.ok {
			t.Errorf("AnalyzeSupport(%q) ok = %v, want %v", c.src, ok, c.ok)
		}
	}
}

// TestAnalyzeSupportTouchedIDs pins the per-relation touched sets:
// posting intersections over constant positions, tombstone filtering,
// the whole-relation escalation for const-free atoms, and untouched
// relations staying absent.
func TestAnalyzeSupportTouchedIDs(t *testing.T) {
	m := supportModel()
	// R's tuples are (0,0) (1,2)† (2,1), † = tombstoned (id 1). The
	// A = 2 posting is the single live id 2.
	sup, ok := AnalyzeSupport(Analyze(MustParse("EXISTS x . R(2, x)")), m)
	if !ok {
		t.Fatal("support declined")
	}
	ids, all := sup.TouchedIDs("R")
	if all || len(ids) != 1 || ids[0] != 2 {
		t.Fatalf("R touched = (%v, all=%v), want [2]", ids, all)
	}
	if ids, all := sup.TouchedIDs("S"); all || ids != nil {
		t.Fatalf("untouched S reported (%v, all=%v)", ids, all)
	}

	// Tombstone filtering: the A = 1 posting holds only the dead id 1,
	// so the touched set is empty — the verdict cannot depend on R.
	sup, _ = AnalyzeSupport(Analyze(MustParse("EXISTS x . R(1, x)")), m)
	ids, all = sup.TouchedIDs("R")
	if all || len(ids) != 0 {
		t.Fatalf("dead posting should touch nothing, got (%v, all=%v)", ids, all)
	}

	// Two constant positions intersect: R(0, 1) matches nothing (the
	// A = 0 tuple has B = 0), R(0, 0) matches exactly id 0.
	sup, _ = AnalyzeSupport(Analyze(MustParse("R(0, 1) OR R(0, 0)")), m)
	ids, all = sup.TouchedIDs("R")
	if all || len(ids) != 1 || ids[0] != 0 {
		t.Fatalf("R touched = (%v, all=%v), want [0]", ids, all)
	}

	// A const-free atom anywhere escalates the relation to All, even
	// when another atom is constant-constrained.
	sup, _ = AnalyzeSupport(Analyze(MustParse("EXISTS x, y . R(x, y) AND R(0, y)")), m)
	if ids, all := sup.TouchedIDs("R"); !all || ids != nil {
		t.Fatalf("const-free atom should touch all of R, got (%v, all=%v)", ids, all)
	}

	// Atoms under negation and inside quantifier bodies count too.
	sup, _ = AnalyzeSupport(Analyze(MustParse("EXISTS x . R(0, x) AND NOT T(1, x)")), m)
	ids, all = sup.TouchedIDs("T")
	if all || len(ids) == 0 {
		t.Fatalf("negated T atom not touched: (%v, all=%v)", ids, all)
	}
}

// preparedCorpus is the closed-query mix the Prepared differential
// pins: ground leaves, single and multi-atom spines, negation,
// universals, disjunctive skeletons, unsatisfiable plans (kind
// mismatch) and nested quantifiers in residuals.
var preparedCorpus = []string{
	"TRUE",
	"R(0, 0) AND NOT R(2, 2)",
	"EXISTS x . R(0, x)",
	"EXISTS x, y . R(x, y) AND S(y, 'n0')",
	"EXISTS x . R(x, x) AND NOT S(x, 'n1')",
	"FORALL a, b . NOT R(a, b) OR a <= 2",
	"(EXISTS x . R(0, x)) OR (EXISTS y . T(y, 3))",
	"(EXISTS x . R(2, x)) AND NOT (EXISTS y, z . T(y, z) AND y > z)",
	"EXISTS x . R('name', x)", // kind mismatch: unsatisfiable plan
	"EXISTS a, b, c . R(a, b) AND T(b, c)",
	"EXISTS a, b, c . R(a, b) AND T(b, c) AND R(c, a)", // triangle: WCOJ executor
	"EXISTS x . R(x, 0) AND NOT (EXISTS y . S(y, 'n1') AND y = x)",
}

// refusedCorpus holds closed queries with a block the planner refuses
// and no equality rescues, alone and beside or inside a planned one: a
// Prepared keeps such a block as a leaf of the tree evaluator, which
// iterates the active domain of whatever is visible at that Eval.
var refusedCorpus = []string{
	"EXISTS x . x = 1 AND NOT S(x, 'n0')",
	"FORALL x . R(x, 0)",
	"EXISTS x . NOT R(x, x)",
	"EXISTS x . x > 2 AND NOT R(x, x)", // true iff T(1, 3), the only tuple holding a 3, is visible
	"EXISTS x, y . R(x, 0) AND y = x",
	"(EXISTS x . R(0, x)) AND (EXISTS y . NOT T(y, y))",
	"EXISTS x . R(x, 0) AND (FORALL u . u < 3 OR T(u, x))",
}

// TestPreparedEvalMatchesEvalCtx compiles each corpus query once and
// re-evaluates it under many random visibility subsets, requiring
// bit-for-bit agreement with the one-shot production path and the
// naive active-domain baseline — the exact contract the CQA repair
// sweep relies on when it swaps subsets between Eval calls. PrepareClosed
// is total, so the corpus includes every shape the planner refuses
// (peelCorpus, refusedCorpus): their verdict moves with the active
// domain, which a Prepared must therefore not carry from one Eval to the
// next.
func TestPreparedEvalMatchesEvalCtx(t *testing.T) {
	m := supportModel()
	subsets := make(map[string]*bitset.Set)
	m.Subsets = subsets
	rng := rand.New(rand.NewSource(61))
	ctx := context.Background()
	for _, src := range slices.Concat(preparedCorpus, peelCorpus, refusedCorpus) {
		q := MustParse(src)
		prep := PrepareClosed(m, Analyze(q))
		for round := 0; round < 40; round++ {
			// Random visibility per relation; occasionally drop the
			// entry entirely (full visibility), as the CQA walk does
			// for untouched relations.
			for _, rel := range m.Relations() {
				if rng.Intn(5) == 0 {
					delete(subsets, rel)
					continue
				}
				inst, _ := m.DB.Relation(rel)
				sub := bitset.New(inst.NumIDs())
				inst.RangeIDs(func(id relation.TupleID) bool {
					if rng.Intn(2) == 0 {
						sub.Add(id)
					}
					return true
				})
				subsets[rel] = sub
			}
			got, err := prep.Eval(ctx)
			if err != nil {
				t.Fatalf("%q round %d: Prepared.Eval: %v", src, round, err)
			}
			want, err := EvalCtx(ctx, q, m)
			if err != nil {
				t.Fatalf("%q round %d: EvalCtx: %v", src, round, err)
			}
			naive, err := EvalNaive(q, m)
			if err != nil {
				t.Fatalf("%q round %d: EvalNaive: %v", src, round, err)
			}
			if got != want || got != naive {
				t.Fatalf("%q round %d: prepared=%v planned=%v naive=%v (subsets %v)",
					src, round, got, want, naive, subsets)
			}
		}
	}
}

// TestPolarityClassifies pins the classifier on fixed shapes: the sign
// flips at NOT and nowhere else, and one atom of each sign is neither.
func TestPolarityClassifies(t *testing.T) {
	cases := []struct {
		src                string
		monotone, antitone bool
	}{
		{"TRUE", true, true},
		{"R(1, 0) AND R(2, 1)", true, false},
		{"EXISTS x, y . R(x, y) AND (T(y, 0) OR x < 2)", true, false},
		{"NOT NOT (EXISTS x . R(x, 0))", true, false},
		{"NOT R(1, 0)", false, true},
		{"FORALL k, v . NOT R(k, v) OR v >= 0", false, true},
		{"NOT (EXISTS x . R(x, 0) AND x > 1)", false, true},
		{"R(1, 0) AND NOT R(2, 1)", false, false},
		{"EXISTS x . R(x, 0) AND NOT S(x, 'n0')", false, false},
		{"FORALL x, y . NOT R(x, y) OR (EXISTS z . T(y, z))", false, false},
	}
	m := supportModel()
	for _, c := range cases {
		q := MustParse(c.src)
		a := Analyze(q)
		p := a.Pol
		if monotone, antitone := p&Negative == 0, p&Positive == 0; monotone != c.monotone || antitone != c.antitone {
			t.Errorf("polarity of %q = monotone %v antitone %v, want %v %v", c.src, monotone, antitone, c.monotone, c.antitone)
		}
		if _, ok := AnalyzeSupport(a, m); !ok {
			t.Errorf("AnalyzeSupport(%q) declined: the case is not one the bounds would see", c.src)
		}
	}
}

// randGuarded draws a closed formula over R, S and T in which every
// quantifier is guarded by an atom over its variables, so most draws
// are domain-free: EXISTS as guard AND body, FORALL as NOT guard OR
// body, under nested NOT, AND, OR and comparisons.
func randGuarded(rng *rand.Rand, vars []string, depth int) Expr {
	term := func() Term {
		if len(vars) > 0 && rng.Intn(2) == 0 {
			return Var{Name: vars[rng.Intn(len(vars))]}
		}
		return Const{Value: relation.Int(int64(rng.Intn(3)))}
	}
	atom := func(first Term) Atom {
		switch rng.Intn(3) {
		case 0:
			return Atom{Rel: "R", Args: []Term{first, term()}}
		case 1:
			return Atom{Rel: "T", Args: []Term{first, term()}}
		default:
			return Atom{Rel: "S", Args: []Term{first, Const{Value: relation.Name([]string{"n0", "n1"}[rng.Intn(2)])}}}
		}
	}
	if depth == 0 {
		if rng.Intn(3) == 0 {
			return Cmp{Op: []CmpOp{EQ, NE, LT, LE, GT, GE}[rng.Intn(6)], L: term(), R: term()}
		}
		return atom(term())
	}
	switch rng.Intn(5) {
	case 0:
		return Not{Body: randGuarded(rng, vars, depth-1)}
	case 1:
		return And{L: randGuarded(rng, vars, depth-1), R: randGuarded(rng, vars, depth-1)}
	case 2:
		return Or{L: randGuarded(rng, vars, depth-1), R: randGuarded(rng, vars, depth-1)}
	}
	v := string(rune('a' + len(vars)))
	guard := atom(Var{Name: v})
	body := randGuarded(rng, append(vars[:len(vars):len(vars)], v), depth-1)
	if rng.Intn(2) == 0 {
		return Quant{Vars: []string{v}, Body: And{L: guard, R: body}}
	}
	return Quant{All: true, Vars: []string{v}, Body: Or{L: Not{Body: guard}, R: body}}
}

// TestPolarityBoundsEval is the property the bound short-circuit of the
// CQA layer rests on: for a domain-free query the classifier calls
// monotone (antitone), truth on a visible set A implies (is implied by)
// truth on any B ⊇ A.
func TestPolarityBoundsEval(t *testing.T) {
	m := supportModel()
	rng := rand.New(rand.NewSource(16))
	ctx := context.Background()
	var monotone, antitone, mixed, moved int
	for round := 0; round < 3000; round++ {
		q := randGuarded(rng, nil, 1+rng.Intn(3))
		a := Analyze(q)
		if _, ok := AnalyzeSupport(a, m); !ok {
			continue
		}
		p := a.Pol
		switch p {
		case Positive:
			monotone++
		case Negative:
			antitone++
		case Positive | Negative:
			mixed++
			continue
		default:
			continue // no atom at all
		}
		for trial := 0; trial < 6; trial++ {
			small, large := map[string]*bitset.Set{}, map[string]*bitset.Set{}
			for _, rel := range m.Relations() {
				inst, _ := m.DB.Relation(rel)
				a, b := bitset.New(inst.NumIDs()), bitset.New(inst.NumIDs())
				inst.RangeIDs(func(id relation.TupleID) bool {
					switch rng.Intn(3) {
					case 0:
						a.Add(id)
						b.Add(id)
					case 1:
						b.Add(id)
					}
					return true
				})
				small[rel], large[rel] = a, b
			}
			onSmall, err := EvalCtx(ctx, q, DBModel{DB: m.DB, Subsets: small})
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			onLarge, err := EvalCtx(ctx, q, DBModel{DB: m.DB, Subsets: large})
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if onSmall != onLarge {
				moved++
			}
			if p == Positive && onSmall && !onLarge {
				t.Fatalf("classified monotone, but true on %v and false on the superset %v: %s", small, large, q)
			}
			if p == Negative && onLarge && !onSmall {
				t.Fatalf("classified antitone, but true on %v and false on the subset %v: %s", large, small, q)
			}
		}
	}
	t.Logf("%d monotone, %d antitone, %d mixed queries; the verdict moved between the two sets %d times", monotone, antitone, mixed, moved)
	if monotone < 100 || antitone < 100 || mixed < 100 || moved < 100 {
		t.Fatal("the generator no longer covers every class")
	}
}
