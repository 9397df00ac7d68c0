package query

import (
	"testing"

	"prefcqa/internal/relation"
)

// FuzzParse checks that the parser never panics on arbitrary input
// and that accepted formulas round-trip through the printer. Run with
// `go test -fuzz=FuzzParse ./internal/query` to explore; the seed
// corpus runs as part of the normal test suite.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"TRUE",
		"R(1, 'a')",
		"EXISTS x, y . R(x, y) AND x < y",
		"FORALL v . NOT Mgr(v, 'R&D', 40, 3) OR v = v",
		"((R(1)))",
		"NOT NOT x != -3",
		"'it''s' = \"q\"",
		"EXISTS x . (R(x) OR S(x)) AND x >= 0",
		"R(1) AND",
		")(",
		"EXISTS . R(1)",
		"'unterminated",
		"x <> y",
		"R(1,2,3,4,5,6,7,8)",
		"exists and or not",
		"R(𝛼)", // non-ASCII letters are identifiers
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		printed := e.String()
		back, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed form %q of %q does not re-parse: %v", printed, src, err)
		}
		if back.String() != printed {
			t.Fatalf("round trip unstable: %q -> %q", printed, back.String())
		}
	})
}

// fuzzPlanModel is the fixed two-relation model FuzzPlanEquivalence
// evaluates against: small enough that naive domain iteration stays
// cheap, shaped so index probes, runtime-bound probes and subset-free
// scans all occur.
func fuzzPlanModel() Model {
	db := relation.NewDatabase()
	r := relation.NewInstance(relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B")))
	for i := 0; i < 6; i++ {
		r.MustInsert(i%3, (i*2)%3)
	}
	r.Delete(1) // postings must filter a tombstone
	s := relation.NewInstance(relation.MustSchema("S", relation.IntAttr("C"), relation.NameAttr("D")))
	s.MustInsert(0, "n0")
	s.MustInsert(1, "n1")
	s.MustInsert(2, "n0")
	// T makes three-atom acyclic chains and stars expressible, so the
	// Yannakakis executor has multi-atom spines to compete on.
	tr := relation.NewInstance(relation.MustSchema("T", relation.IntAttr("E"), relation.IntAttr("F")))
	for i := 0; i < 4; i++ {
		tr.MustInsert(i%2, i)
	}
	tr.Delete(2)
	for _, inst := range []*relation.Instance{r, s, tr} {
		if err := db.AddInstance(inst); err != nil {
			panic(err)
		}
	}
	return DBModel{DB: db}
}

// fuzzPlanSeeds is the seed corpus of FuzzPlanEquivalence.
var fuzzPlanSeeds = []string{
	"EXISTS x . R(0, x)",                               // constant index probe
	"EXISTS x, y . R(0, x) AND S(x, y)",                // runtime-bound join probe
	"EXISTS x, y . S(x, 'n0') AND R(x, y) AND x < y",   // probe + residual comparison
	"EXISTS x . R(x, x)",                               // repeated variable
	"EXISTS x . R(x, x) AND NOT S(x, 'n1')",            // negated atom residual
	"FORALL a, b . NOT R(a, b) OR a <= 2",              // guarded universal via NNF
	"EXISTS x . R('name', x)",                          // kind mismatch: est 0
	"FORALL x . (NOT R(x, x)) OR (EXISTS x . R(x, 0))", // shadowing
	"EXISTS x, y . R(x, y) AND (S(y, 'n0') OR x = y)",  // disjunctive residual
	"EXISTS x . x = 1 AND R(1, x)",                     // comparison + atom coverage
	"EXISTS x, y . R(x, y) AND R(y, x) AND R(0, 0)",    // ground atom in the spine
	// Acyclic shapes: the Yannakakis executor must agree too.
	"EXISTS a, b, c . R(a, b) AND T(b, c)",                          // two-atom chain
	"EXISTS a, b, c, d . R(a, b) AND T(b, c) AND S(c, d)",           // three-atom chain
	"EXISTS h, a, b . R(h, a) AND T(h, b) AND R(h, h)",              // star on hub h
	"EXISTS a, b, c, d . R(a, b) AND T(b, c) AND T(b, d) AND d > 0", // tree + residual
	"EXISTS a, b . R(a, b) AND T(b, a)",                             // cyclic pair: generic join
	"EXISTS a, b . R(a, b) AND T(a, b) AND a < b",                   // shared pair
	// Cyclic shapes: the generic-join (WCOJ) executor must agree too.
	"EXISTS a, b, c . R(a, b) AND T(b, c) AND R(c, a)",                                           // triangle
	"EXISTS a, b, c . R(a, b) AND T(b, c) AND R(c, a) AND a > b",                                 // triangle + residual
	"EXISTS a, b, c . R(a, b) AND S(b, c) AND T(c, a)",                                           // kind-mismatched triangle
	"EXISTS a, b, c, d . R(a, b) AND R(a, c) AND R(a, d) AND T(b, c) AND T(b, d) AND R(c, d)",    // 4-clique
	"EXISTS a, b, c, d, e . R(a, b) AND T(b, c) AND R(c, a) AND T(a, d) AND R(d, e) AND T(e, a)", // bowtie
	// A quantifier listing a variable twice binds it once: the repeat
	// must not become a binding slot no atom fills (over a cyclic spine,
	// a generic-join level without atoms).
	"EXISTS a, a . R(a, a)",
	"EXISTS a,a,b,c,d,e.R(0,0)AND T(b,c)AND R(a,d)AND R(d,e)AND T(e,a)",
	// Quantified closed skeletons: boolean combinations of
	// quantifiers and ground leaves — the shapes the CQA layer
	// compiles once via PrepareClosed and re-runs per repair.
	"(EXISTS x . R(0, x)) AND NOT (EXISTS y . S(y, 'n1'))",
	"(FORALL a, b . NOT R(a, b) OR a <= 1) OR (EXISTS x . T(x, 0))",
	"R(0, 0) AND (EXISTS v . T(1, v) AND v > 0)",
	"NOT ((EXISTS x . R(x, x)) AND (FORALL y . NOT T(y, 2) OR y = 1))",
	"EXISTS x . R(x, 0) AND NOT (EXISTS y . S(y, 'n0') AND y = x)", // nested quantifier residual
}

// FuzzPlanEquivalence parses arbitrary query text and, for every
// accepted closed formula, requires the cost-based planner — with
// its cost-chosen executor and with greedy forced — to agree
// bit-for-bit with naive active-domain iteration. The seed corpus
// (fuzzPlanSeeds, shared with the executor test) exercises
// index-backed atoms: constant probes, runtime-bound join probes,
// shadowed variables, negated atoms in residuals, and kind
// mismatches. Run `go test -fuzz=FuzzPlanEquivalence ./internal/query`
// to explore.
func FuzzPlanEquivalence(f *testing.F) {
	for _, corpus := range [][]string{fuzzPlanSeeds, peelCorpus} {
		for _, s := range corpus {
			f.Add(s)
		}
	}
	m := fuzzPlanModel()
	schemas := map[string]*relation.Schema{}
	for _, rel := range m.Relations() {
		s, _ := m.Schema(rel)
		schemas[rel] = s
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		if len(FreeVars(q)) != 0 {
			return
		}
		// Production evaluation is always preceded by Validate; an
		// invalid formula (unknown relation inside a residual, say)
		// may error under one strategy and short-circuit under
		// another, which is not a disagreement worth chasing.
		if Validate(q, schemas) != nil {
			return
		}
		planned, errP := Eval(q, m)
		greedy, errG := evalGreedy(q, m)
		naive, errN := EvalNaive(q, m)
		if (errP == nil) != (errN == nil) || (errG == nil) != (errN == nil) {
			t.Fatalf("error mismatch planned=%v greedy=%v naive=%v for %s", errP, errG, errN, q)
		}
		if errN == nil && (planned != naive || greedy != naive) {
			t.Fatalf("planned=%v greedy=%v naive=%v for %s", planned, greedy, naive, q)
		}
	})
}

// Schema returns the schema of a relation, if present.
func (m DBModel) Schema(rel string) (*relation.Schema, bool) {
	inst, ok := m.DB.Relation(rel)
	if !ok {
		return nil, false
	}
	return inst.Schema(), true
}
