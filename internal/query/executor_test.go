package query

import (
	"context"
	"math/rand"
	"testing"

	"prefcqa/internal/bitset"
	"prefcqa/internal/relation"
)

// executorCorpus adds, to the fuzz, vector and prepared corpora, the
// shapes a second plan runtime was once kept for: variables bound by
// an enclosing quantifier (by a vector run or by domain iteration)
// used inside a nested quantifier's atoms, a nested quantifier made
// unsatisfiable by an outer binding of the wrong kind, shadowing, and
// variables repeated within one atom.
var executorCorpus = []string{
	"EXISTS x . R(x, 0) AND (EXISTS y . T(x, y))",
	"EXISTS x, y . R(x, y) AND NOT (EXISTS z . T(y, z) AND z > x)",
	"FORALL x . R(x, x) OR (EXISTS y . T(x, y)) OR NOT (EXISTS z . R(x, z))",
	"EXISTS d . S(0, d) AND NOT (EXISTS y . R(d, y))", // outer name bound into an int column
	"FORALL x . (NOT R(x, x)) OR (EXISTS x . R(x, x) AND T(x, x))",
	"EXISTS x . R(x, x) AND (EXISTS x, y . T(x, y) AND R(y, x))",
	"EXISTS a . R(a, a) AND T(a, a) AND R(a, a)",
}

// TestEveryPlanIsVectorized pins that the vector executors are the
// only plan runtimes: over every corpus and over random formulas, on
// tombstoned, forked and subset-restricted models, each planned
// quantifier either is proven unsatisfiable at compile time or runs
// on greedy, Yannakakis or the generic join — and the verdict is the
// active-domain one.
func TestEveryPlanIsVectorized(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	triple := newMutableTriple()
	for i := 0; i < 4; i++ {
		triple.mutate(rng)
	}
	pinned := DBModel{DB: triple.db}
	triple.fork()
	triple.mutate(rng)
	forked := DBModel{DB: triple.db}
	subsets := make(map[string]*bitset.Set)
	for _, inst := range []*relation.Instance{triple.r, triple.s, triple.t} {
		sub := bitset.New(inst.NumIDs())
		inst.RangeIDs(func(id relation.TupleID) bool {
			if rng.Intn(2) == 0 {
				sub.Add(id)
			}
			return true
		})
		subsets[inst.Schema().Name()] = sub
	}
	models := map[string]Model{
		"tombstoned": fuzzPlanModel(),
		"pinned":     pinned,
		"forked":     forked,
		"subset":     {DB: triple.db, Subsets: subsets},
	}

	var queries []Expr
	for _, corpus := range [][]string{fuzzPlanSeeds, acyclicCorpus, preparedCorpus, executorCorpus, peelCorpus} {
		for _, src := range corpus {
			queries = append(queries, MustParse(src))
		}
	}
	for i := 0; i < 200; i++ {
		queries = append(queries, closeFormula(randFormula(rng, nil, 3)))
	}

	executors := map[string]int{}
	unsat := 0
	for name, m := range models {
		for _, q := range queries {
			got, tr, err := EvalTraceCtx(context.Background(), q, m)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, q, err)
			}
			want, err := EvalNaive(q, m)
			if err != nil {
				t.Fatalf("%s: naive %s: %v", name, q, err)
			}
			if got != want {
				t.Fatalf("%s: %s: planned=%v naive=%v", name, q, got, want)
			}
			for _, e := range tr.Execs {
				switch {
				case e.Plan.Unsat:
					if e.Executor != "" {
						t.Fatalf("%s: %s: unsat plan ran on %q", name, q, e.Executor)
					}
					unsat++
				case e.Executor == ExecGreedyVec || e.Executor == ExecYannakakis || e.Executor == ExecWCOJ:
					executors[e.Executor]++
				default:
					t.Fatalf("%s: %s: plan ran on %q, not a vector executor:\n%s", name, q, e.Executor, e.Describe())
				}
			}
		}
	}
	for _, name := range []string{ExecGreedyVec, ExecYannakakis, ExecWCOJ} {
		if executors[name] == 0 {
			t.Errorf("executor %s never ran on the corpus (%v)", name, executors)
		}
	}
	if unsat == 0 {
		t.Error("no plan was proven unsatisfiable on the corpus")
	}
}

// TestPreparedUnsatQuantifier: a quantifier proven empty at compile
// time prepares to a constant — no plan to run — and stays right as
// visibility changes between evaluations, plain, negated (a universal)
// and next to a live quantifier.
func TestPreparedUnsatQuantifier(t *testing.T) {
	m := supportModel()
	subsets := make(map[string]*bitset.Set)
	m.Subsets = subsets
	r, _ := m.DB.Relation("R")
	for _, c := range []struct {
		src      string
		constant bool // the whole query folds to a pConst
		atoms    int  // compiled atoms left to re-sync
	}{
		{"EXISTS x . R('name', x)", true, 0},
		{"FORALL x . NOT R('name', x)", true, 0},
		{"(EXISTS x . R('name', x)) OR (EXISTS y . R(0, y))", false, 1},
	} {
		q := MustParse(c.src)
		prep := PrepareClosed(m, Analyze(q))
		if isConst := prep.root.op == pConst; isConst != c.constant {
			t.Errorf("%q compiled to op %d, constant=%v wanted", c.src, prep.root.op, c.constant)
		}
		if len(prep.vecAtoms) != c.atoms {
			t.Errorf("%q: %d compiled atoms, want %d", c.src, len(prep.vecAtoms), c.atoms)
		}
		for _, visible := range []*bitset.Set{nil, bitset.New(r.NumIDs()), r.AllIDs()} {
			if visible == nil {
				delete(subsets, "R")
			} else {
				subsets["R"] = visible
			}
			got, err := prep.Eval(context.Background())
			if err != nil {
				t.Fatalf("%q: %v", c.src, err)
			}
			want, err := EvalNaive(q, m)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%q under %v: prepared=%v naive=%v", c.src, visible, got, want)
			}
		}
	}
}
