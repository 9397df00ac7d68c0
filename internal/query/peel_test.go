package query

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"prefcqa/internal/bitset"
	"prefcqa/internal/relation"
)

// peelCorpus holds the shapes around evalQuant's range restriction
// (block.peelPlan): blocks the planner refuses whose variables the body
// equates to a value, and the look-alikes that restrict nothing and
// must keep iterating the domain. Each is also a seed of
// FuzzPlanEquivalence and a query of TestEveryPlanIsVectorized.
var peelCorpus = []string{
	// Peeled.
	"EXISTS x . x = 1 AND NOT R(x, 0)",
	"EXISTS x . 1 = x AND NOT R(x, x)",
	"EXISTS x, y . x = 5 AND R(y, 1) AND NOT S(x, 'n0')",  // y is planned once x is bound
	"EXISTS v . R(0, v) AND (EXISTS u . u = v AND u < 2)", // equated to an outer variable
	"FORALL x . x != 3 OR R(x, x)",                        // reaches the peel through NNF
	"FORALL x . x != 1 OR R(x, x)",
	"EXISTS x . x = 5 AND x = 6", // the second equality is a filter
	"EXISTS x . x = 2 AND x = 2 AND NOT R(x, x)",
	"EXISTS x . x = 'n0' AND NOT R(x, 0)", // a name reaching an int column: the atom is false
	"EXISTS x . x = 1 AND NOT S(0, x)",    // an int reaching a name column
	"EXISTS x . x = 99 AND NOT R(x, 0)",   // in the domain only because the formula names it
	"EXISTS x, x . x = 1 AND NOT R(x, 0)", // a block naming its variable twice
	// Not peeled.
	"EXISTS x . (x = 1 OR x = 2) AND NOT R(x, 0)",                  // equality under OR
	"EXISTS x . x = 1 OR NOT R(x, x)",                              // the body is no conjunction
	"EXISTS x . NOT (x = 1) AND NOT R(x, 0)",                       // equality under NOT
	"EXISTS x . x = x AND NOT R(x, 0)",                             // equated to itself
	"EXISTS x, y . x = y AND NOT R(x, y)",                          // both quantified in the block
	"EXISTS x . x = 1 AND (EXISTS x . NOT R(x, 0) AND x != 1)",     // the inner x is another variable
	"EXISTS x . R(x, 1) AND (EXISTS y, x . y = x AND NOT R(y, 2))", // the block's x shadows the outer one
}

// TestPeelAgainstNaive evaluates the corpus planned and by plain domain
// iteration on random models and random visible subsets of them. A
// peel that binds too much (under OR, across a shadowing block) or to
// a value outside the domain disagrees with the oracle on some model.
func TestPeelAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2006))
	for iter := 0; iter < 150; iter++ {
		m := randModel(rng)
		if iter%2 == 1 {
			m.Subsets = map[string]*bitset.Set{}
			for _, rel := range m.Relations() {
				inst, _, _ := m.Backing(rel)
				sub := bitset.New(inst.NumIDs())
				inst.RangeIDs(func(id relation.TupleID) bool {
					if rng.Intn(2) == 0 {
						sub.Add(id)
					}
					return true
				})
				m.Subsets[rel] = sub
			}
		}
		for _, src := range peelCorpus {
			checkAgree(t, "peel", MustParse(src), m)
		}
	}
}

// TestPeelEqualities pins which variables leave a block, what they are
// bound to while it is evaluated, and that the caller's env is left as
// it was.
func TestPeelEqualities(t *testing.T) {
	one := relation.Int(1)
	for _, c := range []struct {
		src  string
		rest []string                  // variables left to plan or iterate
		in   map[string]relation.Value // bindings the block is evaluated under; nil = nothing peeled
	}{
		{"EXISTS x . x = 1 AND NOT R(x, 0)", nil, map[string]relation.Value{"x": one, "v": one}},
		{"EXISTS x, y . 1 = x AND R(y, x)", []string{"x", "y"}, nil}, // covered as written: the planner binds x
		{"EXISTS x, y . 1 = x AND NOT R(y, x) AND S(y, 'n0')", []string{"y"}, map[string]relation.Value{"x": one, "v": one}},
		{"EXISTS u . u = v AND u < 2", nil, map[string]relation.Value{"u": one, "v": one}},
		{"EXISTS v . v = 5 AND NOT R(v, 0)", nil, map[string]relation.Value{"v": relation.Int(5)}},
		{"EXISTS x . x = 5 AND x = 6", nil, map[string]relation.Value{"x": relation.Int(5), "v": one}},
		{"EXISTS x, x . x = 'n0' AND NOT R(x, 0)", nil, map[string]relation.Value{"x": relation.Name("n0"), "v": one}},
		{"EXISTS x . (x = 1 OR x = 2) AND NOT R(x, 0)", []string{"x"}, nil},
		{"EXISTS x . x = 1 OR NOT R(x, x)", []string{"x"}, nil},
		{"EXISTS x . NOT (x = 1) AND NOT R(x, 0)", []string{"x"}, nil},
		{"EXISTS x . x != 1 AND NOT R(x, 0)", []string{"x"}, nil},
		{"EXISTS x . x = x AND NOT R(x, 0)", []string{"x"}, nil},
		{"EXISTS x, y . x = y AND NOT R(x, y)", []string{"x", "y"}, nil},
		{"EXISTS y, v . y = v AND NOT R(y, 2)", []string{"y", "v"}, nil}, // this block's v, not the outer one
	} {
		b := Analyze(MustParse(c.src)).Expr.(Quant).blk
		env := map[string]relation.Value{"v": one} // one outer binding
		rest, bound := b, env
		if b.rest != nil {
			var err error
			if bound, err = b.peelEnv(env); err != nil {
				t.Fatalf("%s: %v", c.src, err)
			}
			rest = b.rest
		}
		if !slices.Equal(rest.vars, c.rest) || rest.body.String() != b.body.String() {
			t.Errorf("%s: left %v . %s, want %v over the same body", c.src, rest.vars, rest.body, c.rest)
		}
		want := c.in
		if want == nil {
			want = env
		}
		if !maps.Equal(bound, want) {
			t.Errorf("%s: evaluated under %v, want %v", c.src, bound, want)
		}
		if len(env) != 1 || env["v"] != one {
			t.Errorf("%s: the caller's env became %v, want only v = 1", c.src, env)
		}
	}
	// An outer variable a peel reads is bound in a closed formula; left
	// unbound it is an error, not a silent domain iteration.
	b := Analyze(MustParse("EXISTS x . x = w AND NOT R(x, 0)")).Expr.(Quant).blk
	if _, err := b.peelEnv(map[string]relation.Value{}); err == nil {
		t.Errorf("peeling x = w with w unbound: no error")
	}
}

// TestPeelPlansTheRest: once x is bound by its equality, y is covered
// by R(y, 1) and gets a plan instead of a domain iteration nested
// inside x's; a block the planner accepts as written is not touched.
func TestPeelPlansTheRest(t *testing.T) {
	m := fuzzPlanModel()
	_, tr, err := EvalTrace(MustParse("EXISTS x, y . x = 5 AND R(y, 1) AND NOT S(x, 'n0')"), m)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Execs) != 1 || !slices.Equal(tr.Execs[0].Plan.Vars, []string{"y"}) {
		t.Fatalf("executed plans %v, want one plan over y", tr.Execs)
	}
	_, tr, err = EvalTrace(MustParse("EXISTS x . x = 1 AND R(1, x)"), m)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Execs) != 1 || !slices.Equal(tr.Execs[0].Plan.Vars, []string{"x"}) {
		t.Fatalf("executed plans %v, want the planner's own plan over x", tr.Execs)
	}
}

// TestPeelNeverScansTheModel: a block answered by its equalities does
// not collect the active domain; one that is not still does, and the
// naive oracle always does.
func TestPeelNeverScansTheModel(t *testing.T) {
	m := fuzzPlanModel()
	for _, c := range []struct {
		src   string
		join  bool
		scans bool
	}{
		{"EXISTS x . x = 1 AND NOT R(x, 0)", true, false},
		{"FORALL x . x != 3 OR R(x, x)", true, false},
		{"EXISTS x . x = 1 AND NOT R(x, 0)", false, true},
		{"EXISTS x . (x = 1 OR x = 2) AND NOT R(x, 0)", true, true},
	} {
		ev := &evaluator{m: m, root: annotated(MustParse(c.src)), join: c.join}
		if _, err := ev.run(); err != nil {
			t.Fatal(err)
		}
		if ev.domainOK != c.scans {
			t.Errorf("%s (planner %v): collected the domain = %v, want %v", c.src, c.join, ev.domainOK, c.scans)
		}
	}
}

// BenchmarkDomainFallback measures a quantifier that is neither planned
// nor equated to a value, so it still collects the active domain (one
// scan of every visible tuple) and evaluates its body once per value:
// 20 000 tuples in each of two relations, 40 000 distinct values.
func BenchmarkDomainFallback(b *testing.B) {
	c := relation.NewInstance(relation.MustSchema("C", relation.IntAttr("K"), relation.IntAttr("V")))
	d := relation.NewInstance(relation.MustSchema("D", relation.IntAttr("K"), relation.NameAttr("N")))
	for i := 0; i < 20000; i++ {
		c.MustInsert(i, i%7)
		d.MustInsert(i, fmt.Sprintf("n%d", i))
	}
	m := modelOf(c, d)
	q := MustParse("EXISTS x . NOT C(x, 0) AND x < 0")
	if v, err := Eval(q, m); err != nil || v {
		b.Fatalf("warm-up = %v, %v; want false: no value is negative", v, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v, err := Eval(q, m); err != nil || v {
			b.Fatal(v, err)
		}
	}
}
