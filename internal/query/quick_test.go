package query

import (
	"math/rand"
	"testing"
	"testing/quick"

	"prefcqa/internal/relation"
)

// randAST generates a random formula AST directly (bypassing the
// parser) to round-trip through String() and Parse().
func randAST(rng *rand.Rand, vars []string, depth int) Expr {
	mkTerm := func() Term {
		switch rng.Intn(3) {
		case 0:
			if len(vars) > 0 {
				return Var{Name: vars[rng.Intn(len(vars))]}
			}
			fallthrough
		case 1:
			return Const{Value: relation.Int(int64(rng.Intn(20) - 10))}
		default:
			names := []string{"Mary", "R&D", "it's", `a"b`, "x y"}
			return Const{Value: relation.Name(names[rng.Intn(len(names))])}
		}
	}
	if depth == 0 {
		switch rng.Intn(4) {
		case 0:
			return Bool{Value: rng.Intn(2) == 0}
		case 1:
			k := 1 + rng.Intn(3)
			args := make([]Term, k)
			for i := range args {
				args[i] = mkTerm()
			}
			rels := []string{"R", "Emp", "T2"}
			return Atom{Rel: rels[rng.Intn(len(rels))], Args: args}
		default:
			ops := []CmpOp{EQ, NE, LT, LE, GT, GE}
			return Cmp{Op: ops[rng.Intn(len(ops))], L: mkTerm(), R: mkTerm()}
		}
	}
	switch rng.Intn(4) {
	case 0:
		return Not{Body: randAST(rng, vars, depth-1)}
	case 1:
		return And{L: randAST(rng, vars, depth-1), R: randAST(rng, vars, depth-1)}
	case 2:
		return Or{L: randAST(rng, vars, depth-1), R: randAST(rng, vars, depth-1)}
	default:
		k := 1 + rng.Intn(2)
		fresh := make([]string, k)
		base := []string{"x", "y", "z", "w"}
		for i := range fresh {
			fresh[i] = base[rng.Intn(len(base))] + "_q"
		}
		return Quant{All: rng.Intn(2) == 0, Vars: fresh,
			Body: randAST(rng, append(append([]string(nil), vars...), fresh...), depth-1)}
	}
}

// Property: parse(print(ast)) prints identically — the printer and
// parser agree on every generated formula, including quoting edge
// cases.
func TestQuickPrintParseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := randAST(rng, []string{"a", "b"}, 3)
		src := e.String()
		parsed, err := Parse(src)
		if err != nil {
			t.Logf("parse error for %q: %v", src, err)
			return false
		}
		return parsed.String() == src
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: NNF is involution-stable (NNF(NNF(e)) = NNF(e)) and never
// contains negations above atoms.
func TestQuickNNFNormalForm(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := randAST(rng, []string{"a"}, 3)
		n := NNF(e)
		if NNF(n).String() != n.String() {
			return false
		}
		ok := true
		Walk(n, func(x Expr) {
			if not, isNot := x.(Not); isNot {
				switch b := not.Body.(type) {
				case Atom:
				case Cmp:
					// Order comparisons stay under negation (partial
					// predicates); equality must have been flipped.
					if b.Op == EQ || b.Op == NE {
						ok = false
					}
				default:
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: NNF preserves active-domain semantics exactly — it never
// adds or removes constants or atoms.
func TestQuickNNFSemantics(t *testing.T) {
	s := relation.MustSchema("R", relation.IntAttr("A"))
	inst := relation.NewInstance(s)
	inst.MustInsert(1)
	inst.MustInsert(2)
	m := relModel(inst, nil)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := randAST(rng, nil, 2)
		if len(FreeVars(e)) != 0 {
			return true
		}
		a, err1 := Eval(e, m)
		b, err2 := Eval(NNF(e), m)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		return a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
