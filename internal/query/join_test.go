package query

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"prefcqa/internal/relation"
)

// randModel builds a random two-relation database model.
func randModel(rng *rand.Rand) Model {
	db := relation.NewDatabase()
	r := relation.NewInstance(relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B")))
	for i := 0; i < 2+rng.Intn(6); i++ {
		r.MustInsert(rng.Intn(3), rng.Intn(3))
	}
	s := relation.NewInstance(relation.MustSchema("S", relation.IntAttr("C"), relation.NameAttr("D")))
	for i := 0; i < 2+rng.Intn(4); i++ {
		s.MustInsert(rng.Intn(3), fmt.Sprintf("n%d", rng.Intn(2)))
	}
	if err := db.AddInstance(r); err != nil {
		panic(err)
	}
	if err := db.AddInstance(s); err != nil {
		panic(err)
	}
	return DBModel{DB: db}
}

// randFormula generates closed random formulas exercising the join
// path: quantified conjunctions over R and S with comparisons,
// negated atoms, disjunctive residuals and nested quantifiers.
func randFormula(rng *rand.Rand, vars []string, depth int) Expr {
	mkTerm := func() Term {
		if len(vars) > 0 && rng.Intn(3) != 0 {
			return Var{Name: vars[rng.Intn(len(vars))]}
		}
		return Const{Value: relation.Int(int64(rng.Intn(3)))}
	}
	mkAtom := func() Expr {
		if rng.Intn(2) == 0 {
			return Atom{Rel: "R", Args: []Term{mkTerm(), mkTerm()}}
		}
		// S's second column is a name; use a name constant or var.
		var second Term
		if len(vars) > 0 && rng.Intn(2) == 0 {
			second = Var{Name: vars[rng.Intn(len(vars))]}
		} else {
			second = Const{Value: relation.Name(fmt.Sprintf("n%d", rng.Intn(2)))}
		}
		return Atom{Rel: "S", Args: []Term{mkTerm(), second}}
	}
	switch {
	case depth == 0:
		switch rng.Intn(3) {
		case 0:
			return mkAtom()
		case 1:
			ops := []CmpOp{EQ, NE, LT, LE, GT, GE}
			return Cmp{Op: ops[rng.Intn(len(ops))], L: mkTerm(), R: mkTerm()}
		default:
			return Not{Body: mkAtom()}
		}
	case rng.Intn(4) == 0:
		// Quantifier introducing 1-2 fresh variables.
		k := 1 + rng.Intn(2)
		fresh := make([]string, k)
		for i := range fresh {
			fresh[i] = fmt.Sprintf("v%d_%d", depth, i)
		}
		inner := append(append([]string(nil), vars...), fresh...)
		// Bias the body toward conjunctions containing atoms over the
		// fresh variables so the join path triggers.
		var body Expr = Atom{Rel: "R", Args: []Term{
			Var{Name: fresh[0]},
			Var{Name: fresh[len(fresh)-1]},
		}}
		body = And{L: body, R: randFormula(rng, inner, depth-1)}
		return Quant{All: rng.Intn(4) == 0, Vars: fresh, Body: body}
	case rng.Intn(3) == 0:
		return Or{L: randFormula(rng, vars, depth-1), R: randFormula(rng, vars, depth-1)}
	case rng.Intn(2) == 0:
		return And{L: randFormula(rng, vars, depth-1), R: randFormula(rng, vars, depth-1)}
	default:
		return Not{Body: randFormula(rng, vars, depth-1)}
	}
}

// closeFormula existentially quantifies any free variables.
func closeFormula(e Expr) Expr {
	fv := FreeVars(e)
	if len(fv) == 0 {
		return e
	}
	return Quant{Vars: fv, Body: e}
}

// TestJoinAgainstNaive differentially tests the join evaluator
// against pure active-domain iteration on random formulas and random
// models.
func TestJoinAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	for iter := 0; iter < 400; iter++ {
		m := randModel(rng)
		q := closeFormula(randFormula(rng, nil, 3))
		fast, errFast := Eval(q, m)
		slow, errSlow := EvalNaive(q, m)
		if (errFast == nil) != (errSlow == nil) {
			t.Fatalf("iter %d: error mismatch fast=%v slow=%v for %s", iter, errFast, errSlow, q)
		}
		if errFast != nil {
			continue
		}
		if fast != slow {
			t.Fatalf("iter %d: join=%v naive=%v for %s", iter, fast, slow, q)
		}
	}
}

func TestJoinPaperQueries(t *testing.T) {
	inst := mgrInstance(t)
	m := relModel(inst, nil)
	queries := []struct {
		src  string
		want bool
	}{
		{`EXISTS x1, y1, z1, x2, y2, z2 .
			Mgr('Mary', x1, y1, z1) AND Mgr('John', x2, y2, z2) AND y1 < y2`, true},
		{`EXISTS x1, y1, z1, x2, y2, z2 .
			Mgr('Mary', x1, y1, z1) AND Mgr('John', x2, y2, z2) AND y1 > y2 AND z1 < z2`, true},
		{"FORALL n, d, s, r . NOT Mgr(n, d, s, r) OR s >= 10", true},
		{"FORALL n, d, s, r . NOT Mgr(n, d, s, r) OR s >= 20", false},
		// Residual disjunction and negated atom inside the spine.
		{`EXISTS n, d, s, r . Mgr(n, d, s, r) AND (s > 35 OR r > 3) AND NOT Mgr('Bob', d, s, r)`, true},
	}
	for _, c := range queries {
		got, err := Eval(MustParse(c.src), m)
		if err != nil {
			t.Fatalf("Eval(%q): %v", c.src, err)
		}
		if got != c.want {
			t.Errorf("Eval(%q) = %v, want %v", c.src, got, c.want)
		}
		naive, err := EvalNaive(MustParse(c.src), m)
		if err != nil || naive != got {
			t.Errorf("naive disagrees on %q: %v vs %v (%v)", c.src, naive, got, err)
		}
	}
}

// TestNaiveRepeatedQuantifiedVariable: EXISTS a, a . φ is EXISTS a . φ,
// so the oracle binds a repeated variable once. Iterating the list as
// written costs |domain|^10 body evaluations here (6^10, over half a
// minute) for the answer one pass over the domain gives.
func TestNaiveRepeatedQuantifiedVariable(t *testing.T) {
	inst := relation.NewInstance(relation.MustSchema("S", relation.IntAttr("C"), relation.IntAttr("D")))
	for i := 0; i < 5; i++ {
		inst.MustInsert(i, i+1)
	}
	m := relModel(inst, nil)
	for _, c := range []struct {
		src  string
		want bool
	}{
		{"EXISTS A,A,A,A,A,A,A,A,A,A . S(5, A)", false},
		{"EXISTS A,A,A,A,A,A,A,A,A,A . S(4, A)", true},
		{"FORALL A,A,A,A,A,A,A,A,A,A . NOT S(5, A)", true},
		{"EXISTS A, B, A . S(A, B) AND B = 3", true},
	} {
		q := MustParse(c.src)
		done := make(chan error, 1)
		go func() {
			got, err := EvalNaive(q, m)
			if err == nil && got != c.want {
				err = fmt.Errorf("= %v, want %v", got, c.want)
			}
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("EvalNaive(%s) %v", c.src, err)
			}
		case <-time.After(time.Second):
			t.Fatalf("EvalNaive(%s) did not answer within 1s", c.src)
		}
		if got, err := Eval(q, m); err != nil || got != c.want {
			t.Fatalf("Eval(%s) = %v, %v, want %v", c.src, got, err, c.want)
		}
	}
}

// TestJoinFallbackVariableOnlyInResidual: variables appearing only in
// comparisons must still be quantified over the domain.
func TestJoinFallbackVariableOnlyInResidual(t *testing.T) {
	inst := mgrInstance(t)
	m := relModel(inst, nil)
	// x occurs only in a comparison; the join path must decline.
	got, err := Eval(MustParse("EXISTS x . x = 40"), m)
	if err != nil || !got {
		t.Fatalf("Eval = %v, %v", got, err)
	}
	// Mixed: n bound by atom, x only in comparison.
	got, err = Eval(MustParse("EXISTS n, d, s, r, x . Mgr(n, d, s, r) AND x > s AND x < 21"), m)
	if err != nil || !got {
		t.Fatalf("Eval = %v, %v (20 > s=10 exists)", got, err)
	}
}

func TestJoinSharedVariableInAtom(t *testing.T) {
	s := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"))
	inst := relation.NewInstance(s)
	inst.MustInsert(1, 2)
	inst.MustInsert(3, 3)
	m := relModel(inst, nil)
	// R(x, x) must match only (3,3).
	got, err := Eval(MustParse("EXISTS x . R(x, x)"), m)
	if err != nil || !got {
		t.Fatalf("R(x,x) = %v, %v", got, err)
	}
	got, err = Eval(MustParse("EXISTS x . R(x, x) AND x = 1"), m)
	if err != nil || got {
		t.Fatalf("R(x,x) AND x=1 = %v, %v", got, err)
	}
}

func TestJoinErrors(t *testing.T) {
	m := relModel(mgrInstance(t), nil)
	if _, err := Eval(MustParse("EXISTS a, b, c, d . Nope(a, b, c, d)"), m); err == nil {
		t.Fatal("unknown relation through join path should error")
	}
	if _, err := Eval(MustParse("EXISTS x . Mgr(x)"), m); err == nil {
		t.Fatal("arity mismatch through join path should error")
	}
}

func BenchmarkEvalJoinVsNaive(b *testing.B) {
	inst := mgrInstanceB(b)
	m := relModel(inst, nil)
	q := MustParse(`EXISTS x1, y1, z1, x2, y2, z2 .
		Mgr('Mary', x1, y1, z1) AND Mgr('John', x2, y2, z2) AND y1 > y2 AND z1 < z2`)
	b.Run("join", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if v, err := Eval(q, m); err != nil || !v {
				b.Fatal(v, err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if v, err := EvalNaive(q, m); err != nil || !v {
				b.Fatal(v, err)
			}
		}
	})
}

func mgrInstanceB(b *testing.B) *relation.Instance {
	b.Helper()
	s := relation.MustSchema("Mgr",
		relation.NameAttr("Name"), relation.NameAttr("Dept"),
		relation.IntAttr("Salary"), relation.IntAttr("Reports"))
	inst := relation.NewInstance(s)
	inst.MustInsert("Mary", "R&D", 40, 3)
	inst.MustInsert("John", "R&D", 10, 2)
	inst.MustInsert("Mary", "IT", 20, 1)
	inst.MustInsert("John", "PR", 30, 4)
	return inst
}
