package query

import (
	"testing"

	"prefcqa/internal/bitset"
	"prefcqa/internal/relation"
)

func mgrInstance(t *testing.T) *relation.Instance {
	t.Helper()
	s := relation.MustSchema("Mgr",
		relation.NameAttr("Name"), relation.NameAttr("Dept"),
		relation.IntAttr("Salary"), relation.IntAttr("Reports"))
	inst := relation.NewInstance(s)
	inst.MustInsert("Mary", "R&D", 40, 3) // 0
	inst.MustInsert("John", "R&D", 10, 2) // 1
	inst.MustInsert("Mary", "IT", 20, 1)  // 2
	inst.MustInsert("John", "PR", 30, 4)  // 3
	return inst
}

func evalOn(t *testing.T, m Model, src string) bool {
	t.Helper()
	got, err := Eval(MustParse(src), m)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return got
}

func TestEvalGroundAtoms(t *testing.T) {
	m := relModel(mgrInstance(t), nil)
	if !evalOn(t, m, "Mgr('Mary', 'R&D', 40, 3)") {
		t.Error("present tuple should evaluate true")
	}
	if evalOn(t, m, "Mgr('Mary', 'R&D', 41, 3)") {
		t.Error("absent tuple should evaluate false")
	}
	if !evalOn(t, m, "NOT Mgr('Bob', 'IT', 1, 1)") {
		t.Error("negated absent tuple should be true")
	}
}

func TestEvalConnectives(t *testing.T) {
	m := relModel(mgrInstance(t), nil)
	if !evalOn(t, m, "TRUE") || evalOn(t, m, "FALSE") {
		t.Error("boolean constants broken")
	}
	if !evalOn(t, m, "Mgr('Mary','R&D',40,3) AND Mgr('John','PR',30,4)") {
		t.Error("AND of two present tuples")
	}
	if evalOn(t, m, "Mgr('Mary','R&D',40,3) AND FALSE") {
		t.Error("AND FALSE")
	}
	if !evalOn(t, m, "FALSE OR Mgr('Mary','IT',20,1)") {
		t.Error("OR")
	}
}

func TestEvalExample1Q1(t *testing.T) {
	// Q1: is there an assignment where John earns more than Mary?
	// In the full (inconsistent) instance the answer is true —
	// the paper calls this misleading.
	m := relModel(mgrInstance(t), nil)
	q1 := `EXISTS x1, y1, z1, x2, y2, z2 .
	        Mgr('Mary', x1, y1, z1) AND Mgr('John', x2, y2, z2) AND y1 < y2`
	if !evalOn(t, m, q1) {
		t.Fatal("Q1 should be true in r (Mary/IT 20 < John/PR 30)")
	}
}

func TestEvalOnRepairViews(t *testing.T) {
	inst := mgrInstance(t)
	q1 := `EXISTS x1, y1, z1, x2, y2, z2 .
	        Mgr('Mary', x1, y1, z1) AND Mgr('John', x2, y2, z2) AND y1 < y2`
	// Example 2: Q1 false in r1={mary,johnPR} (40 > 30) and in
	// r2={john,maryIT} (20 > 10), true in r3={maryIT,johnPR}.
	cases := []struct {
		ids  []int
		want bool
	}{
		{[]int{0, 3}, false},
		{[]int{1, 2}, false},
		{[]int{2, 3}, true},
	}
	for _, c := range cases {
		m := relModel(inst, bitset.FromSlice(c.ids))
		if got := evalOn(t, m, q1); got != c.want {
			t.Errorf("Q1 on repair %v = %v, want %v", c.ids, got, c.want)
		}
	}
}

func TestEvalExample3Q2(t *testing.T) {
	inst := mgrInstance(t)
	q2 := `EXISTS x1, y1, z1, x2, y2, z2 .
	        Mgr('Mary', x1, y1, z1) AND Mgr('John', x2, y2, z2) AND y1 > y2 AND z1 < z2`
	// Q2 is true in r1 (40>30... wait: Mary R&D 40 reports 3; John PR
	// 30 reports 4: 40 > 30 and 3 < 4) — true; true in r2 (20 > 10 and
	// 1 < 2); false in r3 (20 < 30).
	cases := []struct {
		ids  []int
		want bool
	}{
		{[]int{0, 3}, true},
		{[]int{1, 2}, true},
		{[]int{2, 3}, false},
	}
	for _, c := range cases {
		m := relModel(inst, bitset.FromSlice(c.ids))
		if got := evalOn(t, m, q2); got != c.want {
			t.Errorf("Q2 on repair %v = %v, want %v", c.ids, got, c.want)
		}
	}
}

func TestEvalForall(t *testing.T) {
	m := relModel(mgrInstance(t), nil)
	// Every manager tuple has salary at least 10.
	if !evalOn(t, m, "FORALL n, d, s, r . NOT Mgr(n, d, s, r) OR s >= 10") {
		t.Error("all salaries are >= 10")
	}
	if evalOn(t, m, "FORALL n, d, s, r . NOT Mgr(n, d, s, r) OR s >= 20") {
		t.Error("John/R&D earns 10 < 20")
	}
}

func TestEvalQuantifierOverActiveDomain(t *testing.T) {
	m := relModel(mgrInstance(t), nil)
	// The active domain includes names and integers; equality works on
	// both, order silently fails on names (no error).
	if !evalOn(t, m, "EXISTS x . x = 'Mary'") {
		t.Error("constant extends the domain")
	}
	if !evalOn(t, m, "EXISTS x . x = 99") {
		t.Error("query constants are part of the domain")
	}
	if evalOn(t, m, "EXISTS x . x < 0") {
		t.Error("no negative values in domain")
	}
}

func TestEvalComparisonSemantics(t *testing.T) {
	m := relModel(mgrInstance(t), nil)
	cases := []struct {
		src  string
		want bool
	}{
		{"1 < 2", true},
		{"2 < 1", false},
		{"2 <= 2", true},
		{"3 > 2", true},
		{"2 >= 3", false},
		{"'a' = 'a'", true},
		{"'a' != 'b'", true},
		{"'a' = 'b'", false},
		{"1 = 1", true},
		{"1 != 1", false},
		// Cross-domain equality is false, not an error.
		{"'1' = 1", false},
		// Order on names is false, not an error (quantifiers range
		// over the mixed domain).
		{"'a' < 'b'", false},
	}
	for _, c := range cases {
		if got := evalOn(t, m, c.src); got != c.want {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	m := relModel(mgrInstance(t), nil)
	if _, err := Eval(MustParse("R(x)"), m); err == nil {
		t.Error("free variable should error")
	}
	if _, err := Eval(MustParse("Nope(1)"), m); err == nil {
		t.Error("unknown relation should error")
	}
	if _, err := Eval(MustParse("Mgr(1)"), m); err == nil {
		t.Error("arity mismatch should error")
	}
}

func TestEvalWrongKindAtomIsFalse(t *testing.T) {
	m := relModel(mgrInstance(t), nil)
	// An integer in a name column can never match.
	if evalOn(t, m, "EXISTS s . Mgr(40, 'R&D', s, 3)") {
		t.Error("kind mismatch in atom should be false")
	}
}

func TestEvalEmptyModel(t *testing.T) {
	s := relation.MustSchema("R", relation.IntAttr("A"))
	m := relModel(relation.NewInstance(s), nil)
	if evalOn(t, m, "EXISTS x . R(x)") {
		t.Error("empty model has no witnesses")
	}
	if !evalOn(t, m, "FORALL x . R(x)") {
		t.Error("FORALL over empty domain is vacuously true")
	}
	if !evalOn(t, m, "FORALL x . NOT R(x)") {
		t.Error("vacuous FORALL")
	}
}

func TestDBModel(t *testing.T) {
	db := relation.NewDatabase()
	mgr := mgrInstance(t)
	if err := db.AddInstance(mgr); err != nil {
		t.Fatal(err)
	}
	dept := relation.NewInstance(relation.MustSchema("Dept", relation.NameAttr("DName"), relation.IntAttr("Budget")))
	if err := db.AddInstance(dept); err != nil {
		t.Fatal(err)
	}
	dept.MustInsert("R&D", 100)
	dept.MustInsert("IT", 50)

	m := DBModel{DB: db}
	// Join across relations: some manager works in a department with
	// budget over 60.
	q := `EXISTS n, d, s, r, b . Mgr(n, d, s, r) AND Dept(d, b) AND b > 60`
	if !evalOn(t, m, q) {
		t.Error("join query should hold (R&D budget 100)")
	}
	// Restrict Mgr to the subset without R&D managers.
	m2 := DBModel{DB: db, Subsets: map[string]*bitset.Set{"Mgr": bitset.FromSlice([]int{2, 3})}}
	if evalOn(t, m2, q) {
		t.Error("restricted model should not satisfy the join")
	}
	if got := len(m.Relations()); got != 2 {
		t.Errorf("Relations = %d", got)
	}
}

func TestNNF(t *testing.T) {
	e := MustParse("NOT (R(1) AND (EXISTS x . S(x)))")
	n := NNF(e)
	want := "NOT R(1) OR (FORALL x . NOT S(x))"
	if n.String() != want {
		t.Fatalf("NNF = %q, want %q", n.String(), want)
	}
	// Double negation.
	if NNF(MustParse("NOT NOT R(1)")).String() != "R(1)" {
		t.Error("double negation should vanish")
	}
	// Equality flips soundly (total on both domains).
	if NNF(MustParse("NOT x = 3")).String() != "x != 3" {
		t.Errorf("NNF(NOT x=3) = %q", NNF(MustParse("NOT x = 3")).String())
	}
	// Order comparisons must NOT flip: the order predicates are
	// partial (undefined on names), so ¬(x < 3) is kept as a negated
	// literal rather than rewritten to x >= 3.
	if NNF(MustParse("NOT x < 3")).String() != "NOT x < 3" {
		t.Errorf("NNF(NOT x<3) = %q", NNF(MustParse("NOT x < 3")).String())
	}
}

func TestNNFPreservesSemantics(t *testing.T) {
	m := relModel(mgrInstance(t), nil)
	queries := []string{
		"NOT (Mgr('Mary','R&D',40,3) AND Mgr('Bob','IT',1,1))",
		"NOT (EXISTS n, d, s, r . Mgr(n, d, s, r) AND s > 35)",
		"NOT (FORALL n, d, s, r . NOT Mgr(n, d, s, r) OR s > 15)",
		"NOT NOT (TRUE AND NOT FALSE)",
	}
	for _, src := range queries {
		e := MustParse(src)
		a, err := Eval(e, m)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Eval(NNF(e), m)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("NNF changed semantics of %q: %v vs %v", src, a, b)
		}
	}
}

func TestNegate(t *testing.T) {
	m := relModel(mgrInstance(t), nil)
	for _, src := range []string{
		"Mgr('Mary','R&D',40,3)",
		"EXISTS n, d, s, r . Mgr(n,d,s,r) AND s > 35",
		"FORALL n, d, s, r . NOT Mgr(n,d,s,r) OR s >= 10",
	} {
		e := MustParse(src)
		a, _ := Eval(e, m)
		b, err := Eval(Negate(e), m)
		if err != nil {
			t.Fatal(err)
		}
		if a == b {
			t.Errorf("Negate(%q) evaluated equal", src)
		}
	}
}

func TestSubstitute(t *testing.T) {
	e := MustParse("R(x, y) AND (EXISTS x . S(x, y))")
	env := map[string]relation.Value{"x": relation.Int(1), "y": relation.Name("a")}
	got := Substitute(e, env).String()
	want := "R(1, 'a') AND (EXISTS x . S(x, 'a'))"
	if got != want {
		t.Fatalf("Substitute = %q, want %q", got, want)
	}
}

func TestToDNF(t *testing.T) {
	e := MustParse("(R(1) OR S(2)) AND NOT T(3)")
	dnf, err := ToDNF(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(dnf) != 2 {
		t.Fatalf("DNF has %d disjuncts, want 2", len(dnf))
	}
	for _, d := range dnf {
		if len(d) != 2 {
			t.Fatalf("disjunct %v should have 2 literals", d)
		}
	}
	// Quantified formulas are rejected.
	if _, err := ToDNF(MustParse("EXISTS x . R(x)")); err == nil {
		t.Error("ToDNF of quantified formula should fail")
	}
	// TRUE has one empty disjunct; FALSE none.
	if d, _ := ToDNF(MustParse("TRUE")); len(d) != 1 || len(d[0]) != 0 {
		t.Errorf("DNF(TRUE) = %v", d)
	}
	if d, _ := ToDNF(MustParse("FALSE")); len(d) != 0 {
		t.Errorf("DNF(FALSE) = %v", d)
	}
}

func TestToDNFSemanticAgreement(t *testing.T) {
	// Evaluate DNF literal-by-literal and compare with direct Eval on
	// ground formulas.
	m := relModel(mgrInstance(t), nil)
	queries := []string{
		"(Mgr('Mary','R&D',40,3) OR Mgr('Nobody','X',1,1)) AND NOT Mgr('John','R&D',10,2)",
		"NOT (Mgr('Mary','R&D',40,3) AND Mgr('John','R&D',10,2))",
		"Mgr('Mary','R&D',40,3) AND 1 < 2",
		"NOT (1 < 2) OR Mgr('John','PR',30,4)",
	}
	for _, src := range queries {
		e := MustParse(src)
		direct, err := Eval(e, m)
		if err != nil {
			t.Fatal(err)
		}
		dnf, err := ToDNF(e)
		if err != nil {
			t.Fatal(err)
		}
		viaDNF := false
		for _, disj := range dnf {
			all := true
			for _, lit := range disj {
				var le Expr
				if lit.IsCmp {
					le = lit.Cmp
				} else {
					le = lit.Atom
				}
				v, err := Eval(le, m)
				if err != nil {
					t.Fatal(err)
				}
				if lit.Negated {
					v = !v
				}
				if !v {
					all = false
					break
				}
			}
			if all {
				viaDNF = true
				break
			}
		}
		if viaDNF != direct {
			t.Errorf("DNF evaluation of %q = %v, direct = %v", src, viaDNF, direct)
		}
	}
}

func TestLiteralString(t *testing.T) {
	dnf, err := ToDNF(MustParse("NOT R(1) AND x < 2"))
	if err != nil {
		t.Fatal(err)
	}
	if got := dnf[0][0].String(); got != "NOT R(1)" {
		t.Errorf("literal = %q", got)
	}
	if got := dnf[0][1].String(); got != "x < 2" {
		t.Errorf("literal = %q", got)
	}
}

// String renders the literal.
func (l Literal) String() string {
	var inner string
	if l.IsCmp {
		inner = l.Cmp.String()
	} else {
		inner = l.Atom.String()
	}
	if l.Negated {
		return "NOT " + inner
	}
	return inner
}
