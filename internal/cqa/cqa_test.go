package cqa

import (
	"errors"
	"testing"

	"prefcqa/internal/core"
	"prefcqa/internal/fd"
	"prefcqa/internal/query"
	"prefcqa/internal/relation"
)

// mgrInput builds the Example 1 integration scenario with the
// Example 3 reliability priority (s3 less reliable than s1 and s2).
func mgrInput(t testing.TB, withPriority bool) Input {
	t.Helper()
	s := relation.MustSchema("Mgr",
		relation.NameAttr("Name"), relation.NameAttr("Dept"),
		relation.IntAttr("Salary"), relation.IntAttr("Reports"))
	inst := relation.NewInstance(s)
	mary := inst.MustInsert("Mary", "R&D", 40, 3)  // s1
	john := inst.MustInsert("John", "R&D", 10, 2)  // s2
	maryIT := inst.MustInsert("Mary", "IT", 20, 1) // s3
	johnPR := inst.MustInsert("John", "PR", 30, 4) // s3
	fds := fd.MustParseSet(s, "Dept -> Name,Salary,Reports", "Name -> Dept,Salary,Reports")
	rel, err := NewRelation(inst, fds)
	if err != nil {
		t.Fatal(err)
	}
	if withPriority {
		rel.Pri.MustAdd(mary, maryIT)
		rel.Pri.MustAdd(john, johnPR)
	}
	in, err := NewInput(rel)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

const q1 = `EXISTS x1, y1, z1, x2, y2, z2 .
	Mgr('Mary', x1, y1, z1) AND Mgr('John', x2, y2, z2) AND y1 < y2`

const q2 = `EXISTS x1, y1, z1, x2, y2, z2 .
	Mgr('Mary', x1, y1, z1) AND Mgr('John', x2, y2, z2) AND y1 > y2 AND z1 < z2`

func TestExample2Q1NotCertain(t *testing.T) {
	// Q1 is false in r1 and r2 and true in r3: true is not the
	// consistent answer (and neither is false).
	in := mgrInput(t, false)
	a, err := Evaluate(core.Rep, in, query.MustParse(q1))
	if err != nil {
		t.Fatal(err)
	}
	if a != Undetermined {
		t.Fatalf("Q1 over Rep = %v, want undetermined", a)
	}
}

func TestExample3PreferredAnswers(t *testing.T) {
	// Without preferences, neither true nor false is the consistent
	// answer to Q2 in r.
	in := mgrInput(t, false)
	a, err := Evaluate(core.Rep, in, query.MustParse(q2))
	if err != nil {
		t.Fatal(err)
	}
	if a != Undetermined {
		t.Fatalf("Q2 over Rep = %v, want undetermined", a)
	}
	// With the reliability priority, the preferred repairs are r1 and
	// r2 (r3 is dominated), and Q2 is true in both: true is the
	// preferred consistent answer. This holds for every preference
	// family.
	inP := mgrInput(t, true)
	for _, f := range []core.Family{core.Local, core.SemiGlobal, core.Global, core.Common} {
		a, err := Evaluate(f, inP, query.MustParse(q2))
		if err != nil {
			t.Fatal(err)
		}
		if a != CertainlyTrue {
			t.Fatalf("Q2 over %v = %v, want true", f, a)
		}
	}
	// Plain Rep still cannot decide.
	a, err = Evaluate(core.Rep, inP, query.MustParse(q2))
	if err != nil {
		t.Fatal(err)
	}
	if a != Undetermined {
		t.Fatalf("Q2 over Rep = %v, want undetermined", a)
	}
}

func TestExample3PreferredRepairSets(t *testing.T) {
	in := mgrInput(t, true)
	rel := in.Rels[0]
	// The preferred repairs are exactly r1 = {mary, johnPR} and
	// r2 = {john, maryIT} for G (and for L, S, C).
	for _, f := range []core.Family{core.Local, core.SemiGlobal, core.Global, core.Common} {
		reps := core.All(f, rel.Pri)
		if len(reps) != 2 {
			t.Fatalf("%v has %d preferred repairs, want 2", f, len(reps))
		}
	}
}

func TestCertainGroundQueries(t *testing.T) {
	in := mgrInput(t, false)
	cases := []struct {
		src  string
		want Answer
	}{
		// maryIT is in r2 and r3 but not r1.
		{"Mgr('Mary', 'IT', 20, 1)", Undetermined},
		// An absent tuple is certainly false.
		{"Mgr('Bob', 'IT', 1, 1)", CertainlyFalse},
		{"NOT Mgr('Bob', 'IT', 1, 1)", CertainlyTrue},
		// mary OR john: every repair contains at least one of them?
		// r1={mary,johnPR}: yes (mary); r2={john,maryIT}: yes (john);
		// r3={maryIT,johnPR}: NO. So undetermined... careful: r3 has
		// neither mary nor john.
		{"Mgr('Mary','R&D',40,3) OR Mgr('John','R&D',10,2)", Undetermined},
		// maryIT OR johnPR: r1 has johnPR, r2 has maryIT, r3 both.
		{"Mgr('Mary','IT',20,1) OR Mgr('John','PR',30,4)", CertainlyTrue},
		// mary AND john conflict: never both.
		{"Mgr('Mary','R&D',40,3) AND Mgr('John','R&D',10,2)", CertainlyFalse},
		{"TRUE", CertainlyTrue},
		{"FALSE", CertainlyFalse},
		{"1 < 2", CertainlyTrue},
	}
	for _, c := range cases {
		got, err := Evaluate(core.Rep, in, query.MustParse(c.src))
		if err != nil {
			t.Fatalf("Evaluate(%q): %v", c.src, err)
		}
		if got != c.want {
			t.Errorf("Evaluate(%q) = %v, want %v", c.src, got, c.want)
		}
		// The PTIME ground algorithm must agree.
		fast, err := GroundQFEvaluate(in, query.MustParse(c.src))
		if err != nil {
			t.Fatalf("GroundQFEvaluate(%q): %v", c.src, err)
		}
		if fast != c.want {
			t.Errorf("GroundQFEvaluate(%q) = %v, want %v", c.src, fast, c.want)
		}
	}
}

func TestCertainHelper(t *testing.T) {
	in := mgrInput(t, false)
	a, err := Evaluate(core.Rep, in, query.MustParse("NOT Mgr('Bob','IT',1,1)"))
	if err != nil || a != CertainlyTrue {
		t.Fatalf("Evaluate = %v, %v; want certainly true", a, err)
	}
	a, err = Evaluate(core.Rep, in, query.MustParse("Mgr('Mary','IT',20,1)"))
	if err != nil || a == CertainlyTrue {
		t.Fatalf("Evaluate = %v, %v; want not certain", a, err)
	}
}

func TestEvaluateRejectsOpenQueries(t *testing.T) {
	in := mgrInput(t, false)
	if _, err := Evaluate(core.Rep, in, query.MustParse("EXISTS d, s . Mgr('Mary', d, s, r)")); err == nil {
		t.Fatal("open query should be rejected by Evaluate")
	}
}

func TestEvaluateValidates(t *testing.T) {
	in := mgrInput(t, false)
	if _, err := Evaluate(core.Rep, in, query.MustParse("Nope(1)")); err == nil {
		t.Fatal("unknown relation should fail validation")
	}
	if _, err := GroundQFCertain(in, query.MustParse("EXISTS x . Mgr(x, 'IT', 20, 1)")); err == nil {
		t.Fatal("GroundQFCertain should reject quantified queries")
	}
}

func TestAnswerString(t *testing.T) {
	if CertainlyTrue.String() != "true" || CertainlyFalse.String() != "false" || Undetermined.String() != "undetermined" {
		t.Fatal("Answer.String broken")
	}
	if Answer(9).String() == "" {
		t.Fatal("unknown answer should render")
	}
}

func TestMultiRelationCQA(t *testing.T) {
	// Two relations, each with its own conflicts and priorities.
	s1 := relation.MustSchema("Emp", relation.NameAttr("Name"), relation.IntAttr("Salary"))
	e := relation.NewInstance(s1)
	e.MustInsert("Mary", 40) // 0
	e.MustInsert("Mary", 50) // 1 — conflict on key Name
	rel1, err := NewRelation(e, fd.MustParseSet(s1, "Name -> Salary"))
	if err != nil {
		t.Fatal(err)
	}
	s2 := relation.MustSchema("Dept", relation.NameAttr("DName"), relation.IntAttr("Budget"))
	d := relation.NewInstance(s2)
	d.MustInsert("R&D", 100) // 0
	d.MustInsert("R&D", 90)  // 1 — conflict on key DName
	rel2, err := NewRelation(d, fd.MustParseSet(s2, "DName -> Budget"))
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInput(rel1, rel2)
	if err != nil {
		t.Fatal(err)
	}
	// Without priorities: 2×2 repairs; Mary's salary varies.
	q := "EXISTS s . Emp('Mary', s) AND s >= 40"
	a, err := Evaluate(core.Rep, in, query.MustParse(q))
	if err != nil {
		t.Fatal(err)
	}
	if a != CertainlyTrue {
		t.Fatalf("salary >= 40 should be certain, got %v", a)
	}
	a, _ = Evaluate(core.Rep, in, query.MustParse("EXISTS s . Emp('Mary', s) AND s = 50"))
	if a != Undetermined {
		t.Fatalf("salary = 50 should be undetermined, got %v", a)
	}
	// Orient both conflicts; G-Rep pins a single database repair.
	rel1.Pri.MustAdd(1, 0) // prefer salary 50
	rel2.Pri.MustAdd(0, 1) // prefer budget 100
	a, _ = Evaluate(core.Global, in, query.MustParse("EXISTS s . Emp('Mary', s) AND s = 50"))
	if a != CertainlyTrue {
		t.Fatalf("preferred salary = 50 should be certain, got %v", a)
	}
	// Join query across relations.
	join := "EXISTS s, b . Emp('Mary', s) AND Dept('R&D', b) AND s < b"
	a, _ = Evaluate(core.Global, in, query.MustParse(join))
	if a != CertainlyTrue {
		t.Fatalf("join should be certainly true over G, got %v", a)
	}
}

func TestFreeAnswers(t *testing.T) {
	in := mgrInput(t, true)
	// Who is certainly a manager of some department, over G-Rep?
	// Preferred repairs: r1={mary,johnPR}, r2={john,maryIT}. Both
	// Mary and John appear (with some dept) in both.
	ans, err := FreeAnswers(core.Global, in, query.MustParse("EXISTS d, s, r . Mgr(n, d, s, r)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 2 {
		t.Fatalf("FreeAnswers = %v, want Mary and John", ans)
	}
	seen := map[string]bool{}
	for _, b := range ans {
		seen[b["n"].String()] = true
	}
	if !seen["'Mary'"] || !seen["'John'"] {
		t.Fatalf("FreeAnswers = %v", ans)
	}
	// Over plain Rep, r3 = {maryIT, johnPR} also matters but both
	// names still appear in every repair.
	ans, err = FreeAnswers(core.Rep, in, query.MustParse("EXISTS d, s, r . Mgr(n, d, s, r)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 2 {
		t.Fatalf("FreeAnswers over Rep = %v", ans)
	}
	// Certain departments of Mary over G: r1 says R&D, r2 says IT —
	// no certain department.
	ans, err = FreeAnswers(core.Global, in, query.MustParse("EXISTS s, r . Mgr('Mary', d, s, r)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 0 {
		t.Fatalf("no certain department expected, got %v", ans)
	}
}

func TestFreeAnswersGuards(t *testing.T) {
	in := mgrInput(t, false)
	if _, err := FreeAnswers(core.Rep, in, query.MustParse("Mgr('Mary','IT',20,1)")); err == nil {
		t.Fatal("closed query should be rejected by FreeAnswers")
	}
	// Eight free variables exceed the substitution bound, but the
	// positive conjunctive spine gives the direct-enumeration path,
	// which is not subject to MaxOpenVariables.
	wide := query.MustParse("Mgr(a, b, c, d) AND Mgr(e, f, g, h)")
	if _, err := FreeAnswers(core.Rep, in, wide); err != nil {
		t.Fatalf("wide query should take the direct path, got %v", err)
	}
	// A free variable occurring only under negation has no positive
	// spine: direct enumeration bows out and the substitution fallback
	// enforces the bound with a structured error naming the limit and
	// the fallback reason.
	_, err := FreeAnswers(core.Rep, in, query.MustParse("NOT Mgr(a, b, c, d) AND NOT Mgr(e, f, g, h)"))
	var limitErr *OpenLimitError
	if !errors.As(err, &limitErr) {
		t.Fatalf("spineless wide query: got %v, want *OpenLimitError", err)
	}
	if limitErr.Variables != 8 || limitErr.Limit != MaxOpenVariables || limitErr.Reason == "" {
		t.Fatalf("OpenLimitError = %+v", limitErr)
	}
}

func TestBindingString(t *testing.T) {
	b := Binding{"y": relation.Int(2), "x": relation.Name("a")}
	if got := b.String(); got != "{x='a', y=2}" {
		t.Fatalf("Binding.String = %q", got)
	}
}
