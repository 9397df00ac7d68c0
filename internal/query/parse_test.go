package query

import (
	"strings"
	"testing"

	"prefcqa/internal/relation"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"TRUE",
		"FALSE",
		"R(1, 2)",
		"R('Mary', x)",
		"x = y",
		"x != y",
		"x < 3",
		"x <= 3",
		"x > 3",
		"x >= 3",
		"NOT R(1)",
		"R(1) AND S(2)",
		"R(1) OR S(2)",
		"EXISTS x . R(x)",
		"FORALL x, y . R(x) OR NOT S(y)",
		"EXISTS x . (R(x) AND (S(x) OR T(x)))",
		"R(-5)",
	}
	for _, src := range cases {
		e, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		// Re-parsing the rendering must give the same rendering.
		e2, err := Parse(e.String())
		if err != nil {
			t.Errorf("re-Parse(%q): %v", e.String(), err)
			continue
		}
		if e.String() != e2.String() {
			t.Errorf("round trip %q -> %q -> %q", src, e.String(), e2.String())
		}
	}
}

func TestParsePaperQueries(t *testing.T) {
	// Q1 (Example 1): does John earn more than Mary?
	q1 := `EXISTS x1, y1, z1, x2, y2, z2 .
	        Mgr('Mary', x1, y1, z1) AND Mgr('John', x2, y2, z2) AND y1 < y2`
	e, err := Parse(q1)
	if err != nil {
		t.Fatal(err)
	}
	if len(FreeVars(e)) != 0 {
		t.Error("Q1 should be closed")
	}
	if IsQuantifierFree(e) {
		t.Error("Q1 is quantified")
	}
	q, ok := e.(Quant)
	if !ok || q.All || len(q.Vars) != 6 {
		t.Fatalf("Q1 parse shape wrong: %#v", e)
	}
	// Q2 (Example 3): Mary earns more and writes fewer reports.
	q2 := `EXISTS x1, y1, z1, x2, y2, z2 .
	        Mgr('Mary', x1, y1, z1) AND Mgr('John', x2, y2, z2) AND y1 > y2 AND z1 < z2`
	if _, err := Parse(q2); err != nil {
		t.Fatal(err)
	}
}

func TestParsePrecedence(t *testing.T) {
	// AND binds tighter than OR.
	e := MustParse("R(1) OR S(2) AND T(3)")
	or, ok := e.(Or)
	if !ok {
		t.Fatalf("top node = %T, want Or", e)
	}
	if _, ok := or.R.(And); !ok {
		t.Fatalf("right of OR = %T, want And", or.R)
	}
	// NOT binds tighter than AND.
	e = MustParse("NOT R(1) AND S(2)")
	and, ok := e.(And)
	if !ok {
		t.Fatalf("top node = %T, want And", e)
	}
	if _, ok := and.L.(Not); !ok {
		t.Fatalf("left of AND = %T, want Not", and.L)
	}
	// Quantifier body extends to the right.
	e = MustParse("EXISTS x . R(x) AND S(x)")
	if q, ok := e.(Quant); !ok {
		t.Fatalf("top = %T, want Quant", e)
	} else if _, ok := q.Body.(And); !ok {
		t.Fatalf("quantifier body = %T, want And", q.Body)
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	for _, src := range []string{
		"exists x . r(x) and not s(x) or true",
		"Exists x . R(x) And Not S(x) Or True",
	} {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
}

func TestParseStrings(t *testing.T) {
	e := MustParse(`R('it''s', "R&D")`)
	a := e.(Atom)
	if c := a.Args[0].(Const); !c.Value.Equal(relation.Name("it's")) {
		t.Errorf("arg0 = %v", c.Value)
	}
	if c := a.Args[1].(Const); !c.Value.Equal(relation.Name("R&D")) {
		t.Errorf("arg1 = %v", c.Value)
	}
}

func TestParseDiamondNotEquals(t *testing.T) {
	e := MustParse("x <> y")
	if c, ok := e.(Cmp); !ok || c.Op != NE {
		t.Fatalf("x <> y parsed as %#v", e)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"R(",
		"R()",
		"R(1",
		"EXISTS . R(1)",
		"EXISTS x R(x)",
		"EXISTS and . R(1)",
		"R(1) AND",
		"x =",
		"= x",
		"R(1) extra",
		"(R(1)",
		"'unterminated",
		"x ! y",
		"x - y",
		"NOT",
		"R(1) AND AND S(2)",
		"R(NOT)",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestParseErrorsMentionPosition(t *testing.T) {
	_, err := Parse("R(1) AND %")
	if err == nil || !strings.Contains(err.Error(), "position") {
		t.Fatalf("error should mention position: %v", err)
	}
}

func TestFreeVarsAndClosed(t *testing.T) {
	e := MustParse("EXISTS x . R(x, y) AND x < z")
	fv := FreeVars(e)
	if len(fv) != 2 || fv[0] != "y" || fv[1] != "z" {
		t.Fatalf("FreeVars = %v, want [y z]", fv)
	}
	if len(FreeVars(e)) == 0 {
		t.Error("formula with free vars is not closed")
	}
	if len(FreeVars(MustParse("EXISTS x, y, z . R(x, y) AND x < z"))) != 0 {
		t.Error("fully quantified formula is closed")
	}
	// Shadowing: inner quantifier rebinds x.
	e = MustParse("EXISTS x . R(x) AND (EXISTS x . S(x))")
	if len(FreeVars(e)) != 0 {
		t.Errorf("shadowed formula FreeVars = %v", FreeVars(e))
	}
}

func TestIsGroundAndQuantifierFree(t *testing.T) {
	if !IsGround(MustParse("R(1, 'a') AND NOT S(2)")) {
		t.Error("constant formula should be ground")
	}
	if IsGround(MustParse("R(x)")) {
		t.Error("formula with variable is not ground")
	}
	if IsQuantifierFree(MustParse("EXISTS x . R(x)")) {
		t.Error("EXISTS is not quantifier-free")
	}
	if !IsQuantifierFree(MustParse("R(1) AND (S(2) OR NOT T(3))")) {
		t.Error("connectives only should be quantifier-free")
	}
}

func TestConstantsAndAtoms(t *testing.T) {
	e := MustParse("EXISTS x . R(x, 'a', 3) AND x > 7")
	consts := Constants(e)
	if len(consts) != 3 {
		t.Fatalf("Constants = %v", consts)
	}
	atoms := Atoms(e)
	if len(atoms) != 1 || atoms[0].Rel != "R" {
		t.Fatalf("Atoms = %v", atoms)
	}
}

func TestValidate(t *testing.T) {
	mgr := relation.MustSchema("Mgr",
		relation.NameAttr("Name"), relation.NameAttr("Dept"),
		relation.IntAttr("Salary"), relation.IntAttr("Reports"))
	schemas := map[string]*relation.Schema{"Mgr": mgr}

	ok := MustParse("EXISTS d, s, r . Mgr('Mary', d, s, r) AND s > 10")
	if err := Validate(ok, schemas); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
	bad := []string{
		"EXISTS x . Nope(x)",                              // unknown relation
		"EXISTS x . Mgr(x)",                               // arity
		"EXISTS d, s, r . Mgr(3, d, s, r)",                // int in name column
		"EXISTS n, d, r . Mgr(n, d, 'ten', r)",            // name in int column
		"EXISTS n, d, s, r . Mgr(n,d,s,r) AND n < 'Mary'", // order on name
	}
	for _, src := range bad {
		if err := Validate(MustParse(src), schemas); err == nil {
			t.Errorf("Validate(%q): expected error", src)
		}
	}
}

// Atoms returns every relational atom in the formula.
func Atoms(e Expr) []Atom {
	var out []Atom
	Walk(e, func(x Expr) {
		if a, ok := x.(Atom); ok {
			out = append(out, a)
		}
	})
	return out
}
