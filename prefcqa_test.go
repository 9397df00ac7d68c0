package prefcqa

import (
	"fmt"
	"strings"
	"testing"
)

// paperDB builds the running example: the integrated Mgr instance of
// Example 1 with the dependencies fd1, fd2.
func paperDB(t testing.TB) (*DB, *Relation, map[string]TupleID) {
	t.Helper()
	db := New()
	mgr, err := db.CreateRelation("Mgr",
		NameAttr("Name"), NameAttr("Dept"), IntAttr("Salary"), IntAttr("Reports"))
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]TupleID{
		"mary":   mgr.MustInsert("Mary", "R&D", 40, 3),
		"john":   mgr.MustInsert("John", "R&D", 10, 2),
		"maryIT": mgr.MustInsert("Mary", "IT", 20, 1),
		"johnPR": mgr.MustInsert("John", "PR", 30, 4),
	}
	if err := mgr.AddFD("Dept -> Name, Salary, Reports"); err != nil {
		t.Fatal(err)
	}
	if err := mgr.AddFD("Name -> Dept, Salary, Reports"); err != nil {
		t.Fatal(err)
	}
	return db, mgr, ids
}

const q1 = `EXISTS x1, y1, z1, x2, y2, z2 .
	Mgr('Mary', x1, y1, z1) AND Mgr('John', x2, y2, z2) AND y1 < y2`

const q2 = `EXISTS x1, y1, z1, x2, y2, z2 .
	Mgr('Mary', x1, y1, z1) AND Mgr('John', x2, y2, z2) AND y1 > y2 AND z1 < z2`

func TestPaperEndToEnd(t *testing.T) {
	db, mgr, ids := paperDB(t)

	// Example 1: three conflicts.
	n, err := mgr.Conflicts()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("conflicts = %d, want 3", n)
	}
	if ok, _ := mgr.Consistent(); ok {
		t.Fatal("instance should be inconsistent")
	}

	// Example 2: three repairs; Q1 is not consistently true.
	c, err := db.CountRepairs(Rep, "Mgr")
	if err != nil {
		t.Fatal(err)
	}
	if c != 3 {
		t.Fatalf("repairs = %d, want 3", c)
	}
	a, err := db.Query(Rep, q1)
	if err != nil {
		t.Fatal(err)
	}
	if a != Undetermined {
		t.Fatalf("Q1 = %v, want undetermined", a)
	}

	// Example 3: prefer s1/s2 tuples over s3 tuples.
	if err := mgr.Prefer(ids["mary"], ids["maryIT"]); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Prefer(ids["john"], ids["johnPR"]); err != nil {
		t.Fatal(err)
	}
	a, err = db.Query(Global, q2)
	if err != nil {
		t.Fatal(err)
	}
	if a != True {
		t.Fatalf("Q2 over G-Rep = %v, want true", a)
	}
	// Plain Rep remains undetermined — preferences are what decide.
	a, err = db.Query(Rep, q2)
	if err != nil {
		t.Fatal(err)
	}
	if a != Undetermined {
		t.Fatalf("Q2 over Rep = %v, want undetermined", a)
	}
}

func TestPreferByRank(t *testing.T) {
	db, mgr, ids := paperDB(t)
	rank := map[TupleID]int{ids["mary"]: 0, ids["john"]: 0, ids["maryIT"]: 1, ids["johnPR"]: 1}
	if err := mgr.PreferByRank(func(id TupleID) int { return rank[id] }); err != nil {
		t.Fatal(err)
	}
	a, err := db.Query(Global, q2)
	if err != nil {
		t.Fatal(err)
	}
	if a != True {
		t.Fatalf("Q2 = %v, want true", a)
	}
	c, err := db.CountRepairs(Global, "Mgr")
	if err != nil {
		t.Fatal(err)
	}
	if c != 2 {
		t.Fatalf("preferred repairs = %d, want 2", c)
	}
}

func TestRepairsMaterialization(t *testing.T) {
	db, _, _ := paperDB(t)
	reps, err := db.Repairs(Rep, "Mgr")
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 3 {
		t.Fatalf("repairs = %d", len(reps))
	}
	for _, r := range reps {
		if r.Len() != 2 {
			t.Fatalf("every Mgr repair has 2 tuples, got %d", r.Len())
		}
	}
}

func TestIsPreferredRepair(t *testing.T) {
	db, mgr, ids := paperDB(t)
	mgr.Prefer(ids["mary"], ids["maryIT"]) //nolint:errcheck
	mgr.Prefer(ids["john"], ids["johnPR"]) //nolint:errcheck
	ok, err := db.IsPreferredRepair(Global, "Mgr", []TupleID{ids["mary"], ids["johnPR"]})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("r1 should be a globally optimal repair")
	}
	ok, err = db.IsPreferredRepair(Global, "Mgr", []TupleID{ids["maryIT"], ids["johnPR"]})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("r3 should not be globally optimal (maryIT is dominated)")
	}
}

// TestRelationLookupDuringCreate calls every DB method that looks a
// relation up by name while another goroutine creates relations.
// Under -race it fails if a lookup reads the registry outside the
// snapshot gate that CreateRelation writes it under.
func TestRelationLookupDuringCreate(t *testing.T) {
	db, mgr, ids := paperDB(t)
	mgr.Prefer(ids["mary"], ids["maryIT"]) //nolint:errcheck
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if _, err := db.CreateRelation(fmt.Sprintf("S%d", i), IntAttr("A")); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if _, err := db.IsPreferredRepair(Local, "Mgr", []TupleID{ids["mary"], ids["johnPR"]}); err != nil {
			t.Fatal(err)
		}
		if _, err := db.CleanNaive("Mgr"); err != nil {
			t.Fatal(err)
		}
		if _, err := db.CheckAxioms(Rep, "Mgr"); err != nil {
			t.Fatal(err)
		}
		if _, err := db.ConflictGraphDOT("Mgr"); err != nil {
			t.Fatal(err)
		}
		if _, err := db.ExplainTuple(Global, "Mgr", ids["mary"]); err != nil {
			t.Fatal(err)
		}
		if _, ok := db.Relation("Mgr"); !ok {
			t.Fatal("Mgr is gone")
		}
		if names := db.Relations(); names[0] != "Mgr" {
			t.Fatalf("Relations() = %v", names)
		}
	}
	if n := len(db.Relations()); n != 51 {
		t.Fatalf("%d relations, want 51", n)
	}
}

func TestCleanFacade(t *testing.T) {
	db, mgr, ids := paperDB(t)
	mgr.Prefer(ids["mary"], ids["maryIT"]) //nolint:errcheck
	mgr.Prefer(ids["john"], ids["johnPR"]) //nolint:errcheck
	mgr.Prefer(ids["mary"], ids["john"])   //nolint:errcheck — now total
	cleaned, err := db.Clean("Mgr")
	if err != nil {
		t.Fatal(err)
	}
	// Total priority: the unique repair is {mary, johnPR}.
	if cleaned.Len() != 2 || !cleaned.Contains(Tuple{Name("Mary"), Name("R&D"), Int(40), Int(3)}) {
		t.Fatalf("cleaned = %s", cleaned)
	}
}

func TestQueryOpen(t *testing.T) {
	db, mgr, ids := paperDB(t)
	mgr.Prefer(ids["mary"], ids["maryIT"]) //nolint:errcheck
	mgr.Prefer(ids["john"], ids["johnPR"]) //nolint:errcheck
	ans, err := db.QueryOpen(Global, "EXISTS d, s, r . Mgr(n, d, s, r)")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 2 {
		t.Fatalf("certain names = %v, want Mary and John", ans)
	}
}

func TestAxiomsFacade(t *testing.T) {
	db, mgr, ids := paperDB(t)
	mgr.Prefer(ids["mary"], ids["maryIT"]) //nolint:errcheck
	rep, err := db.CheckAxioms(Global, "Mgr")
	if err != nil {
		t.Fatal(err)
	}
	if rep.P1.String() != "holds" || rep.P3.String() != "holds" {
		t.Fatalf("axioms = %+v", rep)
	}
}

func TestConflictGraphDOT(t *testing.T) {
	db, _, _ := paperDB(t)
	dot, err := db.ConflictGraphDOT("Mgr")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot, "graph Mgr {") || !strings.Contains(dot, "--") {
		t.Fatalf("DOT = %s", dot)
	}
}

func TestFacadeErrors(t *testing.T) {
	db := New()
	if _, err := db.CreateRelation("R"); err == nil {
		t.Error("relation without attributes should fail")
	}
	r, err := db.CreateRelation("R", IntAttr("A"), IntAttr("B"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelation("R", IntAttr("A")); err == nil {
		t.Error("duplicate relation should fail")
	}
	if _, err := r.Insert("not-an-int", 1); err != nil {
		// expected: wrong kind
	} else {
		t.Error("bad insert should fail")
	}
	if err := r.AddFD("Nope -> A"); err == nil {
		t.Error("FD over unknown attribute should fail")
	}
	if err := r.Prefer(0, 99); err == nil {
		t.Error("preference on unknown tuple should fail")
	}
	if _, err := db.Query(Rep, "R(1"); err == nil {
		t.Error("bad query should fail")
	}
	if _, err := db.Query(Rep, "Nope(1)"); err == nil {
		t.Error("query over unknown relation should fail")
	}
	if _, err := db.Repairs(Rep, "Nope"); err == nil {
		t.Error("repairs of unknown relation should fail")
	}
	if _, err := db.CountRepairs(Rep, "Nope"); err == nil {
		t.Error("count of unknown relation should fail")
	}
	if _, err := db.Clean("Nope"); err == nil {
		t.Error("clean of unknown relation should fail")
	}
	if _, err := db.ConflictGraphDOT("Nope"); err == nil {
		t.Error("DOT of unknown relation should fail")
	}
	if _, err := db.CheckAxioms(Rep, "Nope"); err == nil {
		t.Error("axioms of unknown relation should fail")
	}
	if _, err := db.IsPreferredRepair(Rep, "Nope", nil); err == nil {
		t.Error("check on unknown relation should fail")
	}
}

func TestContradictoryPreferences(t *testing.T) {
	db, mgr, ids := paperDB(t)
	mgr.Prefer(ids["mary"], ids["john"]) //nolint:errcheck
	mgr.Prefer(ids["john"], ids["mary"]) //nolint:errcheck
	if _, err := db.Query(Rep, q1); err == nil {
		t.Fatal("contradictory preferences should surface as an error")
	}
}

// TestPreferNonConflictingIgnored follows Definition 2: preferences
// between non-conflicting tuples are simply not part of the priority.
func TestPreferNonConflictingIgnored(t *testing.T) {
	db, mgr, ids := paperDB(t)
	if err := mgr.Prefer(ids["maryIT"], ids["johnPR"]); err != nil {
		t.Fatal(err)
	}
	// maryIT and johnPR do not conflict; family results are as with no
	// priority at all.
	c, err := db.CountRepairs(Global, "Mgr")
	if err != nil {
		t.Fatal(err)
	}
	if c != 3 {
		t.Fatalf("G-Rep = %d, want 3 (preference ignored)", c)
	}
}

func TestInsertInvalidation(t *testing.T) {
	db := New()
	r, _ := db.CreateRelation("R", IntAttr("A"), IntAttr("B"))
	r.MustInsert(1, 1)
	if err := r.AddFD("A -> B"); err != nil {
		t.Fatal(err)
	}
	if c, _ := db.CountRepairs(Rep, "R"); c != 1 {
		t.Fatalf("repairs = %d", c)
	}
	// Insert a conflicting tuple after the graph was built: results
	// must reflect the new instance.
	r.MustInsert(1, 2)
	c, err := db.CountRepairs(Rep, "R")
	if err != nil {
		t.Fatal(err)
	}
	if c != 2 {
		t.Fatalf("repairs after insert = %d, want 2", c)
	}
}

func TestMultiRelationFacade(t *testing.T) {
	db := New()
	emp, _ := db.CreateRelation("Emp", NameAttr("Name"), IntAttr("Salary"))
	dept, _ := db.CreateRelation("Dept", NameAttr("DName"), IntAttr("Budget"))
	e1 := emp.MustInsert("Mary", 40)
	emp.MustInsert("Mary", 50)
	emp.AddFD("Name -> Salary") //nolint:errcheck
	d1 := dept.MustInsert("R&D", 100)
	dept.MustInsert("R&D", 90)
	dept.AddFD("DName -> Budget") //nolint:errcheck
	emp.Prefer(e1, 1)             //nolint:errcheck — keep salary 40
	dept.Prefer(d1, 1)            //nolint:errcheck — keep budget 100

	a, err := db.Query(Global, "EXISTS s, b . Emp('Mary', s) AND Dept('R&D', b) AND s < b")
	if err != nil {
		t.Fatal(err)
	}
	if a != True {
		t.Fatalf("join = %v, want true", a)
	}
	if got := db.Relations(); len(got) != 2 || got[0] != "Emp" {
		t.Fatalf("Relations = %v", got)
	}
	if _, ok := db.Relation("Emp"); !ok {
		t.Fatal("Relation lookup failed")
	}
}

func TestAddInstance(t *testing.T) {
	db := New()
	inst := NewStandaloneInstance(t)
	r, err := db.AddInstance(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddFD("A -> B"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddInstance(inst); err == nil {
		t.Fatal("duplicate AddInstance should fail")
	}
	c, err := db.CountRepairs(Rep, "R")
	if err != nil {
		t.Fatal(err)
	}
	if c != 2 {
		t.Fatalf("repairs = %d", c)
	}
}

// NewStandaloneInstance builds a small instance outside the facade,
// exercising the AddInstance path used by the CLI tools.
func NewStandaloneInstance(t testing.TB) *Instance {
	t.Helper()
	schema, err := NewSchema("R", IntAttr("A"), IntAttr("B"))
	if err != nil {
		t.Fatal(err)
	}
	inst := NewInstance(schema)
	inst.MustInsert(1, 1)
	inst.MustInsert(1, 2)
	return inst
}
