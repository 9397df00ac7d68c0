package fd

import (
	"testing"

	"prefcqa/internal/relation"
)

func mgrSchema() *relation.Schema {
	return relation.MustSchema("Mgr",
		relation.NameAttr("Name"), relation.NameAttr("Dept"),
		relation.IntAttr("Salary"), relation.IntAttr("Reports"))
}

func TestParse(t *testing.T) {
	s := mgrSchema()
	f, err := Parse(s, "Dept -> Name, Salary Reports")
	if err != nil {
		t.Fatal(err)
	}
	if got := f.String(); got != "Dept -> Name,Salary,Reports" {
		t.Fatalf("String = %q", got)
	}
	if got, _ := Parse(s, "Name → Dept"); got.String() != "Name -> Dept" {
		t.Fatalf("unicode arrow: %q", got.String())
	}
}

func TestParseErrors(t *testing.T) {
	s := mgrSchema()
	for _, bad := range []string{
		"Dept Name",         // no arrow
		"-> Name",           // empty LHS
		"Dept ->",           // empty RHS
		"Nope -> Name",      // unknown attribute
		"Dept -> Dept",      // trivial
		"Dept,Name -> Name", // trivial after normalization
	} {
		if _, err := Parse(s, bad); err == nil {
			t.Errorf("Parse(%q): expected error", bad)
		}
	}
}

func TestNewNormalization(t *testing.T) {
	s := mgrSchema()
	f, err := New(s, []int{1, 1, 0}, []int{0, 2}) // Name,Dept -> Name,Salary
	if err != nil {
		t.Fatal(err)
	}
	if got := f.lhs; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("LHS = %v", got)
	}
	// Name is in the LHS so it is dropped from the RHS.
	if got := f.rhs; len(got) != 1 || got[0] != 2 {
		t.Fatalf("RHS = %v", got)
	}
	if _, err := New(s, []int{0}, []int{7}); err == nil {
		t.Fatal("out-of-range RHS should fail")
	}
	if _, err := New(s, []int{-1}, []int{1}); err == nil {
		t.Fatal("negative LHS should fail")
	}
	if _, err := New(nil, []int{0}, []int{1}); err == nil {
		t.Fatal("nil schema should fail")
	}
}

func TestConflicts(t *testing.T) {
	s := mgrSchema()
	fd1 := MustParse(s, "Dept -> Name,Salary,Reports")
	fd2 := MustParse(s, "Name -> Dept,Salary,Reports")

	mary := relation.Tuple{relation.Name("Mary"), relation.Name("R&D"), relation.Int(40), relation.Int(3)}
	john := relation.Tuple{relation.Name("John"), relation.Name("R&D"), relation.Int(10), relation.Int(2)}
	maryIT := relation.Tuple{relation.Name("Mary"), relation.Name("IT"), relation.Int(20), relation.Int(1)}

	if !fd1.Conflicts(mary, john) {
		t.Error("Mary/John should conflict on fd1 (same Dept)")
	}
	if fd2.Conflicts(mary, john) {
		t.Error("Mary/John should not conflict on fd2 (different Name)")
	}
	if !fd2.Conflicts(mary, maryIT) {
		t.Error("Mary/MaryIT should conflict on fd2 (same Name)")
	}
	if fd1.Conflicts(mary, maryIT) {
		t.Error("Mary/MaryIT should not conflict on fd1 (different Dept)")
	}
	if fd1.Conflicts(mary, mary) {
		t.Error("a tuple never conflicts with itself")
	}
}

func TestDuplicatesDoNotConflict(t *testing.T) {
	// Example 8: ta=(1,1,1), tb=(1,1,2) agree on A and B, so they are
	// duplicates w.r.t. A->B and must not conflict.
	s := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"), relation.IntAttr("C"))
	f := MustParse(s, "A -> B")
	ta := relation.Tuple{relation.Int(1), relation.Int(1), relation.Int(1)}
	tb := relation.Tuple{relation.Int(1), relation.Int(1), relation.Int(2)}
	tc := relation.Tuple{relation.Int(1), relation.Int(2), relation.Int(3)}
	if f.Conflicts(ta, tb) {
		t.Error("duplicates w.r.t. A->B must not conflict")
	}
	if !f.Conflicts(ta, tc) || !f.Conflicts(tb, tc) {
		t.Error("ta,tc and tb,tc should conflict")
	}
}

func TestViolationsExample1(t *testing.T) {
	// Example 1: the integrated Mgr instance has exactly 3 conflicts.
	s := mgrSchema()
	set := MustParseSet(s,
		"Dept -> Name,Salary,Reports",
		"Name -> Dept,Salary,Reports")
	r := relation.NewInstance(s)
	mary := r.MustInsert("Mary", "R&D", 40, 3)
	john := r.MustInsert("John", "R&D", 10, 2)
	maryIT := r.MustInsert("Mary", "IT", 20, 1)
	johnPR := r.MustInsert("John", "PR", 30, 4)

	vs := set.Violations(r)
	if len(vs) != 3 {
		t.Fatalf("violations = %d, want 3: %+v", len(vs), vs)
	}
	type pair struct{ a, b relation.TupleID }
	want := map[pair]bool{
		{mary, john}:   true, // fd1
		{mary, maryIT}: true, // fd2
		{john, johnPR}: true, // fd2
	}
	for _, v := range vs {
		if !want[pair{v.T1, v.T2}] {
			t.Errorf("unexpected violation %+v", v)
		}
	}
	if len(set.Violations(r)) == 0 {
		t.Error("instance should be inconsistent")
	}
}

func TestViolationsBruteForceAgreement(t *testing.T) {
	// Hash-join violation detection must agree with the O(n²) check.
	s := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"), relation.IntAttr("C"))
	set := MustParseSet(s, "A -> B", "B -> C")
	r := relation.NewInstance(s)
	// Deterministic pseudo-random instance with many collisions.
	x := int64(1)
	for i := 0; i < 60; i++ {
		x = (x*1103515245 + 12345) % (1 << 31)
		r.MustInsert(int(x%4), int((x/7)%3), int((x/11)%3))
	}
	got := map[[2]int]bool{}
	for _, v := range set.Violations(r) {
		got[[2]int{v.T1, v.T2}] = true
	}
	want := map[[2]int]bool{}
	r.Range(func(i relation.TupleID, ti relation.Tuple) bool {
		r.Range(func(j relation.TupleID, tj relation.Tuple) bool {
			if i < j {
				if _, ok := set.Conflicts(ti, tj); ok {
					want[[2]int{i, j}] = true
				}
			}
			return true
		})
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("hash-join found %d pairs, brute force %d", len(got), len(want))
	}
	for p := range want {
		if !got[p] {
			t.Errorf("missing pair %v", p)
		}
	}
}

func TestConsistentInstance(t *testing.T) {
	s := mgrSchema()
	set := MustParseSet(s, "Name -> Dept,Salary,Reports")
	r := relation.NewInstance(s)
	r.MustInsert("Mary", "R&D", 40, 3)
	r.MustInsert("John", "PR", 30, 4)
	if vs := set.Violations(r); len(vs) != 0 {
		t.Fatalf("violations = %v", vs)
	}
}

func TestSetAddDeduplicates(t *testing.T) {
	s := mgrSchema()
	set, err := NewSet(s, MustParse(s, "Name -> Dept"), MustParse(s, "Name -> Dept"))
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 1 {
		t.Fatalf("Len = %d, want 1", set.Len())
	}
	other := relation.MustSchema("Other", relation.NameAttr("X"), relation.NameAttr("Y"))
	if err := set.Add(MustParse(other, "X -> Y")); err == nil {
		t.Fatal("adding FD over a different schema should fail")
	}
}

func TestSetString(t *testing.T) {
	s := relation.MustSchema("R",
		relation.IntAttr("A"), relation.IntAttr("B"),
		relation.IntAttr("C"), relation.IntAttr("D"))
	set := MustParseSet(s, "A -> B", "C -> D")
	if got := set.String(); got != "A -> B; C -> D" {
		t.Fatalf("String = %q", got)
	}
}

// Conflicts reports whether tuples t and u conflict with respect to f:
// they agree on X and differ on some attribute of Y (§2.1).
func (f FD) Conflicts(t, u relation.Tuple) bool {
	for _, i := range f.lhs {
		if !t[i].Equal(u[i]) {
			return false
		}
	}
	for _, i := range f.rhs {
		if !t[i].Equal(u[i]) {
			return true
		}
	}
	return false
}

// MustParse is Parse that panics on error, for fixtures.
func MustParse(schema *relation.Schema, s string) FD {
	f, err := Parse(schema, s)
	if err != nil {
		panic(err)
	}
	return f
}

// Conflicts reports whether two tuples conflict with respect to some
// dependency in the set, and returns the index of the first witness.
func (s *Set) Conflicts(t, u relation.Tuple) (int, bool) {
	for i, f := range s.fds {
		if f.Conflicts(t, u) {
			return i, true
		}
	}
	return -1, false
}
