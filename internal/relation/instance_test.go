package relation

import (
	"strings"
	"testing"

	"prefcqa/internal/bitset"
)

func mgrSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("Mgr", NameAttr("Name"), NameAttr("Dept"), IntAttr("Salary"), IntAttr("Reports"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSchemaErrors(t *testing.T) {
	if _, err := NewSchema(""); err == nil {
		t.Error("empty relation name should fail")
	}
	if _, err := NewSchema("R"); err == nil {
		t.Error("schema without attributes should fail")
	}
	if _, err := NewSchema("R", NameAttr("A"), NameAttr("A")); err == nil {
		t.Error("duplicate attribute should fail")
	}
	if _, err := NewSchema("R", NameAttr("bad name")); err == nil {
		t.Error("attribute with space should fail")
	}
	if _, err := NewSchema("1R", NameAttr("A")); err == nil {
		t.Error("relation name starting with digit should fail")
	}
	if _, err := NewSchema("R-S", NameAttr("A")); err == nil {
		t.Error("relation name with dash should fail")
	}
}

func TestSchemaAccessors(t *testing.T) {
	s := mgrSchema(t)
	if s.Name() != "Mgr" || s.Arity() != 4 {
		t.Fatalf("Name/Arity = %s/%d", s.Name(), s.Arity())
	}
	if i, ok := s.Index("Salary"); !ok || i != 2 {
		t.Fatalf("Index(Salary) = %d,%v", i, ok)
	}
	if _, ok := s.Index("Nope"); ok {
		t.Fatal("Index of unknown attribute should fail")
	}
	idx, err := s.Indexes([]string{"Dept", "Name"})
	if err != nil || idx[0] != 1 || idx[1] != 0 {
		t.Fatalf("Indexes = %v, %v", idx, err)
	}
	if _, err := s.Indexes([]string{"Dept", "Dept"}); err == nil {
		t.Fatal("duplicate names in Indexes should fail")
	}
	if _, err := s.Indexes([]string{"Zzz"}); err == nil {
		t.Fatal("unknown name in Indexes should fail")
	}
	attrs := s.Attrs()
	attrs[0].Name = "Mutated"
	if s.Attr(0).Name != "Name" {
		t.Fatal("Attrs should return a copy")
	}
	want := "Mgr(Name:name, Dept:name, Salary:int, Reports:int)"
	if s.String() != want {
		t.Fatalf("String = %q, want %q", s.String(), want)
	}
}

func TestSchemaEqual(t *testing.T) {
	a := mgrSchema(t)
	b := mgrSchema(t)
	if !a.Equal(b) {
		t.Fatal("identical schemas should be equal")
	}
	c := MustSchema("Mgr", NameAttr("Name"), NameAttr("Dept"), IntAttr("Salary"), NameAttr("Reports"))
	if a.Equal(c) {
		t.Fatal("different kinds should not be equal")
	}
	if a.Equal(nil) {
		t.Fatal("Equal(nil) should be false")
	}
}

func TestInsertSetSemantics(t *testing.T) {
	inst := NewInstance(mgrSchema(t))
	id1, err := inst.InsertValues("Mary", "R&D", 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := inst.InsertValues("Mary", "R&D", 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Fatalf("duplicate insert returned new ID %d != %d", id2, id1)
	}
	if inst.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (set semantics)", inst.Len())
	}
	id3 := inst.MustInsert("John", "R&D", 10, 2)
	if id3 != 1 || inst.Len() != 2 {
		t.Fatalf("second tuple: id=%d len=%d", id3, inst.Len())
	}
}

func TestInsertTypeErrors(t *testing.T) {
	inst := NewInstance(mgrSchema(t))
	if _, err := inst.InsertValues("Mary", "R&D", 40); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err := inst.InsertValues("Mary", "R&D", "forty", 3); err == nil {
		t.Error("name in int column should fail")
	}
	if _, err := inst.InsertValues(1, "R&D", 40, 3); err == nil {
		t.Error("int in name column should fail")
	}
	if _, err := inst.InsertValues("Mary", "R&D", 3.5, 3); err == nil {
		t.Error("uncoercible value should fail")
	}
	if inst.Len() != 0 {
		t.Errorf("failed inserts must not modify the instance, Len = %d", inst.Len())
	}
}

func TestLookupContains(t *testing.T) {
	inst := NewInstance(mgrSchema(t))
	inst.MustInsert("Mary", "R&D", 40, 3)
	tup := Tuple{Name("Mary"), Name("R&D"), Int(40), Int(3)}
	if id, ok := inst.Lookup(tup); !ok || id != 0 {
		t.Fatalf("Lookup = %d, %v", id, ok)
	}
	if !inst.Contains(tup) {
		t.Fatal("Contains should be true")
	}
	if inst.Contains(Tuple{Name("Bob"), Name("IT"), Int(1), Int(1)}) {
		t.Fatal("Contains of absent tuple should be false")
	}
}

func TestInsertCopiesTuple(t *testing.T) {
	inst := NewInstance(MustSchema("R", IntAttr("A")))
	tup := Tuple{Int(1)}
	id, _, err := inst.Insert(tup)
	if err != nil {
		t.Fatal(err)
	}
	tup[0] = Int(99)
	if got := inst.Tuple(id)[0]; !got.Equal(Int(1)) {
		t.Fatalf("Insert must copy the tuple; got %v", got)
	}
}

func TestProjectAndKey(t *testing.T) {
	tup := Tuple{Name("a"), Int(1), Name("b")}
	p := tup.Project([]int{2, 0})
	if !p.Equal(Tuple{Name("b"), Name("a")}) {
		t.Fatalf("Project = %v", p)
	}
	// Keys must distinguish values that print similarly.
	a := Tuple{Name("1")}
	b := Tuple{Int(1)}
	if a.Key() == b.Key() {
		t.Fatal("name '1' and int 1 must have different keys")
	}
	// Concatenation ambiguity: ("ab","c") vs ("a","bc").
	x := Tuple{Name("ab"), Name("c")}
	y := Tuple{Name("a"), Name("bc")}
	if x.Key() == y.Key() {
		t.Fatal("keys must be concatenation-unambiguous")
	}
}

func TestSubsetAndClone(t *testing.T) {
	inst := NewInstance(mgrSchema(t))
	inst.MustInsert("Mary", "R&D", 40, 3)
	inst.MustInsert("John", "R&D", 10, 2)
	inst.MustInsert("Mary", "IT", 20, 1)

	sub := inst.Subset(bitset.FromSlice([]int{0, 2}))
	if sub.Len() != 2 {
		t.Fatalf("Subset Len = %d", sub.Len())
	}
	if !sub.Contains(Tuple{Name("Mary"), Name("IT"), Int(20), Int(1)}) {
		t.Fatal("Subset lost a tuple")
	}
}

func TestSortedIDsDeterministic(t *testing.T) {
	inst := NewInstance(MustSchema("R", IntAttr("A"), NameAttr("B")))
	inst.MustInsert(3, "c")
	inst.MustInsert(1, "z")
	inst.MustInsert(1, "a")
	ids := inst.SortedIDs()
	var got []Tuple
	for _, id := range ids {
		got = append(got, inst.Tuple(id))
	}
	want := []Tuple{{Int(1), Name("a")}, {Int(1), Name("z")}, {Int(3), Name("c")}}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("SortedIDs order = %v", got)
		}
	}
}

func TestRangeEarlyStop(t *testing.T) {
	inst := NewInstance(MustSchema("R", IntAttr("A")))
	for i := 0; i < 5; i++ {
		inst.MustInsert(i)
	}
	n := 0
	inst.Range(func(TupleID, Tuple) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("Range visited %d, want 2", n)
	}
}

func TestInstanceString(t *testing.T) {
	inst := NewInstance(MustSchema("R", IntAttr("A")))
	inst.MustInsert(2)
	inst.MustInsert(1)
	got := inst.String()
	if !strings.Contains(got, "(1), (2)") {
		t.Fatalf("String = %q", got)
	}
}

func TestDatabase(t *testing.T) {
	db := NewDatabase()
	mgr := NewInstance(mgrSchema(t))
	if err := db.AddInstance(mgr); err != nil {
		t.Fatal(err)
	}
	mgr.MustInsert("Mary", "R&D", 40, 3)
	if err := db.AddInstance(NewInstance(mgrSchema(t))); err == nil {
		t.Fatal("duplicate relation should fail")
	}
	dept := NewInstance(MustSchema("Dept", NameAttr("DName")))
	if err := db.AddInstance(dept); err != nil {
		t.Fatal(err)
	}
	if err := db.AddInstance(dept); err == nil {
		t.Fatal("duplicate AddInstance should fail")
	}
	if got, ok := db.Relation("Mgr"); !ok || got != mgr {
		t.Fatal("Relation lookup failed")
	}
	if _, ok := db.Relation("Nope"); ok {
		t.Fatal("unknown relation lookup should fail")
	}
	names := db.Names()
	if len(names) != 2 || names[0] != "Mgr" || names[1] != "Dept" {
		t.Fatalf("Names = %v", names)
	}
}

// Attrs returns a copy of the attribute list.
func (s *Schema) Attrs() []Attribute {
	out := make([]Attribute, len(s.attrs))
	copy(out, s.attrs)
	return out
}

// Equal reports component-wise equality.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !t[i].Equal(u[i]) {
			return false
		}
	}
	return true
}

// Project returns the subtuple at the given attribute positions.
func (t Tuple) Project(idx []int) Tuple {
	out := make(Tuple, len(idx))
	for i, j := range idx {
		out[i] = t[j]
	}
	return out
}
