package repair

import (
	"math/rand"
	"testing"

	"prefcqa/internal/bitset"
	"prefcqa/internal/conflict"
	"prefcqa/internal/fd"
	"prefcqa/internal/relation"
)

func pairsGraph(t *testing.T, n int) *conflict.Graph {
	t.Helper()
	s := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"))
	inst := relation.NewInstance(s)
	for i := 0; i < n; i++ {
		inst.MustInsert(i, 0)
		inst.MustInsert(i, 1)
	}
	return conflict.MustBuild(inst, fd.MustParseSet(s, "A -> B"))
}

func mgrGraph(t *testing.T) (*conflict.Graph, map[string]relation.TupleID) {
	t.Helper()
	s := relation.MustSchema("Mgr",
		relation.NameAttr("Name"), relation.NameAttr("Dept"),
		relation.IntAttr("Salary"), relation.IntAttr("Reports"))
	fds := fd.MustParseSet(s, "Dept -> Name,Salary,Reports", "Name -> Dept,Salary,Reports")
	r := relation.NewInstance(s)
	ids := map[string]relation.TupleID{
		"mary":   r.MustInsert("Mary", "R&D", 40, 3),
		"john":   r.MustInsert("John", "R&D", 10, 2),
		"maryIT": r.MustInsert("Mary", "IT", 20, 1),
		"johnPR": r.MustInsert("John", "PR", 30, 4),
	}
	return conflict.MustBuild(r, fds), ids
}

func TestExample2MgrRepairs(t *testing.T) {
	// Example 2: exactly three repairs r1, r2, r3.
	g, ids := mgrGraph(t)
	repairs := All(g)
	if len(repairs) != 3 {
		t.Fatalf("repairs = %d, want 3", len(repairs))
	}
	want := []*bitset.Set{
		bitset.FromSlice([]int{ids["mary"], ids["johnPR"]}),   // r1
		bitset.FromSlice([]int{ids["john"], ids["maryIT"]}),   // r2
		bitset.FromSlice([]int{ids["maryIT"], ids["johnPR"]}), // r3
	}
	for _, w := range want {
		found := false
		for _, r := range repairs {
			if r.Equal(w) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing repair %v", w)
		}
	}
	for _, r := range repairs {
		if !IsRepair(g, r) {
			t.Errorf("enumerated set %v is not a repair", r)
		}
	}
}

func TestExample4PairsCount(t *testing.T) {
	// Example 4: r_n has exactly 2^n repairs.
	for _, n := range []int{1, 2, 5, 10, 20, 62} {
		g := pairsGraph(t, n)
		c, err := Count(g)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if want := int64(1) << uint(n); c != want {
			t.Fatalf("n=%d: Count = %d, want %d", n, c, want)
		}
	}
	// n=63: 2^63 overflows int64.
	if _, err := Count(pairsGraph(t, 63)); err != ErrOverflow {
		t.Fatalf("n=63 should overflow, got %v", err)
	}
}

func TestEnumerateMatchesBruteForce(t *testing.T) {
	// Cross-check Bron–Kerbosch against subset brute force on random
	// small graphs.
	rng := rand.New(rand.NewSource(17))
	s := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"), relation.IntAttr("C"))
	for iter := 0; iter < 50; iter++ {
		inst := relation.NewInstance(s)
		for i := 0; i < 8; i++ {
			inst.MustInsert(rng.Intn(3), rng.Intn(2), rng.Intn(2))
		}
		g := conflict.MustBuild(inst, fd.MustParseSet(s, "A -> B", "B -> C"))

		got := map[string]bool{}
		if err := Enumerate(g, func(r *bitset.Set) bool {
			got[r.Key()] = true
			return true
		}); err != nil {
			t.Fatal(err)
		}

		want := map[string]bool{}
		n := g.Len()
		for mask := 0; mask < 1<<uint(n); mask++ {
			set := bitset.New(n)
			for v := 0; v < n; v++ {
				if mask&(1<<uint(v)) != 0 {
					set.Add(v)
				}
			}
			if g.IsMaximalIndependent(set) {
				want[set.Key()] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("iter %d: enumerated %d repairs, brute force %d\n%s", iter, len(got), len(want), g.ASCII())
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("iter %d: missing repair", iter)
			}
		}
	}
}

func TestEnumerateNoDuplicates(t *testing.T) {
	g := pairsGraph(t, 6)
	seen := map[string]bool{}
	if err := Enumerate(g, func(r *bitset.Set) bool {
		k := r.Key()
		if seen[k] {
			t.Fatalf("duplicate repair %v", r)
		}
		seen[k] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 64 {
		t.Fatalf("enumerated %d repairs, want 64", len(seen))
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	g := pairsGraph(t, 10)
	n := 0
	err := Enumerate(g, func(*bitset.Set) bool {
		n++
		return n < 5
	})
	if err != ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if n != 5 {
		t.Fatalf("visited %d, want 5", n)
	}
}

func TestConsistentInstanceSingleRepair(t *testing.T) {
	// The set of repairs of a consistent relation contains only r.
	s := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"))
	inst := relation.NewInstance(s)
	inst.MustInsert(1, 1)
	inst.MustInsert(2, 2)
	g := conflict.MustBuild(inst, fd.MustParseSet(s, "A -> B"))
	repairs := All(g)
	if len(repairs) != 1 || !repairs[0].Equal(inst.AllIDs()) {
		t.Fatalf("repairs of a consistent instance = %v", repairs)
	}
	if c, _ := Count(g); c != 1 {
		t.Fatalf("Count = %d, want 1", c)
	}
}

func TestEmptyInstance(t *testing.T) {
	s := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"))
	inst := relation.NewInstance(s)
	g := conflict.MustBuild(inst, fd.MustParseSet(s, "A -> B"))
	repairs := All(g)
	if len(repairs) != 1 || !repairs[0].Empty() {
		t.Fatalf("repairs of empty instance = %v", repairs)
	}
}

func TestIsRepair(t *testing.T) {
	g, ids := mgrGraph(t)
	if !IsRepair(g, bitset.FromSlice([]int{ids["mary"], ids["johnPR"]})) {
		t.Error("r1 should be a repair")
	}
	// Consistent but not maximal.
	if IsRepair(g, bitset.FromSlice([]int{ids["mary"]})) {
		t.Error("{mary} is not maximal")
	}
	// Inconsistent.
	if IsRepair(g, bitset.FromSlice([]int{ids["mary"], ids["john"]})) {
		t.Error("{mary,john} conflicts")
	}
}

func TestCombineEmptyChoices(t *testing.T) {
	n := 0
	if err := Combine(4, nil, func(s *bitset.Set) bool {
		if !s.Empty() {
			t.Fatal("empty combine should yield empty set")
		}
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("yielded %d, want 1", n)
	}
}

func TestRestrict(t *testing.T) {
	s := bitset.FromSlice([]int{0, 2, 5})
	got := Restrict(s, []int{2, 3, 5, 7})
	if !got.Equal(bitset.FromSlice([]int{2, 5})) {
		t.Fatalf("Restrict = %v", got)
	}
}

func TestCountComponentTriangle(t *testing.T) {
	s := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"))
	inst := relation.NewInstance(s)
	inst.MustInsert(1, 1)
	inst.MustInsert(1, 2)
	inst.MustInsert(1, 3)
	g := conflict.MustBuild(inst, fd.MustParseSet(s, "A -> B"))
	comps := g.Components()
	if len(comps) != 1 {
		t.Fatalf("components = %v", comps)
	}
	if c := CountComponent(g, comps[0]); c != 3 {
		t.Fatalf("triangle has %d MIS, want 3", c)
	}
}

func BenchmarkEnumeratePairs12(b *testing.B) {
	s := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"))
	inst := relation.NewInstance(s)
	for i := 0; i < 12; i++ {
		inst.MustInsert(i, 0)
		inst.MustInsert(i, 1)
	}
	g := conflict.MustBuild(inst, fd.MustParseSet(s, "A -> B"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		Enumerate(g, func(*bitset.Set) bool { n++; return true }) //nolint:errcheck
		if n != 4096 {
			b.Fatalf("n = %d", n)
		}
	}
}
