package repair

import (
	"math"
	"math/rand"
	"testing"

	"prefcqa/internal/bitset"
	"prefcqa/internal/conflict"
	"prefcqa/internal/fd"
	"prefcqa/internal/relation"
)

// perComponent lists the maximal independent sets of every component
// of g, as sets of global TupleIDs.
func perComponent(g *conflict.Graph) [][]*bitset.Set {
	var out [][]*bitset.Set
	for _, comp := range g.Components() {
		l := g.Project(comp)
		var list []*bitset.Set
		EnumerateLocal(l, func(r bitset.Words) bool { //nolint:errcheck // yield never stops
			s := bitset.New(g.Len())
			r.Range(func(i int) bool {
				s.Add(l.Global(i))
				return true
			})
			list = append(list, s)
			return true
		})
		out = append(out, list)
	}
	return out
}

// all lists every repair of g: each union of one maximal independent
// set per component.
func all(g *conflict.Graph) []*bitset.Set {
	out := []*bitset.Set{bitset.New(g.Len())}
	for _, choices := range perComponent(g) {
		var next []*bitset.Set
		for _, prefix := range out {
			for _, c := range choices {
				next = append(next, bitset.Union(prefix, c))
			}
		}
		out = next
	}
	return out
}

// count returns the number of repairs of g, the product of the
// per-component counts, or ErrOverflow beyond int64.
func count(g *conflict.Graph) (int64, error) {
	total := int64(1)
	for _, choices := range perComponent(g) {
		if total > math.MaxInt64/int64(len(choices)) {
			return 0, ErrOverflow
		}
		total *= int64(len(choices))
	}
	return total, nil
}

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
	repairs := all(g)
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
		c, err := count(g)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if want := int64(1) << uint(n); c != want {
			t.Fatalf("n=%d: Count = %d, want %d", n, c, want)
		}
	}
	// n=63: 2^63 overflows int64.
	if _, err := count(pairsGraph(t, 63)); err != ErrOverflow {
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
		for _, r := range all(g) {
			got[r.Key()] = true
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
	for _, r := range all(g) {
		k := r.Key()
		if seen[k] {
			t.Fatalf("duplicate repair %v", r)
		}
		seen[k] = true
	}
	if len(seen) != 64 {
		t.Fatalf("enumerated %d repairs, want 64", len(seen))
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	g := chainGraph(10)
	n := 0
	err := EnumerateLocal(g.Project(g.Components()[0]), func(bitset.Words) bool {
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
	repairs := all(g)
	if len(repairs) != 1 || !repairs[0].Equal(inst.AllIDs()) {
		t.Fatalf("repairs of a consistent instance = %v", repairs)
	}
	if c, _ := count(g); c != 1 {
		t.Fatalf("Count = %d, want 1", c)
	}
}

func TestEmptyInstance(t *testing.T) {
	s := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"))
	inst := relation.NewInstance(s)
	g := conflict.MustBuild(inst, fd.MustParseSet(s, "A -> B"))
	repairs := all(g)
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
	c := 0
	EnumerateLocal(g.Project(comps[0]), func(bitset.Words) bool { //nolint:errcheck // never stops
		c++
		return true
	})
	if c != 3 {
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
		if n := len(all(g)); n != 4096 {
			b.Fatalf("n = %d", n)
		}
	}
}
