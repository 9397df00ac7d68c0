package conflict

import (
	"strings"
	"testing"

	"prefcqa/internal/bitset"
	"prefcqa/internal/fd"
	"prefcqa/internal/relation"
)

// pairsInstance builds the instance r_n of Example 4:
// {(0,0),(0,1),...,(n-1,0),(n-1,1)} with A -> B.
func pairsInstance(n int) (*relation.Instance, *fd.Set) {
	s := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"))
	inst := relation.NewInstance(s)
	for i := 0; i < n; i++ {
		inst.MustInsert(i, 0)
		inst.MustInsert(i, 1)
	}
	return inst, fd.MustParseSet(s, "A -> B")
}

func TestBuildSchemaMismatch(t *testing.T) {
	inst, _ := pairsInstance(1)
	other := relation.MustSchema("S", relation.IntAttr("X"), relation.IntAttr("Y"))
	if _, err := Build(inst, fd.MustParseSet(other, "X -> Y")); err == nil {
		t.Fatal("schema mismatch should fail")
	}
}

func TestFigure1PairsGraph(t *testing.T) {
	// Figure 1: r_4 under A -> B is a perfect matching of 4 edges.
	inst, fds := pairsInstance(4)
	g := MustBuild(inst, fds)
	if g.Len() != 8 {
		t.Fatalf("Len = %d, want 8", g.Len())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	comps := g.Components()
	if len(comps) != 4 {
		t.Fatalf("components = %d, want 4", len(comps))
	}
	for _, c := range comps {
		if len(c) != 2 {
			t.Fatalf("component %v should be an edge", c)
		}
		if !g.Adjacent(c[0], c[1]) {
			t.Fatalf("component %v not connected", c)
		}
	}
	// Each vertex has degree 1.
	for v := 0; v < g.Len(); v++ {
		if g.Degree(v) != 1 {
			t.Fatalf("degree(%d) = %d, want 1", v, g.Degree(v))
		}
	}
}

func TestExample1MgrGraph(t *testing.T) {
	s := relation.MustSchema("Mgr",
		relation.NameAttr("Name"), relation.NameAttr("Dept"),
		relation.IntAttr("Salary"), relation.IntAttr("Reports"))
	fds := fd.MustParseSet(s, "Dept -> Name,Salary,Reports", "Name -> Dept,Salary,Reports")
	r := relation.NewInstance(s)
	mary := r.MustInsert("Mary", "R&D", 40, 3)
	john := r.MustInsert("John", "R&D", 10, 2)
	maryIT := r.MustInsert("Mary", "IT", 20, 1)
	johnPR := r.MustInsert("John", "PR", 30, 4)

	g := MustBuild(r, fds)
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	wantAdj := [][2]relation.TupleID{{mary, john}, {mary, maryIT}, {john, johnPR}}
	for _, p := range wantAdj {
		if !g.Adjacent(p[0], p[1]) || !g.Adjacent(p[1], p[0]) {
			t.Errorf("expected conflict %v", p)
		}
	}
	if g.Adjacent(maryIT, johnPR) {
		t.Error("maryIT and johnPR should not conflict")
	}
	// One component: the conflict path maryIT - mary - john - johnPR.
	if comps := g.Components(); len(comps) != 1 || len(comps[0]) != 4 {
		t.Fatalf("components = %v", comps)
	}
}

func TestEdgeLabels(t *testing.T) {
	inst, fds := pairsInstance(2)
	g := MustBuild(inst, fds)
	for _, e := range g.Edges() {
		if e.FD != 0 {
			t.Fatalf("edge %+v should be labelled with FD 0", e)
		}
		if e.A >= e.B {
			t.Fatalf("edge %+v not normalized", e)
		}
	}
}

func TestNeighbors(t *testing.T) {
	// Star: tc conflicts ta and tb (Example 8 shape).
	s := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"), relation.IntAttr("C"))
	inst := relation.NewInstance(s)
	ta := inst.MustInsert(1, 1, 1)
	tb := inst.MustInsert(1, 1, 2)
	tc := inst.MustInsert(1, 2, 3)
	g := MustBuild(inst, fd.MustParseSet(s, "A -> B"))

	got := g.Neighbors(tc)
	if len(got) != 2 || int(got[0]) != ta || int(got[1]) != tb {
		t.Fatalf("n(tc) = %v, want sorted [%d %d]", got, ta, tb)
	}
	if g.Adjacent(ta, tb) {
		t.Fatal("duplicates w.r.t. the FD must not be adjacent")
	}
	// Neighbor rows are sorted — Adjacent's binary-search invariant.
	for v := 0; v < g.Len(); v++ {
		row := g.Neighbors(v)
		for i := 1; i < len(row); i++ {
			if row[i-1] >= row[i] {
				t.Fatalf("row %d not strictly sorted: %v", v, row)
			}
		}
	}
}

func TestIndependence(t *testing.T) {
	inst, fds := pairsInstance(2)
	g := MustBuild(inst, fds)
	// IDs: 0=(0,0), 1=(0,1), 2=(1,0), 3=(1,1).
	if !g.IsIndependent(bitset.FromSlice([]int{0, 2})) {
		t.Error("{(0,0),(1,0)} should be independent")
	}
	if g.IsIndependent(bitset.FromSlice([]int{0, 1})) {
		t.Error("{(0,0),(0,1)} conflicts")
	}
	if !g.IsMaximalIndependent(bitset.FromSlice([]int{0, 2})) {
		t.Error("{0,2} should be maximal")
	}
	if g.IsMaximalIndependent(bitset.FromSlice([]int{0})) {
		t.Error("{0} is not maximal (2 and 3 can be added)")
	}
	var empty bitset.Set
	if g.IsMaximalIndependent(&empty) {
		t.Error("empty set is not maximal in a nonempty graph")
	}
}

func TestConsistentInstanceGraph(t *testing.T) {
	s := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"))
	inst := relation.NewInstance(s)
	inst.MustInsert(1, 1)
	inst.MustInsert(2, 2)
	g := MustBuild(inst, fd.MustParseSet(s, "A -> B"))
	if g.NumEdges() != 0 {
		t.Fatal("consistent instance should have no conflicts")
	}
	// The only repair of a consistent relation is the relation itself.
	if !g.IsMaximalIndependent(inst.AllIDs()) {
		t.Fatal("full instance should be the unique repair")
	}
}

func TestIsolatedVertexComponent(t *testing.T) {
	s := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"))
	inst := relation.NewInstance(s)
	inst.MustInsert(1, 1)
	inst.MustInsert(1, 2)
	inst.MustInsert(9, 9) // isolated
	g := MustBuild(inst, fd.MustParseSet(s, "A -> B"))
	comps := g.Components()
	if len(comps) != 2 {
		t.Fatalf("components = %v", comps)
	}
}

func TestRendering(t *testing.T) {
	inst, fds := pairsInstance(2)
	g := MustBuild(inst, fds)
	dot := g.DOT()
	if !strings.Contains(dot, "graph R {") || !strings.Contains(dot, "t0 -- t1") {
		t.Fatalf("DOT = %s", dot)
	}
	if !strings.Contains(dot, "A -> B") {
		t.Fatal("DOT should label edges with the FD")
	}
	ascii := g.ASCII()
	if !strings.Contains(ascii, "(0, 0)") {
		t.Fatalf("ASCII = %s", ascii)
	}
	// Isolated vertices are marked.
	s := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"))
	lone := relation.NewInstance(s)
	lone.MustInsert(1, 1)
	lg := MustBuild(lone, fd.MustParseSet(s, "A -> B"))
	if !strings.Contains(lg.ASCII(), "(no conflicts)") {
		t.Fatal("ASCII should mark isolated tuples")
	}
}

func TestComponentsCached(t *testing.T) {
	inst, fds := pairsInstance(4)
	g := MustBuild(inst, fds)
	c1 := g.Components()
	c2 := g.Components()
	if &c1[0] != &c2[0] {
		t.Fatal("Components should be cached")
	}
}

func BenchmarkBuildPairs(b *testing.B) {
	inst, fds := pairsInstance(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(inst, fds); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBuildAllocations is the allocation gate of the conflict-graph
// build at the serving benchmark's size: 100 000 two-tuple clusters,
// 200 000 tuples. A violation scan that keeps a map entry, a slice and
// an RHS map per LHS group makes about five objects per tuple; the
// grouped scan makes a fixed handful per dependency.
func TestBuildAllocations(t *testing.T) {
	inst, fds := pairsInstance(100000)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Build(inst, fds); err != nil {
			t.Fatal(err)
		}
	})
	perTuple := allocs / float64(inst.Len())
	t.Logf("Build at %d tuples: %.0f objects, %.4f per tuple", inst.Len(), allocs, perTuple)
	if perTuple > 0.01 {
		t.Fatalf("Build allocates %.4f objects per tuple, limit 0.01", perTuple)
	}
}

// TestComponentsAllocations pins the flat component layout: laying out
// the components of 100 000 two-tuple clusters makes a fixed number of
// allocations — the per-vertex and per-component arrays — not one
// member list (or walk stack) per component.
func TestComponentsAllocations(t *testing.T) {
	inst, fds := pairsInstance(100000)
	g := MustBuild(inst, fds)
	allocs := testing.AllocsPerRun(3, g.computeComponents)
	t.Logf("computeComponents at %d tuples, %d components: %.0f objects", inst.Len(), g.NumComponents(), allocs)
	if allocs > 8 {
		t.Fatalf("computeComponents allocates %.0f objects for %d components, want at most 8", allocs, g.NumComponents())
	}
	if c := g.Component(g.ComponentOf(7)); len(c) != 2 || c[0] != 6 || c[1] != 7 || cap(c) != 2 {
		t.Fatalf("component of tuple 7 = %v (cap %d), want [6 7] (cap 2)", c, cap(c))
	}
}
