package priority

import (
	"math/rand"
	"testing"

	"prefcqa/internal/bitset"
	"prefcqa/internal/conflict"
	"prefcqa/internal/fd"
	"prefcqa/internal/relation"
)

// triangle builds three mutually conflicting tuples (one key, three
// values): a clique of size 3.
func triangle(t *testing.T) *conflict.Graph {
	t.Helper()
	s := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"))
	inst := relation.NewInstance(s)
	inst.MustInsert(1, 1) // t0
	inst.MustInsert(1, 2) // t1
	inst.MustInsert(1, 3) // t2
	return conflict.MustBuild(inst, fd.MustParseSet(s, "A -> B"))
}

// path5 builds the Example 9 instance: a conflict path ta-tb-tc-td-te.
func path5(t *testing.T) *conflict.Graph {
	t.Helper()
	s := relation.MustSchema("R",
		relation.IntAttr("A"), relation.IntAttr("B"),
		relation.IntAttr("C"), relation.IntAttr("D"))
	inst := relation.NewInstance(s)
	inst.MustInsert(1, 1, 0, 0) // ta = 0
	inst.MustInsert(1, 2, 1, 1) // tb = 1
	inst.MustInsert(2, 1, 1, 2) // tc = 2
	inst.MustInsert(2, 2, 2, 1) // td = 3
	inst.MustInsert(0, 0, 2, 2) // te = 4
	return conflict.MustBuild(inst, fd.MustParseSet(s, "A -> B", "C -> D"))
}

func TestPath5Shape(t *testing.T) {
	g := path5(t)
	if g.NumEdges() != 4 {
		t.Fatalf("Example 9 graph should be a path with 4 edges, got %d", g.NumEdges())
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}} {
		if !g.Adjacent(e[0], e[1]) {
			t.Fatalf("missing path edge %v", e)
		}
	}
}

func TestAddBasics(t *testing.T) {
	g := triangle(t)
	p := New(g)
	if err := p.Add(0, 1); err != nil {
		t.Fatal(err)
	}
	if !p.Dominates(0, 1) || p.Dominates(1, 0) {
		t.Fatal("Dominates wrong after Add")
	}
	if !p.Oriented(0, 1) || !p.Oriented(1, 0) {
		t.Fatal("Oriented should be symmetric in its arguments")
	}
	if p.Len() != 1 {
		t.Fatalf("Len = %d", p.Len())
	}
	// Re-adding is a no-op.
	if err := p.Add(0, 1); err != nil || p.Len() != 1 {
		t.Fatal("re-add should be a no-op")
	}
	// Opposite direction is an error.
	if err := p.Add(1, 0); err == nil {
		t.Fatal("conflicting orientation should fail")
	}
}

func TestAddRejectsNonConflicting(t *testing.T) {
	g := path5(t)
	p := New(g)
	if err := p.Add(0, 2); err == nil {
		t.Fatal("ta and tc do not conflict; Add should fail")
	}
	if err := p.Add(0, 0); err == nil {
		t.Fatal("self-domination should fail")
	}
}

func TestAddRejectsCycles(t *testing.T) {
	g := triangle(t)
	p := New(g)
	p.MustAdd(0, 1)
	p.MustAdd(1, 2)
	if err := p.Add(2, 0); err == nil {
		t.Fatal("0 ≻ 1 ≻ 2 ≻ 0 is a cycle; Add must fail")
	}
	// The non-cyclic direction is fine.
	if err := p.Add(0, 2); err != nil {
		t.Fatal(err)
	}
}

func TestTransitiveCycleRejected(t *testing.T) {
	// Cycle through a longer ≻-path, not just a triangle.
	g := path5(t)
	p := New(g)
	p.MustAdd(0, 1)
	p.MustAdd(1, 2)
	p.MustAdd(2, 3)
	if err := p.Add(3, 4); err != nil {
		t.Fatal(err)
	}
	// No cycle possible on a path at all: 4 edges oriented, total.
	if !p.IsTotal() {
		t.Fatal("path with all edges oriented should be total")
	}
}

func TestFromRelationFiltersNonConflicting(t *testing.T) {
	g := path5(t)
	p, err := FromRelation(g, [][2]relation.TupleID{
		{0, 1}, // conflict edge: kept
		{0, 4}, // not a conflict: dropped (Def. 2 discussion)
		{2, 1}, // conflict edge: kept
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 || !p.Dominates(0, 1) || !p.Dominates(2, 1) {
		t.Fatalf("FromRelation = %v", p)
	}
	// Cycle among kept pairs must error.
	if _, err := FromRelation(g, [][2]relation.TupleID{{0, 1}, {1, 0}}); err == nil {
		t.Fatal("contradictory orientations should fail")
	}
}

// Extends reports whether p extends q: same graph and q's orientations
// are a subset of p's (≻q ⊆ ≻p) — the oracle the total-extension tests
// hold TotalExtension and AllTotalExtensions to.
func (p *Priority) Extends(q *Priority) bool {
	if p.g != q.g {
		return false
	}
	for x := 0; x < q.g.Len(); x++ {
		for _, y := range q.Dominated(x) {
			if !p.Dominates(x, int(y)) {
				return false
			}
		}
	}
	return true
}

func TestExtends(t *testing.T) {
	g := triangle(t)
	p := New(g)
	p.MustAdd(0, 1)
	q := p.Clone()
	q.MustAdd(1, 2)
	if !q.Extends(p) {
		t.Fatal("q should extend p")
	}
	if p.Extends(q) {
		t.Fatal("p should not extend q")
	}
	if !p.Extends(p) {
		t.Fatal("Extends should be reflexive")
	}
	other := New(triangle(t))
	if other.Extends(p) {
		t.Fatal("priorities over different graphs are unrelated")
	}
}

func TestIsTotalAndTotalExtension(t *testing.T) {
	g := triangle(t)
	p := New(g)
	if p.IsTotal() {
		t.Fatal("empty priority on a triangle is not total")
	}
	q := p.TotalExtension(nil)
	if !q.IsTotal() {
		t.Fatal("TotalExtension should be total")
	}
	if !q.Extends(p) {
		t.Fatal("TotalExtension should extend the original")
	}
	// Must stay acyclic: verify no vertex reaches itself.
	for v := 0; v < g.Len(); v++ {
		if q.reaches(v, v) && q.Dominates(v, v) {
			t.Fatal("total extension has a self-loop")
		}
	}
	// Randomized extensions of a partial priority stay acyclic & total.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		p2 := New(g)
		p2.MustAdd(1, 0)
		q2 := p2.TotalExtension(rng)
		if !q2.IsTotal() || !q2.Extends(p2) {
			t.Fatal("randomized TotalExtension broken")
		}
		assertAcyclic(t, q2)
	}
}

func assertAcyclic(t *testing.T, p *Priority) {
	t.Helper()
	g := p.Graph()
	for v := 0; v < g.Len(); v++ {
		ok := true
		for _, w := range p.Dominated(v) {
			if p.reaches(int(w), v) {
				ok = false
				break
			}
		}
		if !ok {
			t.Fatalf("priority %v has a cycle through %d", p, v)
		}
	}
}

func TestWinnow(t *testing.T) {
	// Example 7: ta ≻ tb, ta ≻ tc on a triangle.
	g := triangle(t)
	p := New(g)
	p.MustAdd(0, 1)
	p.MustAdd(0, 2)
	all := bitset.Full(3)
	w := p.Winnow(all)
	if !w.Equal(bitset.FromSlice([]int{0})) {
		t.Fatalf("winnow = %v, want {0}", w)
	}
	// Restricted to {1,2}, neither is dominated inside the subset.
	w = p.Winnow(bitset.FromSlice([]int{1, 2}))
	if !w.Equal(bitset.FromSlice([]int{1, 2})) {
		t.Fatalf("winnow = %v, want {1 2}", w)
	}
	if !p.UndominatedIn(1, bitset.FromSlice([]int{1, 2})) {
		t.Fatal("t1 is undominated within {1,2}")
	}
	if p.UndominatedIn(1, all) {
		t.Fatal("t1 is dominated by t0 within the full set")
	}
}

func TestWinnowEmptyPriority(t *testing.T) {
	g := triangle(t)
	p := New(g)
	all := bitset.Full(3)
	if !p.Winnow(all).Equal(all) {
		t.Fatal("winnow with empty priority should keep everything")
	}
}

func TestFromRanks(t *testing.T) {
	// Example 3: s3 less reliable than s1 and s2; s1 vs s2 unknown.
	// Model: rank(s1)=0, rank(s2)=0, rank(s3)=1.
	s := relation.MustSchema("Mgr",
		relation.NameAttr("Name"), relation.NameAttr("Dept"),
		relation.IntAttr("Salary"), relation.IntAttr("Reports"))
	inst := relation.NewInstance(s)
	mary := inst.MustInsert("Mary", "R&D", 40, 3)  // from s1
	john := inst.MustInsert("John", "R&D", 10, 2)  // from s2
	maryIT := inst.MustInsert("Mary", "IT", 20, 1) // from s3
	johnPR := inst.MustInsert("John", "PR", 30, 4) // from s3
	g := conflict.MustBuild(inst, fd.MustParseSet(s,
		"Dept -> Name,Salary,Reports", "Name -> Dept,Salary,Reports"))

	ranks := map[relation.TupleID]int{mary: 0, john: 0, maryIT: 1, johnPR: 1}
	p := FromRanks(g, func(t relation.TupleID) int { return ranks[t] })

	if !p.Dominates(mary, maryIT) || !p.Dominates(john, johnPR) {
		t.Fatal("reliable sources should dominate s3 tuples")
	}
	if p.Oriented(mary, john) {
		t.Fatal("conflict between equally reliable sources must stay unoriented")
	}
	if p.Len() != 2 {
		t.Fatalf("Len = %d, want 2", p.Len())
	}
	assertAcyclic(t, p)
}

func TestRandomDensity(t *testing.T) {
	g := triangle(t)
	rng := rand.New(rand.NewSource(3))
	p0 := Random(g, 0, rng)
	if p0.Len() != 0 {
		t.Fatal("density 0 should orient nothing")
	}
	p1 := Random(g, 1, rng)
	if !p1.IsTotal() {
		t.Fatal("density 1 should orient everything")
	}
	assertAcyclic(t, p1)
	for i := 0; i < 30; i++ {
		assertAcyclic(t, Random(g, 0.5, rng))
	}
}

func TestAllTotalExtensions(t *testing.T) {
	g := triangle(t)
	p := New(g)
	exts, err := AllTotalExtensions(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	// A triangle has 2^3 = 8 orientations, 2 of which are cyclic.
	if len(exts) != 6 {
		t.Fatalf("acyclic total orientations of a triangle = %d, want 6", len(exts))
	}
	for _, q := range exts {
		if !q.IsTotal() || !q.Extends(p) {
			t.Fatal("extension not total or not an extension")
		}
		assertAcyclic(t, q)
	}
	// With 0 budget it errors.
	if _, err := AllTotalExtensions(p, 2); err == nil {
		t.Fatal("limit should be enforced")
	}
	// Extending an already partially oriented triangle.
	p.MustAdd(0, 1)
	exts, err = AllTotalExtensions(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(exts) != 3 {
		t.Fatalf("extensions of one oriented edge on a triangle = %d, want 3", len(exts))
	}
}

func TestExtendableToCyclic(t *testing.T) {
	// A path can never orient into a cycle.
	gp := path5(t)
	if ExtendableToCyclic(New(gp)) {
		t.Fatal("a tree-shaped conflict graph cannot have a cyclic orientation")
	}
	// An unoriented triangle can.
	gt := triangle(t)
	if !ExtendableToCyclic(New(gt)) {
		t.Fatal("an unoriented triangle extends to a cyclic orientation")
	}
	// a ≻ b, a ≻ c pins the triangle acyclic: any cycle would need to
	// enter a, but both a-edges point away from... b->c or c->b plus
	// a->b, a->c: cycles need an edge into a; none can exist.
	p := New(gt)
	p.MustAdd(0, 1)
	p.MustAdd(0, 2)
	if ExtendableToCyclic(p) {
		t.Fatal("dominating vertex pins the triangle acyclic")
	}
	// a ≻ b and c unconstrained: b->c and c->a would... c->a is the
	// free edge {0,2}: orientation 2≻0 plus 1≻2 gives 0≻1≻2≻0: cyclic.
	q := New(gt)
	q.MustAdd(0, 1)
	if !ExtendableToCyclic(q) {
		t.Fatal("single oriented edge on a triangle still extends to a cycle")
	}
}

func TestExtendableToCyclicAgreesWithBruteForce(t *testing.T) {
	// Cross-check the mixed-graph search against enumerating all total
	// orientations (including cyclic ones) on small random graphs.
	rng := rand.New(rand.NewSource(11))
	s := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"))
	for iter := 0; iter < 40; iter++ {
		inst := relation.NewInstance(s)
		for i := 0; i < 6; i++ {
			inst.MustInsert(rng.Intn(3), rng.Intn(3))
		}
		g := conflict.MustBuild(inst, fd.MustParseSet(s, "A -> B"))
		p := Random(g, 0.3, rng)

		want := bruteForceCyclicExtendable(p)
		if got := ExtendableToCyclic(p); got != want {
			t.Fatalf("ExtendableToCyclic = %v, brute force = %v for %v on %s",
				got, want, p, g.ASCII())
		}
	}
}

// bruteForceCyclicExtendable tries all 2^k orientations of the
// unoriented edges and reports whether any completed orientation has a
// directed cycle.
func bruteForceCyclicExtendable(p *Priority) bool {
	g := p.Graph()
	var free [][2]int
	for _, e := range g.Edges() {
		if !p.Oriented(e.A, e.B) {
			free = append(free, [2]int{e.A, e.B})
		}
	}
	n := g.Len()
	for mask := 0; mask < 1<<uint(len(free)); mask++ {
		succ := make([][]int, n)
		for x := 0; x < n; x++ {
			for _, y := range p.Dominated(x) {
				succ[x] = append(succ[x], int(y))
			}
		}
		for i, e := range free {
			if mask&(1<<uint(i)) != 0 {
				succ[e[0]] = append(succ[e[0]], e[1])
			} else {
				succ[e[1]] = append(succ[e[1]], e[0])
			}
		}
		if hasCycle(succ) {
			return true
		}
	}
	return false
}

func hasCycle(succ [][]int) bool {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]int, len(succ))
	var visit func(v int) bool
	visit = func(v int) bool {
		color[v] = grey
		for _, w := range succ[v] {
			if color[w] == grey {
				return true
			}
			if color[w] == white && visit(w) {
				return true
			}
		}
		color[v] = black
		return false
	}
	for v := range succ {
		if color[v] == white && visit(v) {
			return true
		}
	}
	return false
}

func TestEdgesAndString(t *testing.T) {
	g := triangle(t)
	p := New(g)
	p.MustAdd(1, 0)
	p.MustAdd(1, 2)
	edges := p.Edges()
	if len(edges) != 2 || edges[0] != [2]relation.TupleID{1, 0} || edges[1] != [2]relation.TupleID{1, 2} {
		t.Fatalf("Edges = %v", edges)
	}
	if got := p.String(); got != "{t1 > t0, t1 > t2}" {
		t.Fatalf("String = %q", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := triangle(t)
	p := New(g)
	p.MustAdd(0, 1)
	q := p.Clone()
	q.MustAdd(1, 2)
	if p.Dominates(1, 2) {
		t.Fatal("Clone should be independent")
	}
	if p.Len() != 1 || q.Len() != 2 {
		t.Fatalf("Len after clone: p=%d q=%d", p.Len(), q.Len())
	}
}

// Len returns the number of oriented conflict edges.
func (p *Priority) Len() int { return p.n }
