package conflict

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"prefcqa/internal/fd"
	"prefcqa/internal/relation"
)

// checkGraphsEquivalent asserts that the incrementally maintained
// graph g matches the freshly built reference h in every observable:
// universe, liveness, adjacency, edges, and the component index.
func checkGraphsEquivalent(t *testing.T, step int, g, h *Graph) {
	t.Helper()
	if g.Len() != h.Len() {
		t.Fatalf("step %d: Len %d != %d", step, g.Len(), h.Len())
	}
	if g.NumEdges() != h.NumEdges() {
		t.Fatalf("step %d: NumEdges %d != %d", step, g.NumEdges(), h.NumEdges())
	}
	ge, he := g.Edges(), h.Edges()
	if len(ge) != len(he) {
		t.Fatalf("step %d: edge lists %d != %d", step, len(ge), len(he))
	}
	for i := range ge {
		if ge[i] != he[i] {
			t.Fatalf("step %d: edge %d: %+v != %+v", step, i, ge[i], he[i])
		}
	}
	for v := 0; v < g.Len(); v++ {
		if g.Live(v) != h.Live(v) {
			t.Fatalf("step %d: Live(%d) %v != %v", step, v, g.Live(v), h.Live(v))
		}
		gn, hn := g.Neighbors(v), h.Neighbors(v)
		if len(gn) != len(hn) {
			t.Fatalf("step %d: degree(%d) %d != %d", step, v, len(gn), len(hn))
		}
		for i := range gn {
			if gn[i] != hn[i] {
				t.Fatalf("step %d: neighbors(%d) %v != %v", step, v, gn, hn)
			}
		}
	}
	gc, hc := g.Components(), h.Components()
	if len(gc) != len(hc) {
		t.Fatalf("step %d: %d components != %d", step, len(gc), len(hc))
	}
	if g.NumComponents() != len(gc) {
		t.Fatalf("step %d: NumComponents %d, but %d listed", step, g.NumComponents(), len(gc))
	}
	for i := range gc {
		if len(gc[i]) != len(hc[i]) {
			t.Fatalf("step %d: component %d size %d != %d\n%v\n%v", step, i, len(gc[i]), len(hc[i]), gc, hc)
		}
		for j := range gc[i] {
			if gc[i][j] != hc[i][j] {
				t.Fatalf("step %d: component %d: %v != %v", step, i, gc[i], hc[i])
			}
		}
		if g.ComponentSignature(gc[i]) != h.ComponentSignature(hc[i]) {
			t.Fatalf("step %d: component %d signature mismatch", step, i)
		}
	}
	// Per-vertex component index: IDs may differ between the two
	// graphs, but membership and local position must agree.
	for v := 0; v < g.Len(); v++ {
		if !g.Live(v) {
			if g.ComponentOf(v) != -1 {
				t.Fatalf("step %d: dead vertex %d has component %d", step, v, g.ComponentOf(v))
			}
			continue
		}
		gm := g.Component(g.ComponentOf(v))
		hm := h.Component(h.ComponentOf(v))
		if fmt.Sprint(gm) != fmt.Sprint(hm) {
			t.Fatalf("step %d: Component(ComponentOf(%d)) %v != %v", step, v, gm, hm)
		}
		if g.LocalIndexOf(v) != h.LocalIndexOf(v) {
			t.Fatalf("step %d: LocalIndexOf(%d) %d != %d", step, v, g.LocalIndexOf(v), h.LocalIndexOf(v))
		}
	}
}

// TestApplyDeltaMatchesRebuild drives random insert/delete streams
// through ApplyDelta and checks after every batch that the maintained
// graph is indistinguishable from a fresh Build of the mutated
// instance — including through compactions.
func TestApplyDeltaMatchesRebuild(t *testing.T) {
	schema := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"))
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inst := relation.NewInstance(schema)
		fds := fd.MustParseSet(schema, "A -> B")
		for i := 0; i < 12; i++ {
			inst.MustInsert(rng.Intn(6), rng.Intn(4))
		}
		g := MustBuild(inst, fds)
		for step := 0; step < 60; step++ {
			prev := inst
			inst = inst.Fork()
			var d Delta
			batch := 1 + rng.Intn(3)
			for b := 0; b < batch; b++ {
				if rng.Intn(3) == 0 && inst.Len() > 0 {
					// Delete a random live tuple.
					live := inst.AllIDs().Slice()
					v := live[rng.Intn(len(live))]
					inst.Delete(v)
					d.Deletes = append(d.Deletes, v)
				} else {
					before := inst.NumIDs()
					id, _ := inst.InsertValues(rng.Intn(6), rng.Intn(4))
					if inst.NumIDs() > before {
						d.Inserts = append(d.Inserts, id)
					}
				}
			}
			_ = prev
			ng, rep, err := g.ApplyDelta(inst, d)
			if err != nil {
				t.Fatalf("seed %d step %d: ApplyDelta: %v", seed, step, err)
			}
			if len(d.Inserts)+len(d.Deletes) > 0 && len(rep.Retired)+len(rep.Fresh) == 0 {
				t.Fatalf("seed %d step %d: non-empty delta retired/created no components", seed, step)
			}
			g = ng
			h := MustBuild(inst, fds)
			checkGraphsEquivalent(t, step, g, h)
		}
	}
}

// TestApplyDeltaInsertThenDeleteSameBatch exercises the documented
// in-batch insert+delete protocol: the ID appears in both lists,
// inserts first.
func TestApplyDeltaInsertThenDeleteSameBatch(t *testing.T) {
	schema := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"))
	inst := relation.NewInstance(schema)
	fds := fd.MustParseSet(schema, "A -> B")
	inst.MustInsert(1, 0)
	inst.MustInsert(1, 1)
	g := MustBuild(inst, fds)

	inst = inst.Fork()
	id := inst.MustInsert(1, 2) // conflicts both existing tuples
	inst.Delete(id)
	ng, _, err := g.ApplyDelta(inst, Delta{Inserts: []int{id}, Deletes: []int{id}})
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	checkGraphsEquivalent(t, 0, ng, MustBuild(inst, fds))
	if ng.Live(id) {
		t.Fatalf("tuple %d should be dead", id)
	}
}

// TestApplyDeltaBatchInOneGroup puts three inserts of one batch in one
// LHS group, two of them in conflict with a tuple already there, and
// deletes one of the new tuples and that old partner in the same
// batch. A partner is only a tuple the graph already holds: reading the
// whole group instead (the batch's later inserts, its deleted tuples)
// wires an edge twice and miscounts.
func TestApplyDeltaBatchInOneGroup(t *testing.T) {
	schema := relation.MustSchema("R", relation.IntAttr("K"), relation.NameAttr("V"), relation.IntAttr("W"))
	fds := fd.MustParseSet(schema, "K -> V")
	inst := relation.NewInstance(schema)
	e := inst.MustInsert(1, "a", 0)
	inst.MustInsert(2, "a", 0)
	g := MustBuild(inst, fds)

	inst = inst.Fork()
	x := inst.MustInsert(1, "b", 0) // conflicts with e
	y := inst.MustInsert(1, "c", 0) // conflicts with e and x
	z := inst.MustInsert(1, "a", 1) // agrees with e; conflicts with x and y
	inst.Delete(y)
	inst.Delete(e)
	ng, rep, err := g.ApplyDelta(inst, Delta{Inserts: []int{x, y, z}, Deletes: []int{y, e}})
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	checkGraphsEquivalent(t, 0, ng, MustBuild(inst, fds))
	if rep.AddedEdges != 5 || rep.RemovedEdges != 4 {
		t.Fatalf("report: %d edges added, %d removed; want 5 and 4", rep.AddedEdges, rep.RemovedEdges)
	}
	if want := []Edge{{A: x, B: z}}; fmt.Sprint(ng.Edges()) != fmt.Sprint(want) || ng.NumEdges() != 1 {
		t.Fatalf("edges %v (NumEdges %d), want %v", ng.Edges(), ng.NumEdges(), want)
	}
}

// TestFirstApplyDeltaRetained is the gate on what the first delta
// applied to a built graph of 100 000 two-tuple clusters keeps: the
// partner search reads the instance's LHS partition, which the build
// already made, so the delta keeps its own overlay and nothing per
// tuple. A partner index of its own per graph chain kept 8.29 MB here.
func TestFirstApplyDeltaRetained(t *testing.T) {
	inst, fds := pairsInstance(100000)
	g := MustBuild(inst, fds)
	g.NumComponents()
	inst = inst.Fork()
	id := inst.MustInsert(7, 2)
	var ng *Graph
	var err error
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ng, _, err = g.ApplyDelta(inst, Delta{Inserts: []int{id}})
	runtime.GC()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if c := ng.Component(ng.ComponentOf(id)); len(c) != 3 {
		t.Fatalf("component of the insert = %v, want three tuples", c)
	}
	retained := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20)
	t.Logf("first ApplyDelta at %d tuples retains %.2f MB", inst.NumIDs(), retained)
	if retained > 1 {
		t.Fatalf("first ApplyDelta retains %.2f MB, limit 1 MB", retained)
	}
	runtime.KeepAlive(g)
	runtime.KeepAlive(ng)
}

// TestTouchRetiresComponent checks that Touch retires a component ID
// and re-registers the same members under a fresh one.
func TestTouchRetiresComponent(t *testing.T) {
	schema := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"))
	inst := relation.NewInstance(schema)
	fds := fd.MustParseSet(schema, "A -> B")
	a := inst.MustInsert(1, 0)
	inst.MustInsert(1, 1)
	g := MustBuild(inst, fds)

	// Work on a writable fork, as the facade does.
	inst2 := inst.Fork()
	g2, _, err := g.ApplyDelta(inst2, Delta{})
	if err != nil {
		t.Fatal(err)
	}
	before := g2.ComponentOf(a)
	old, fresh := g2.Touch(a)
	if int(old) != before || old == fresh {
		t.Fatalf("Touch = (%d, %d), want old %d and a fresh ID", old, fresh, before)
	}
	if got := g2.ComponentOf(a); got != int(fresh) {
		t.Fatalf("ComponentOf after Touch = %d, want %d", got, fresh)
	}
	if fmt.Sprint(g2.Component(int(fresh))) != fmt.Sprint(g.Component(before)) {
		t.Fatalf("Touch changed membership: %v != %v", g2.Component(int(fresh)), g.Component(before))
	}
	if g2.Component(int(old)) != nil {
		t.Fatalf("retired component %d still resolves", old)
	}
	// The parent version is untouched.
	if g.ComponentOf(a) != before {
		t.Fatalf("Touch leaked into the parent version")
	}
}

// TestApplyDeltaVersionIsolation verifies the copy-on-write contract:
// the parent graph answers from its own version after the child is
// patched — one generation apart first, then at depth: versions pinned
// along a 6 000-mutation stream (inserts, conflicting inserts, deletes,
// re-inserts of deleted tuples, across many compactions) share their
// overlay with every version derived after them, and each must still
// equal a fresh Build of its own instance when the stream is over.
func TestApplyDeltaVersionIsolation(t *testing.T) {
	schema := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"))
	inst := relation.NewInstance(schema)
	fds := fd.MustParseSet(schema, "A -> B")
	a := inst.MustInsert(1, 0)
	b := inst.MustInsert(1, 1)
	g := MustBuild(inst, fds)
	if !g.Adjacent(a, b) {
		t.Fatal("setup: a and b must conflict")
	}

	inst2 := inst.Fork()
	inst2.Delete(b)
	c := inst2.MustInsert(1, 2)
	g2, _, err := g.ApplyDelta(inst2, Delta{Inserts: []int{c}, Deletes: []int{b}})
	if err != nil {
		t.Fatal(err)
	}
	// New version: b gone, c conflicts a.
	if g2.Live(b) || !g2.Adjacent(a, c) || g2.Adjacent(a, b) {
		t.Fatalf("child version wrong: Live(b)=%v Adjacent(a,c)=%v", g2.Live(b), g2.Adjacent(a, c))
	}
	// Old version: exactly as before.
	if !g.Live(b) || !g.Adjacent(a, b) || g.Adjacent(a, c) {
		t.Fatalf("parent version mutated: Live(b)=%v Adjacent(a,b)=%v Adjacent(a,c)=%v",
			g.Live(b), g.Adjacent(a, b), g.Adjacent(a, c))
	}
	if len(g.Components()) != 1 || len(g.Components()[0]) != 2 {
		t.Fatalf("parent components changed: %v", g.Components())
	}

	type pin struct {
		g    *Graph
		inst *relation.Instance
	}
	var pins []pin
	rng := rand.New(rand.NewSource(19))
	g, inst = g2, inst2
	compactions := 0
	for step := 0; step < 6000; step++ {
		inst = inst.Fork()
		var d Delta
		if live := inst.AllIDs().Slice(); rng.Intn(5) < 2 && len(live) > 40 {
			v := live[rng.Intn(len(live))]
			inst.Delete(v)
			d.Deletes = append(d.Deletes, v)
		} else {
			// 150 keys of up to 4 values: most inserts conflict, and a
			// deleted tuple comes back under a fresh ID sooner or later.
			before := inst.NumIDs()
			if id, _ := inst.InsertValues(rng.Intn(150), rng.Intn(4)); inst.NumIDs() > before {
				d.Inserts = append(d.Inserts, id)
			}
		}
		ng, rep, err := g.ApplyDelta(inst, d)
		if err != nil {
			t.Fatalf("step %d: ApplyDelta: %v", step, err)
		}
		if rep.Compacted {
			compactions++
		}
		g = ng
		if step%97 == 0 {
			pins = append(pins, pin{g, inst})
		}
	}
	if compactions < 2 {
		t.Fatalf("%d compactions in 6000 mutations, want at least 2", compactions)
	}
	for _, p := range pins {
		checkGraphsEquivalent(t, p.g.Len(), p.g, MustBuild(p.inst, fds))
	}
}

// TestCompactionPreservesState forces compaction through a long
// mutation stream on a small instance and confirms equivalence and a
// fresh era afterwards.
func TestCompactionPreservesState(t *testing.T) {
	schema := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"))
	rng := rand.New(rand.NewSource(7))
	inst := relation.NewInstance(schema)
	fds := fd.MustParseSet(schema, "A -> B")
	for i := 0; i < 8; i++ {
		inst.MustInsert(rng.Intn(4), rng.Intn(3))
	}
	g := MustBuild(inst, fds)
	firstEra := g.Era()
	compacted := false
	for step := 0; step < 400; step++ {
		inst = inst.Fork()
		var d Delta
		if rng.Intn(2) == 0 && inst.Len() > 4 {
			live := inst.AllIDs().Slice()
			v := live[rng.Intn(len(live))]
			inst.Delete(v)
			d.Deletes = append(d.Deletes, v)
		} else {
			before := inst.NumIDs()
			id, _ := inst.InsertValues(rng.Intn(4), rng.Intn(3))
			if inst.NumIDs() > before {
				d.Inserts = append(d.Inserts, id)
			}
		}
		ng, rep, err := g.ApplyDelta(inst, d)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		g = ng
		if rep.Compacted {
			compacted = true
		}
	}
	if !compacted {
		t.Fatal("400 mutations never triggered compaction")
	}
	if g.Era() == firstEra {
		t.Fatal("compaction did not advance the era")
	}
	checkGraphsEquivalent(t, 400, g, MustBuild(inst, fds))
}

// violationEdges is the reference for Graph.Edges: the pairs of
// fd.Set.Violations, each labelled with the first dependency it
// violates.
func violationEdges(inst *relation.Instance, fds *fd.Set) []Edge {
	var out []Edge
	for _, v := range fds.Violations(inst) {
		if k := len(out); k > 0 && out[k-1].A == v.T1 && out[k-1].B == v.T2 {
			continue // the pair under a later dependency
		}
		out = append(out, Edge{A: v.T1, B: v.T2, FD: v.FD})
	}
	return out
}

// TestEdgesMatchViolations holds Edges, read off the CSR rows and the
// overlay, to the violation list over random instances under one to
// three dependencies that overlap, through delta histories that cross
// compactions.
func TestEdgesMatchViolations(t *testing.T) {
	schema := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"), relation.IntAttr("C"))
	specs := []string{"A -> B", "A -> C", "A,B -> C", "C -> A", "B -> A,C"}
	compactions := 0
	for seed := int64(0); seed < 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var picked []string
		for _, i := range rng.Perm(len(specs))[:1+rng.Intn(3)] {
			picked = append(picked, specs[i])
		}
		fds := fd.MustParseSet(schema, picked...)
		inst := relation.NewInstance(schema)
		for i := 0; i < 10; i++ {
			inst.MustInsert(rng.Intn(3), rng.Intn(3), rng.Intn(3))
		}
		g := MustBuild(inst, fds)
		for step := 0; step < 150; step++ {
			if got, want := g.Edges(), violationEdges(inst, fds); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d step %d (%v): Edges = %v, want %v", seed, step, picked, got, want)
			}
			inst = inst.Fork()
			var d Delta
			if rng.Intn(2) == 0 && inst.Len() > 3 {
				live := inst.AllIDs().Slice()
				v := live[rng.Intn(len(live))]
				inst.Delete(v)
				d.Deletes = append(d.Deletes, v)
			} else if id, fresh, _ := inst.Insert(relation.Tuple{
				relation.Int(int64(rng.Intn(3))), relation.Int(int64(rng.Intn(3))), relation.Int(int64(rng.Intn(3))),
			}); fresh {
				d.Inserts = append(d.Inserts, id)
			}
			ng, rep, err := g.ApplyDelta(inst, d)
			if err != nil {
				t.Fatalf("seed %d step %d: ApplyDelta: %v", seed, step, err)
			}
			if rep.Compacted {
				compactions++
			}
			g = ng
		}
	}
	if compactions == 0 {
		t.Fatal("no delta history crossed a compaction")
	}
}
