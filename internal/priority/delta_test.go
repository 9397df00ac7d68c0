package priority

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"prefcqa/internal/conflict"
	"prefcqa/internal/fd"
	"prefcqa/internal/relation"
)

// prioritiesEqual compares two priorities edge-for-edge.
func prioritiesEqual(p, q *Priority) bool {
	if p.Len() != q.Len() {
		return false
	}
	return fmt.Sprint(p.Edges()) == fmt.Sprint(q.Edges())
}

// TestDeltaMatchesRegeneration drives random interleavings of tuple
// inserts/deletes and preference additions through the incremental
// path (Rebase + DropVertex + Add) and checks after every step that
// the result matches priority.FromRelation regenerated on a freshly
// built graph.
func TestDeltaMatchesRegeneration(t *testing.T) {
	schema := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"))
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inst := relation.NewInstance(schema)
		fds := fd.MustParseSet(schema, "A -> B")
		for i := 0; i < 10; i++ {
			inst.MustInsert(rng.Intn(4), rng.Intn(4))
		}
		g := conflict.MustBuild(inst, fds)
		p := New(g)
		var pairs [][2]relation.TupleID // accepted preference history

		for step := 0; step < 50; step++ {
			switch rng.Intn(4) {
			case 0: // insert
				inst = inst.Fork()
				before := inst.NumIDs()
				id, _ := inst.InsertValues(rng.Intn(4), rng.Intn(4))
				var d conflict.Delta
				if inst.NumIDs() > before {
					d.Inserts = append(d.Inserts, id)
				}
				ng, _, err := g.ApplyDelta(inst, d)
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				g, p = ng, p.Rebase(ng)
			case 1: // delete
				if inst.Len() == 0 {
					continue
				}
				live := inst.AllIDs().Slice()
				v := live[rng.Intn(len(live))]
				inst = inst.Fork()
				inst.Delete(v)
				ng, _, err := g.ApplyDelta(inst, conflict.Delta{Deletes: []int{v}})
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				g, p = ng, p.Rebase(ng)
				p.DropVertex(v)
				// Drop the historical pairs touching v so regeneration
				// sees the same inputs the incremental path keeps.
				kept := pairs[:0]
				for _, pr := range pairs {
					if pr[0] != v && pr[1] != v {
						kept = append(kept, pr)
					}
				}
				pairs = kept
			default: // prefer a random conflicting pair
				es := g.Edges()
				if len(es) == 0 {
					continue
				}
				e := es[rng.Intn(len(es))]
				x, y := e.A, e.B
				if rng.Intn(2) == 0 {
					x, y = y, x
				}
				if p.Oriented(x, y) {
					continue
				}
				q := p.Rebase(g) // apply on a fork, as the facade does
				if err := q.Add(x, y); err != nil {
					continue // would create a cycle: rejected on both paths
				}
				p = q
				pairs = append(pairs, [2]relation.TupleID{x, y})
			}
			// Reference: regenerate from scratch on a fresh graph.
			h := conflict.MustBuild(inst, fds)
			ref, err := FromRelation(h, pairs)
			if err != nil {
				t.Fatalf("seed %d step %d: FromRelation: %v", seed, step, err)
			}
			if !prioritiesEqual(p, ref) {
				t.Fatalf("seed %d step %d: incremental %v != regenerated %v", seed, step, p.Edges(), ref.Edges())
			}
			// Winnow over the live set must agree too (exercises preds
			// through the overlay).
			if got, want := p.Winnow(g.LiveSet()).String(), ref.Winnow(h.LiveSet()).String(); got != want {
				t.Fatalf("seed %d step %d: winnow %s != %s", seed, step, got, want)
			}
		}
	}
}

// TestRebaseIsolation checks that Add/DropVertex on a rebased child
// leave the parent untouched — one generation apart first, then at
// depth: priorities pinned along a 6 000-mutation stream (inserts,
// deletes, re-inserts, preferences; across flattens and compactions)
// share their overlay with every version rebased after them, and each
// must still equal a regeneration from its own instance and its own
// preference history when the stream is over.
func TestRebaseIsolation(t *testing.T) {
	schema := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"))
	inst := relation.NewInstance(schema)
	fds := fd.MustParseSet(schema, "A -> B")
	a := inst.MustInsert(1, 0)
	b := inst.MustInsert(1, 1)
	c := inst.MustInsert(1, 2)
	g := conflict.MustBuild(inst, fds)
	p := New(g)
	p.MustAdd(a, b)

	q := p.Rebase(g)
	q.MustAdd(b, c)
	q.DropVertex(a)

	if p.Len() != 1 || !p.Dominates(a, b) || p.Dominates(b, c) {
		t.Fatalf("parent mutated: %v", p.Edges())
	}
	if q.Len() != 1 || q.Dominates(a, b) || !q.Dominates(b, c) {
		t.Fatalf("child wrong: %v", q.Edges())
	}

	type pin struct {
		p     *Priority
		inst  *relation.Instance
		pairs [][2]relation.TupleID
	}
	var pins []pin
	// The accepted preferences between live tuples. Pins keep the slice
	// they saw: it is only ever replaced, never written in place.
	var pairs [][2]relation.TupleID
	rng := rand.New(rand.NewSource(19))
	p = New(g)
	flattens, compactions := 0, 0
	apply := func(d conflict.Delta) {
		ng, rep, err := g.ApplyDelta(inst, d)
		if err != nil {
			t.Fatalf("ApplyDelta(%+v): %v", d, err)
		}
		if rep.Compacted {
			compactions++
		}
		prev := p
		g, p = ng, p.Rebase(ng)
		if unsafe.SliceData(p.succOff) != unsafe.SliceData(prev.succOff) {
			flattens++ // laid out afresh rather than sharing the base
		}
	}
	for step := 0; step < 6000; step++ {
		switch live, k := inst.AllIDs().Slice(), rng.Intn(10); {
		case k < 3 && len(live) > 40: // delete
			v := live[rng.Intn(len(live))]
			inst = inst.Fork()
			inst.Delete(v)
			apply(conflict.Delta{Deletes: []int{v}})
			p.DropVertex(v)
			kept := make([][2]relation.TupleID, 0, len(pairs))
			for _, pr := range pairs {
				if pr[0] != v && pr[1] != v {
					kept = append(kept, pr)
				}
			}
			pairs = kept
		case k < 6 && g.NumEdges() > 0: // prefer
			es := g.Edges()
			e := es[rng.Intn(len(es))]
			x, y := e.A, e.B
			if rng.Intn(2) == 0 {
				x, y = y, x
			}
			q := p.Rebase(g) // apply on a fork, as the facade does
			if q.Oriented(x, y) || q.Add(x, y) != nil {
				continue // oriented already, or a cycle: rejected on both paths
			}
			p = q
			pairs = append(pairs[:len(pairs):len(pairs)], [2]relation.TupleID{x, y})
		default:
			// Insert: 150 keys of up to 4 values, so most inserts conflict
			// and a deleted tuple comes back under a fresh ID.
			inst = inst.Fork()
			var d conflict.Delta
			before := inst.NumIDs()
			if id, _ := inst.InsertValues(rng.Intn(150), rng.Intn(4)); inst.NumIDs() > before {
				d.Inserts = []int{id}
			}
			apply(d)
		}
		if step%97 == 0 {
			pins = append(pins, pin{p, inst, pairs})
		}
	}
	if flattens < 1 || compactions < 2 {
		t.Fatalf("%d flattens and %d compactions in 6000 mutations, want at least 1 and 2", flattens, compactions)
	}
	for i, pn := range pins {
		ref, err := FromRelation(conflict.MustBuild(pn.inst, fds), pn.pairs)
		if err != nil {
			t.Fatalf("pin %d: FromRelation: %v", i, err)
		}
		if !prioritiesEqual(pn.p, ref) {
			t.Fatalf("pin %d: pinned priority %v != regenerated %v", i, pn.p.Edges(), ref.Edges())
		}
	}
}

// TestRebasedCycleDetection makes sure the component-bounded cycle
// check still works through the overlay rows.
func TestRebasedCycleDetection(t *testing.T) {
	sc := chain3(t)
	p := sc.p.Rebase(sc.g)
	p.MustAdd(0, 1)
	p = p.Rebase(sc.g)
	p.MustAdd(1, 2)
	p = p.Rebase(sc.g)
	if err := p.Add(2, 0); err == nil {
		t.Fatal("cycle 0>1>2>0 not detected through overlay rows")
	}
}

type chainScenario struct {
	g *conflict.Graph
	p *Priority
}

// chain3 builds a 3-cycle-capable conflict triangle (one key group,
// three values).
func chain3(t *testing.T) chainScenario {
	t.Helper()
	schema := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"))
	inst := relation.NewInstance(schema)
	fds := fd.MustParseSet(schema, "A -> B")
	inst.MustInsert(1, 0)
	inst.MustInsert(1, 1)
	inst.MustInsert(1, 2)
	g := conflict.MustBuild(inst, fds)
	return chainScenario{g: g, p: New(g)}
}
