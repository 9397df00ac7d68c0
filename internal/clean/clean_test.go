package clean

import (
	"math/rand"
	"testing"

	"prefcqa/internal/bitset"
	"prefcqa/internal/conflict"
	"prefcqa/internal/fd"
	"prefcqa/internal/priority"
	"prefcqa/internal/relation"
)

// AllOutcomes returns every distinct result of Algorithm 1 over all
// choice sequences — by Proposition 7 this is exactly C-Rep — as the
// product of every component's LocalOutcomes, lifted to TupleIDs.
func AllOutcomes(p *priority.Priority) []*bitset.Set {
	g := p.Graph()
	out := []*bitset.Set{bitset.New(g.Len())}
	for _, comp := range g.Components() {
		l := g.Project(comp)
		local := LocalOutcomes(p.Localize(l))
		var next []*bitset.Set
		for _, prefix := range out {
			for _, s := range local {
				o := prefix.Clone()
				s.Range(func(j int) bool {
					o.Add(l.Global(j))
					return true
				})
				next = append(next, o)
			}
		}
		out = next
	}
	return out
}

func triangleGraph(t *testing.T) *conflict.Graph {
	t.Helper()
	s := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"))
	inst := relation.NewInstance(s)
	inst.MustInsert(1, 1)
	inst.MustInsert(1, 2)
	inst.MustInsert(1, 3)
	return conflict.MustBuild(inst, fd.MustParseSet(s, "A -> B"))
}

func example9Priority(t *testing.T) *priority.Priority {
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
	g := conflict.MustBuild(inst, fd.MustParseSet(s, "A -> B", "C -> D"))
	p := priority.New(g)
	p.MustAdd(0, 1) // ta ≻ tb
	p.MustAdd(1, 2) // tb ≻ tc
	p.MustAdd(2, 3) // tc ≻ td
	p.MustAdd(3, 4) // td ≻ te
	return p
}

func TestCleanProducesRepair(t *testing.T) {
	p := example9Priority(t)
	out := Deterministic(p)
	if !p.Graph().IsMaximalIndependent(out) {
		t.Fatalf("Clean output %v is not a repair", out)
	}
	// Example 9 + §3.5: Algorithm 1 yields r1 = {ta, tc, te}.
	if !out.Equal(bitset.FromSlice([]int{0, 2, 4})) {
		t.Fatalf("Clean = %v, want {0 2 4}", out)
	}
}

func TestProposition1TotalPriorityUnique(t *testing.T) {
	// For a total priority Algorithm 1 computes a unique repair for
	// ANY sequence of choices: AllOutcomes explores every sequence.
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 40; iter++ {
		g := randomGraph(rng)
		total := priority.Random(g, 1, rng)
		if !total.IsTotal() {
			t.Fatal("Random(1) should be total")
		}
		want := Deterministic(total)
		outs := AllOutcomes(total)
		if len(outs) != 1 || !outs[0].Equal(want) {
			t.Fatalf("AllOutcomes of total priority = %v, want exactly {%v}", outs, want)
		}
	}
}

func randomGraph(rng *rand.Rand) *conflict.Graph {
	s := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"), relation.IntAttr("C"))
	inst := relation.NewInstance(s)
	n := 4 + rng.Intn(6)
	for i := 0; i < n; i++ {
		inst.MustInsert(rng.Intn(3), rng.Intn(3), rng.Intn(2))
	}
	return conflict.MustBuild(inst, fd.MustParseSet(s, "A -> B", "B -> C"))
}

func TestCleanEmptyPriorityYieldsAllRepairs(t *testing.T) {
	// With no priorities the winnow keeps everything, so the outcomes
	// over all choice orders are exactly all repairs (C-Rep satisfies
	// P3 here).
	g := triangleGraph(t)
	p := priority.New(g)
	outs := AllOutcomes(p)
	if len(outs) != 3 {
		t.Fatalf("outcomes = %d, want 3 (all repairs of a triangle)", len(outs))
	}
	for _, o := range outs {
		if !g.IsMaximalIndependent(o) {
			t.Fatalf("outcome %v is not a repair", o)
		}
	}
}

func TestAllOutcomesMatchesChoiceBruteForce(t *testing.T) {
	// AllOutcomes must agree with simulating every choice sequence
	// explicitly (no memoization, factorial search) on small inputs.
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 30; iter++ {
		g := randomGraph(rng)
		p := priority.Random(g, 0.5, rng)

		got := map[string]bool{}
		for _, o := range AllOutcomes(p) {
			got[o.Key()] = true
		}
		want := map[string]bool{}
		var rec func(rest, acc *bitset.Set)
		rec = func(rest, acc *bitset.Set) {
			if rest.Empty() {
				want[acc.Key()] = true
				return
			}
			p.Winnow(rest).Range(func(x int) bool {
				nrest := rest.Clone()
				nrest.Remove(x)
				for _, u := range g.Neighbors(x) {
					nrest.Remove(int(u))
				}
				nacc := acc.Clone()
				nacc.Add(x)
				rec(nrest, nacc)
				return true
			})
		}
		rec(bitset.Full(g.Len()), bitset.New(g.Len()))

		if len(got) != len(want) {
			t.Fatalf("iter %d: AllOutcomes = %d, brute force = %d", iter, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("iter %d: missing outcome", iter)
			}
		}
	}
}

func TestNaiveCleaningLosesInformation(t *testing.T) {
	// Example 3's scenario: cleaning with partial information leaves
	// unresolved conflicts; the naive cleaner drops both sides.
	p := example9Priority(t)
	// Restrict to priorities on the first edge only.
	g := p.Graph()
	q := priority.New(g)
	q.MustAdd(0, 1) // ta ≻ tb only
	out := Naive(q)
	// ta survives (its only conflict is resolved in its favor); tb,
	// tc, td, te all participate in unresolved conflicts.
	if !out.Equal(bitset.FromSlice([]int{0})) {
		t.Fatalf("Naive = %v, want {0}", out)
	}
	if g.IsMaximalIndependent(out) {
		t.Fatal("naive cleaning should NOT be maximal here (information loss)")
	}
	if !g.IsIndependent(out) {
		t.Fatal("naive cleaning must still be consistent")
	}
}

func TestNaiveWithTotalPriorityStillConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for iter := 0; iter < 20; iter++ {
		g := randomGraph(rng)
		p := priority.Random(g, 1, rng)
		out := Naive(p)
		if !g.IsIndependent(out) {
			t.Fatal("naive output must be consistent")
		}
		// With a total priority, naive keeps exactly the tuples that
		// dominate all their neighbors — a subset of the Algorithm 1
		// result? Not in general; but consistency is the contract.
	}
}

func TestCleanOutcomesAreRepairs(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for iter := 0; iter < 30; iter++ {
		g := randomGraph(rng)
		p := priority.Random(g, 0.4, rng)
		for _, o := range AllOutcomes(p) {
			if !g.IsMaximalIndependent(o) {
				t.Fatalf("outcome %v is not a repair", o)
			}
		}
	}
}

func TestDeterministicStable(t *testing.T) {
	p := example9Priority(t)
	a := Deterministic(p)
	b := Deterministic(p)
	if !a.Equal(b) {
		t.Fatal("Deterministic should be reproducible")
	}
}
