package repair

import (
	"testing"

	"prefcqa/internal/bitset"
	"prefcqa/internal/conflict"
	"prefcqa/internal/fd"
	"prefcqa/internal/relation"
)

// chainGraph builds a conflict path of n tuples (Chain workload shape,
// Fibonacci-many maximal independent sets).
func chainGraph(n int) *conflict.Graph {
	s := relation.MustSchema("R",
		relation.IntAttr("A"), relation.IntAttr("B"),
		relation.IntAttr("C"), relation.IntAttr("D"))
	inst := relation.NewInstance(s)
	for i := 0; i < n; i++ {
		inst.MustInsert((i+1)/2, i%2, i/2+1000, (i+1)%2)
	}
	return conflict.MustBuild(inst, fd.MustParseSet(s, "A -> B", "C -> D"))
}

// TestEnumerateLocalMatchesBruteForce checks the local enumeration
// against an independent ground truth: all maximal independent sets
// found by exhaustive subset enumeration. (EnumerateComponent is a
// wrapper over EnumerateLocal, so comparing the two would be
// circular.)
func TestEnumerateLocalMatchesBruteForce(t *testing.T) {
	g := chainGraph(9)
	comp := g.Components()[0]
	l := g.Project(comp)
	n := g.Len()

	got := map[string]bool{}
	count := 0
	err := EnumerateLocal(l, func(r bitset.Words) bool {
		s := bitset.New(n)
		r.Range(func(i int) bool { s.Add(l.Global(i)); return true })
		if !g.IsMaximalIndependent(s) {
			t.Fatalf("yielded set %v is not a maximal independent set", s)
		}
		got[s.Key()] = true
		count++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != len(got) {
		t.Fatalf("enumeration yielded %d sets, only %d distinct", count, len(got))
	}
	// Ground truth: every subset of the component, kept iff maximal
	// independent.
	want := 0
	for mask := 0; mask < 1<<uint(len(comp)); mask++ {
		s := bitset.New(n)
		for i, v := range comp {
			if mask&(1<<uint(i)) != 0 {
				s.Add(v)
			}
		}
		if g.IsMaximalIndependent(s) {
			want++
			if !got[s.Key()] {
				t.Fatalf("maximal independent set %v not enumerated", s)
			}
		}
	}
	if count != want {
		t.Fatalf("enumerated %d sets, brute force finds %d", count, want)
	}
}

// TestEnumerationAllocationFree asserts the hot path promises: after
// the one-time arena setup, counting a component's maximal independent
// sets costs a small constant number of allocations no matter how many
// sets it enumerates (a 30-chain has ~1.3k of them, each reached
// through many recursion nodes).
func TestEnumerationAllocationFree(t *testing.T) {
	g := chainGraph(30)
	comp := g.Components()[0]
	g.Project(comp) // warm the component index memo
	allocs := testing.AllocsPerRun(10, func() {
		n := 0
		EnumerateLocal(g.Project(comp), func(bitset.Words) bool { //nolint:errcheck // never stops
			n++
			return true
		})
		if n < 1000 {
			t.Fatalf("count = %d", n)
		}
	})
	// Projection + arena + a few closures: setup only, nothing per
	// enumeration node.
	if allocs > 25 {
		t.Fatalf("counting a component allocates %v objects per run; want setup-only (<= 25)", allocs)
	}
}

func TestEnumerateLocalEmpty(t *testing.T) {
	g := chainGraph(1) // single vertex, no edges
	l := g.Project(g.Components()[0])
	n := 0
	EnumerateLocal(l, func(r bitset.Words) bool { //nolint:errcheck // never stops
		if len(r) != 1 || r[0] != 1 {
			t.Fatalf("singleton component should yield {0}, got %v", r)
		}
		n++
		return true
	})
	if n != 1 {
		t.Fatalf("yielded %d sets, want 1", n)
	}
}
