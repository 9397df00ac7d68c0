package repair

import (
	"math/rand"
	"testing"
	"testing/quick"

	"prefcqa/internal/bitset"
	"prefcqa/internal/conflict"
	"prefcqa/internal/fd"
	"prefcqa/internal/relation"
)

func graphFromSeed(seed int64, n int) *conflict.Graph {
	rng := rand.New(rand.NewSource(seed))
	s := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"), relation.IntAttr("C"))
	inst := relation.NewInstance(s)
	for i := 0; i < n; i++ {
		inst.MustInsert(rng.Intn(3), rng.Intn(3), rng.Intn(2))
	}
	return conflict.MustBuild(inst, fd.MustParseSet(s, "A -> B", "B -> C"))
}

// Property: every enumerated repair is a maximal independent set, the
// enumeration is duplicate-free, and the componentwise count agrees
// with it.
func TestQuickEnumerationInvariants(t *testing.T) {
	f := func(seed int64) bool {
		g := graphFromSeed(seed, 8)
		seen := map[string]bool{}
		for _, r := range all(g) {
			if !IsRepair(g, r) || seen[r.Key()] {
				return false
			}
			seen[r.Key()] = true
		}
		c, err := count(g)
		return err == nil && c == int64(len(seen))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: every tuple of the instance appears in at least one
// repair (no tuple is globally excluded under FD conflicts), and a
// tuple is in EVERY repair iff it is conflict-free.
func TestQuickTupleMembership(t *testing.T) {
	f := func(seed int64) bool {
		g := graphFromSeed(seed, 8)
		inAll := bitset.Full(g.Len())
		inSome := bitset.New(g.Len())
		for _, r := range all(g) {
			inAll.IntersectWith(r)
			inSome.UnionWith(r)
		}
		if !inSome.Equal(bitset.Full(g.Len())) {
			return false
		}
		for v := 0; v < g.Len(); v++ {
			if inAll.Has(v) != (g.Degree(v) == 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
