package core

import (
	"math/rand"
	"testing"

	"prefcqa/internal/bitset"
	"prefcqa/internal/clean"
	"prefcqa/internal/conflict"
	"prefcqa/internal/fd"
	"prefcqa/internal/priority"
	"prefcqa/internal/relation"
	"prefcqa/internal/repair"
)

// randomInstance builds a small random instance over R(A,B,C) with
// the given FDs, sized so exhaustive checks stay fast.
func randomInstance(rng *rand.Rand, n int, fdSpecs ...string) *priority.Priority {
	s := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"), relation.IntAttr("C"))
	inst := relation.NewInstance(s)
	for i := 0; i < n; i++ {
		inst.MustInsert(rng.Intn(3), rng.Intn(3), rng.Intn(3))
	}
	g := conflict.MustBuild(inst, fd.MustParseSet(s, fdSpecs...))
	return priority.Random(g, 0.6, rng)
}

// workloads produces a mix of priorities for property tests: one key,
// one non-key FD, two FDs with mutual conflicts.
func workloads(rng *rand.Rand, iters int) []*priority.Priority {
	var out []*priority.Priority
	for i := 0; i < iters; i++ {
		out = append(out,
			randomInstance(rng, 5+rng.Intn(4), "A -> B,C"),
			randomInstance(rng, 5+rng.Intn(4), "A -> B"),
			randomInstance(rng, 5+rng.Intn(4), "A -> B", "B -> C"),
		)
	}
	return out
}

// TestCheckersAgreeWithEnumeration verifies, for every family and
// every repair, that Check (component-local conditions) agrees with
// the global-ID reference (reference_test.go), and that both select
// exactly the repairs the per-component enumerators produce.
func TestCheckersAgreeWithEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for wi, p := range workloads(rng, 12) {
		allReps := allRepairs(p.Graph())
		for _, f := range Families {
			enum := keys(All(f, p))
			for _, r := range allReps {
				got, ref := Check(f, p, r), referenceCheck(f, p, r)
				if got != ref || got != enum[r.Key()] {
					t.Fatalf("workload %d, %v: checker=%v reference=%v enum=%v for %v\npriority %v\n%s",
						wi, f, got, ref, enum[r.Key()], r, p, p.Graph().ASCII())
				}
			}
			// Enumeration must only produce repairs.
			for _, r := range All(f, p) {
				if !repair.IsRepair(p.Graph(), r) {
					t.Fatalf("workload %d, %v: enumerated non-repair %v", wi, f, r)
				}
			}
		}
	}
}

// TestContainmentChain verifies C ⊆ G ⊆ S ⊆ L ⊆ Rep (Props. 3, 4, 6).
func TestContainmentChain(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for wi, p := range workloads(rng, 12) {
		rep := keys(All(Rep, p))
		l := keys(All(Local, p))
		s := keys(All(SemiGlobal, p))
		g := keys(All(Global, p))
		c := keys(All(Common, p))
		within := func(sub, super map[string]bool, name string) {
			for k := range sub {
				if !super[k] {
					t.Fatalf("workload %d: containment %s violated\npriority %v\n%s",
						wi, name, p, p.Graph().ASCII())
				}
			}
		}
		within(l, rep, "L ⊆ Rep")
		within(s, l, "S ⊆ L")
		within(g, s, "G ⊆ S")
		within(c, g, "C ⊆ G")
		// P1 for all families (Thm. 1 for C).
		for _, m := range []map[string]bool{rep, l, s, g, c} {
			if len(m) == 0 {
				t.Fatalf("workload %d: some family is empty (P1 violated)", wi)
			}
		}
	}
}

// TestProposition3OneKeyLEqualsS: for one key dependency L-Rep
// coincides with S-Rep.
func TestProposition3OneKeyLEqualsS(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for i := 0; i < 40; i++ {
		p := randomInstance(rng, 5+rng.Intn(5), "A -> B,C")
		l := keys(All(Local, p))
		s := keys(All(SemiGlobal, p))
		if len(l) != len(s) {
			t.Fatalf("one key: |L|=%d |S|=%d for %v\n%s", len(l), len(s), p, p.Graph().ASCII())
		}
		for k := range l {
			if !s[k] {
				t.Fatal("one key: L ≠ S")
			}
		}
	}
}

// TestProposition4OneFDGEqualsS: for one functional dependency G-Rep
// coincides with S-Rep.
func TestProposition4OneFDGEqualsS(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	for i := 0; i < 40; i++ {
		p := randomInstance(rng, 5+rng.Intn(5), "A -> B")
		g := keys(All(Global, p))
		s := keys(All(SemiGlobal, p))
		if len(g) != len(s) {
			t.Fatalf("one FD: |G|=%d |S|=%d for %v\n%s", len(g), len(s), p, p.Graph().ASCII())
		}
		for k := range g {
			if !s[k] {
				t.Fatal("one FD: G ≠ S")
			}
		}
	}
}

// TestProposition5DirectDefinition cross-checks the ≪-maximality
// implementation of global optimality against the direct replacement
// definition of §3: no nonempty X ⊆ r' can be replaced by Y ⊆ r with
// every x ∈ X dominated by some y ∈ Y, keeping consistency.
func TestProposition5DirectDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	for i := 0; i < 25; i++ {
		p := randomInstance(rng, 5+rng.Intn(3), "A -> B", "B -> C")
		for _, r := range allRepairs(p.Graph()) {
			want := gloOptDirect(p, r)
			if got := Check(Global, p, r); got != want {
				t.Fatalf("Prop 5 mismatch: ≪-maximality=%v direct=%v for %v\npriority %v\n%s",
					got, want, r, p, p.Graph().ASCII())
			}
		}
	}
}

// gloOptDirect brute-forces the replacement definition of global
// optimality. Exponential; test-only.
func gloOptDirect(p *priority.Priority, rp *bitset.Set) bool {
	g := p.Graph()
	n := g.Len()
	rElems := rp.Slice()
	for xm := 1; xm < 1<<uint(len(rElems)); xm++ {
		x := bitset.New(n)
		for i, e := range rElems {
			if xm&(1<<uint(i)) != 0 {
				x.Add(e)
			}
		}
		base := bitset.Difference(rp, x)
		for ym := 0; ym < 1<<uint(n); ym++ {
			y := bitset.New(n)
			for v := 0; v < n; v++ {
				if ym&(1<<uint(v)) != 0 {
					y.Add(v)
				}
			}
			// Every x ∈ X dominated by some y ∈ Y.
			okDom := true
			x.Range(func(xe int) bool {
				dominated := false
				for _, ye := range p.Dominators(xe) {
					if y.Has(int(ye)) {
						dominated = true
						break
					}
				}
				if !dominated {
					okDom = false
					return false
				}
				return true
			})
			if !okDom {
				continue
			}
			if g.IsIndependent(bitset.Union(base, y)) {
				return false
			}
		}
	}
	return true
}

// TestProposition7CommonEqualsAlgorithmOutcomes: C-Rep is exactly the
// set of Algorithm 1 outcomes.
func TestProposition7CommonEqualsAlgorithmOutcomes(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	for wi, p := range workloads(rng, 10) {
		got := keys(All(Common, p))
		want := keys(allOutcomes(p))
		if len(got) != len(want) {
			t.Fatalf("workload %d: |C-Rep|=%d, |outcomes|=%d", wi, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("workload %d: C-Rep misses an Algorithm 1 outcome", wi)
			}
		}
	}
}

// TestCategoricityP4 verifies that total priorities give exactly one
// globally optimal repair and one common repair (P4 for G and C),
// which moreover coincide with the Algorithm 1 output (Prop. 1).
func TestCategoricityP4(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for i := 0; i < 30; i++ {
		base := randomInstance(rng, 6+rng.Intn(4), "A -> B", "B -> C")
		p := base.TotalExtension(rng)
		want := clean.Deterministic(p)
		for _, f := range []Family{Global, Common} {
			fam := All(f, p)
			if len(fam) != 1 {
				t.Fatalf("%v under total priority has %d members (P4)", f, len(fam))
			}
			if !fam[0].Equal(want) {
				t.Fatalf("%v under total priority differs from Algorithm 1 output", f)
			}
		}
	}
}

// TestMonotonicityP2 verifies that extending the priority never grows
// L-Rep, S-Rep or G-Rep (P2; Props. 2–4).
func TestMonotonicityP2(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	for i := 0; i < 30; i++ {
		p := randomInstance(rng, 6+rng.Intn(3), "A -> B", "B -> C")
		q := p.TotalExtension(rng) // a (total) extension of p
		for _, f := range []Family{Local, SemiGlobal, Global} {
			before := keys(All(f, p))
			after := All(f, q)
			for _, r := range after {
				if !before[r.Key()] {
					t.Fatalf("%v: extension enlarged the family (P2)\nbase %v\next %v", f, p, q)
				}
			}
		}
	}
}

// TestNonDiscriminationP3 verifies that with the empty priority every
// family except C (for which the paper claims only P1+P4) equals Rep;
// C also equals Rep here because Algorithm 1 with no priorities can
// produce any repair.
func TestNonDiscriminationP3(t *testing.T) {
	rng := rand.New(rand.NewSource(139))
	for i := 0; i < 20; i++ {
		p := randomInstance(rng, 6+rng.Intn(3), "A -> B", "B -> C")
		empty := priority.New(p.Graph())
		rep := keys(All(Rep, empty))
		for _, f := range []Family{Local, SemiGlobal, Global, Common} {
			fam := keys(All(f, empty))
			if len(fam) != len(rep) {
				t.Fatalf("%v with empty priority has %d members, Rep has %d (P3)", f, len(fam), len(rep))
			}
		}
	}
}

// TestTheorem2ForestImpliesCEqualsG: on priorities that cannot be
// extended to a cyclic orientation, C-Rep = G-Rep.
func TestTheorem2ForestImpliesCEqualsG(t *testing.T) {
	rng := rand.New(rand.NewSource(149))
	checked := 0
	for i := 0; i < 60 && checked < 25; i++ {
		p := randomInstance(rng, 5+rng.Intn(4), "A -> B", "B -> C")
		if priority.ExtendableToCyclic(p) {
			continue
		}
		checked++
		c := keys(All(Common, p))
		g := keys(All(Global, p))
		if len(c) != len(g) {
			t.Fatalf("Theorem 2: |C|=%d |G|=%d for non-cyclic-extendable %v\n%s",
				len(c), len(g), p, p.Graph().ASCII())
		}
		for k := range g {
			if !c[k] {
				t.Fatal("Theorem 2: C ≠ G")
			}
		}
	}
	if checked < 5 {
		t.Fatalf("only %d non-cyclic-extendable priorities sampled; weak test", checked)
	}
}

// TestGloballyOptimalWholeGraphAgreement cross-checks the
// per-component G checker against whole-graph ≪-maximality over the
// reference PreferredOver.
func TestGloballyOptimalWholeGraphAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	for i := 0; i < 20; i++ {
		p := randomInstance(rng, 6+rng.Intn(3), "A -> B", "B -> C")
		allReps := allRepairs(p.Graph())
		for _, r := range allReps {
			want := true
			for _, other := range allReps {
				if PreferredOver(p, r, other) {
					want = false
					break
				}
			}
			if got := Check(Global, p, r); got != want {
				t.Fatalf("per-component G=%v, whole-graph ≪-maximality=%v for %v", got, want, r)
			}
		}
	}
}

func BenchmarkIsCommonChain(b *testing.B) {
	p := example9(b)
	r1 := bitset.FromSlice([]int{0, 2, 4})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !Check(Common, p, r1) {
			b.Fatal("r1 should be common")
		}
	}
}
