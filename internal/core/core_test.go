package core

import (
	"testing"

	"prefcqa/internal/bitset"
	"prefcqa/internal/conflict"
	"prefcqa/internal/fd"
	"prefcqa/internal/priority"
	"prefcqa/internal/relation"
)

// example7 builds Example 7: R(A,B) with key A -> B, instance
// {ta=(1,1), tb=(1,2), tc=(1,3)}, priority ta ≻ tc, ta ≻ tb.
func example7(t testing.TB) *priority.Priority {
	t.Helper()
	s := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"))
	inst := relation.NewInstance(s)
	inst.MustInsert(1, 1) // ta = 0
	inst.MustInsert(1, 2) // tb = 1
	inst.MustInsert(1, 3) // tc = 2
	g := conflict.MustBuild(inst, fd.MustParseSet(s, "A -> B"))
	p := priority.New(g)
	p.MustAdd(0, 2)
	p.MustAdd(0, 1)
	return p
}

// example8 builds Example 8: R(A,B,C) with A -> B, instance
// {ta=(1,1,1), tb=(1,1,2), tc=(1,2,3)}, total priority tc ≻ ta,
// tc ≻ tb.
func example8(t testing.TB) *priority.Priority {
	t.Helper()
	s := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"), relation.IntAttr("C"))
	inst := relation.NewInstance(s)
	inst.MustInsert(1, 1, 1) // ta = 0
	inst.MustInsert(1, 1, 2) // tb = 1
	inst.MustInsert(1, 2, 3) // tc = 2
	g := conflict.MustBuild(inst, fd.MustParseSet(s, "A -> B"))
	p := priority.New(g)
	p.MustAdd(2, 0)
	p.MustAdd(2, 1)
	return p
}

// example9 builds Example 9: R(A,B,C,D) with A -> B and C -> D, the
// conflict path ta-tb-tc-td-te, total priority along the path.
func example9(t testing.TB) *priority.Priority {
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
	p.MustAdd(0, 1)
	p.MustAdd(1, 2)
	p.MustAdd(2, 3)
	p.MustAdd(3, 4)
	return p
}

func keys(repairs []*bitset.Set) map[string]bool {
	m := make(map[string]bool, len(repairs))
	for _, r := range repairs {
		m[r.Key()] = true
	}
	return m
}

func TestExample7LocalSelects(t *testing.T) {
	p := example7(t)
	// Repairs: {ta}, {tb}, {tc}. Only r1 = {ta} is locally optimal.
	reps := All(Rep, p)
	if len(reps) != 3 {
		t.Fatalf("Rep = %d repairs, want 3", len(reps))
	}
	lreps := All(Local, p)
	if len(lreps) != 1 || !lreps[0].Equal(bitset.FromSlice([]int{0})) {
		t.Fatalf("L-Rep = %v, want [{0}]", lreps)
	}
	if !Check(Local, p, bitset.FromSlice([]int{0})) {
		t.Error("r1 = {ta} should be locally optimal")
	}
	if Check(Local, p, bitset.FromSlice([]int{1})) {
		t.Error("r2 = {tb} should not be locally optimal (ta ≻ tb)")
	}
	if Check(Local, p, bitset.FromSlice([]int{2})) {
		t.Error("r3 = {tc} should not be locally optimal (ta ≻ tc)")
	}
}

func TestExample8LocalNotCategorical(t *testing.T) {
	p := example8(t)
	// Repairs: r1 = {ta,tb}, r2 = {tc}. Both are locally optimal even
	// though the priority is total — L-Rep violates P4.
	r1 := bitset.FromSlice([]int{0, 1})
	r2 := bitset.FromSlice([]int{2})
	if !p.IsTotal() {
		t.Fatal("Example 8 priority should be total")
	}
	lreps := All(Local, p)
	if len(lreps) != 2 {
		t.Fatalf("L-Rep = %v, want both repairs", lreps)
	}
	if !Check(Local, p, r1) || !Check(Local, p, r2) {
		t.Error("both repairs should be locally optimal")
	}
	// S-Rep fixes it: r1 is not semi-globally optimal, r2 is.
	if Check(SemiGlobal, p, r1) {
		t.Error("r1 = {ta,tb} should NOT be semi-globally optimal")
	}
	if !Check(SemiGlobal, p, r2) {
		t.Error("r2 = {tc} should be semi-globally optimal")
	}
	sreps := All(SemiGlobal, p)
	if len(sreps) != 1 || !sreps[0].Equal(r2) {
		t.Fatalf("S-Rep = %v, want [{2}]", sreps)
	}
}

// TestExample9Literal checks the instance exactly as printed in the
// paper. NOTE (paper deviation, see "Deviations from the paper" in
// docs/ARCHITECTURE.md): the printed instance's conflict graph is the path ta-tb-tc-td-te, which has FOUR
// repairs, not the two the paper lists — {ta,td} and {tb,te} are also
// maximal independent sets. Under the paper's own Definition of
// semi-global optimality, the total path priority then makes S-Rep
// categorical ({r1} only). The paper's intended illustration (S-Rep
// non-categorical, G-Rep selecting r1) is realized by the mutual-
// conflict variant below (TestExample9MutualConflicts).
func TestExample9Literal(t *testing.T) {
	p := example9(t)
	r1 := bitset.FromSlice([]int{0, 2, 4}) // {ta, tc, te}
	r2 := bitset.FromSlice([]int{1, 3})    // {tb, td}
	if !p.IsTotal() {
		t.Fatal("Example 9 priority should be total")
	}
	reps := All(Rep, p)
	if len(reps) != 4 {
		t.Fatalf("Rep = %v, want the four repairs of the path P5", reps)
	}
	// ≪: r2 ≪ r1 but not conversely — as the paper argues in §3.3.
	if !PreferredOver(p, r2, r1) {
		t.Error("r2 ≪ r1 should hold")
	}
	if PreferredOver(p, r1, r2) {
		t.Error("r1 ≪ r2 should not hold")
	}
	if !Check(Global, p, r1) {
		t.Error("r1 should be globally optimal")
	}
	if Check(Global, p, r2) {
		t.Error("r2 should not be globally optimal")
	}
	// Under the formal definitions the total path priority is
	// categorical for S, G and C alike.
	for _, f := range []Family{SemiGlobal, Global, Common} {
		fam := All(f, p)
		if len(fam) != 1 || !fam[0].Equal(r1) {
			t.Fatalf("%v = %v, want exactly [r1]", f, fam)
		}
	}
	if !Check(Common, p, r1) || Check(Common, p, r2) {
		t.Error("IsCommon disagrees with enumeration")
	}
}

// example9Mutual reconstructs the scenario §3.3 describes: two FDs
// with mutual conflicts (the conflict graph is K_{2,3}) and a priority
// given only for some of the conflicts. Repairs are exactly
// r1 = {t0,t2,t4} and r2 = {t1,t3}; the partial chain t0 ≻ t1 ≻ t2 ≻
// t3 ≻ t4 leaves both semi-globally optimal while only r1 is globally
// optimal — the paper's intended Figure 4 content.
func example9Mutual(t testing.TB) *priority.Priority {
	t.Helper()
	s := relation.MustSchema("R",
		relation.IntAttr("A"), relation.IntAttr("B"),
		relation.IntAttr("C"), relation.IntAttr("D"), relation.IntAttr("E"))
	inst := relation.NewInstance(s)
	inst.MustInsert(1, 1, 0, 0, 0) // t0
	inst.MustInsert(1, 2, 3, 2, 0) // t1
	inst.MustInsert(1, 1, 3, 1, 0) // t2
	inst.MustInsert(1, 2, 3, 2, 1) // t3
	inst.MustInsert(2, 1, 3, 1, 1) // t4
	g := conflict.MustBuild(inst, fd.MustParseSet(s, "A -> B", "C -> D"))
	p := priority.New(g)
	p.MustAdd(0, 1)
	p.MustAdd(1, 2)
	p.MustAdd(2, 3)
	p.MustAdd(3, 4)
	return p
}

func TestExample9MutualConflicts(t *testing.T) {
	p := example9Mutual(t)
	g := p.Graph()
	// The conflict graph is K_{2,3}: sides {0,2,4} and {1,3}.
	if g.NumEdges() != 6 {
		t.Fatalf("edges = %d, want 6 (K_{2,3})\n%s", g.NumEdges(), g.ASCII())
	}
	for _, u := range []int{1, 3} {
		for _, v := range []int{0, 2, 4} {
			if !g.Adjacent(u, v) {
				t.Fatalf("missing edge %d-%d", u, v)
			}
		}
	}
	if p.IsTotal() {
		t.Fatal("the priority must be partial (edges 0-3 and 1-4 unoriented)")
	}
	r1 := bitset.FromSlice([]int{0, 2, 4})
	r2 := bitset.FromSlice([]int{1, 3})
	reps := All(Rep, p)
	if len(reps) != 2 {
		t.Fatalf("Rep = %v, want exactly r1 and r2", reps)
	}
	// Both repairs are semi-globally optimal: S-Rep is non-categorical
	// in the presence of mutual conflicts with partial priorities.
	sreps := All(SemiGlobal, p)
	if len(sreps) != 2 {
		t.Fatalf("S-Rep = %v, want both repairs", sreps)
	}
	// G-Rep applies the priority aggressively: r2 ≪ r1.
	if !PreferredOver(p, r2, r1) {
		t.Error("r2 ≪ r1 should hold")
	}
	greps := All(Global, p)
	if len(greps) != 1 || !greps[0].Equal(r1) {
		t.Fatalf("G-Rep = %v, want [r1]", greps)
	}
	creps := All(Common, p)
	if len(creps) != 1 || !creps[0].Equal(r1) {
		t.Fatalf("C-Rep = %v, want [r1]", creps)
	}
}

func TestPreferredOverIrreflexive(t *testing.T) {
	p := example9(t)
	r1 := bitset.FromSlice([]int{0, 2, 4})
	if PreferredOver(p, r1, r1) {
		t.Fatal("≪ must be irreflexive")
	}
}

func TestCheckersRejectNonRepairs(t *testing.T) {
	p := example9(t)
	nonMaximal := bitset.FromSlice([]int{0})      // consistent, not maximal
	inconsistent := bitset.FromSlice([]int{0, 1}) // ta conflicts tb
	for _, f := range Families {
		if Check(f, p, nonMaximal) {
			t.Errorf("%v accepted a non-maximal set", f)
		}
		if Check(f, p, inconsistent) {
			t.Errorf("%v accepted an inconsistent set", f)
		}
	}
}

func TestFamilyString(t *testing.T) {
	want := map[Family]string{Rep: "Rep", Local: "L-Rep", SemiGlobal: "S-Rep", Global: "G-Rep", Common: "C-Rep"}
	for f, w := range want {
		if f.String() != w {
			t.Errorf("String(%d) = %q, want %q", int(f), f.String(), w)
		}
	}
	if Family(42).String() == "" {
		t.Error("unknown family should render")
	}
}

func TestParseFamily(t *testing.T) {
	cases := map[string]Family{
		"rep": Rep, "ALL": Rep,
		"l": Local, "L-Rep": Local, "local": Local,
		"s": SemiGlobal, "semi-global": SemiGlobal, "srep": SemiGlobal,
		"g": Global, "G-REP": Global, "global": Global,
		"c": Common, "common": Common, "crep": Common,
	}
	for in, want := range cases {
		got, err := ParseFamily(in)
		if err != nil || got != want {
			t.Errorf("ParseFamily(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseFamily("bogus"); err == nil {
		t.Error("unknown family should fail to parse")
	}
}

func TestCountMatchesEnumeration(t *testing.T) {
	for _, build := range []func(testing.TB) *priority.Priority{example7, example8, example9} {
		p := build(t)
		for _, f := range Families {
			n, err := Sequential().Count(f, p)
			if err != nil {
				t.Fatal(err)
			}
			if got := int64(len(All(f, p))); got != n {
				t.Errorf("%v: Count = %d, enumeration = %d", f, n, got)
			}
		}
	}
}

func TestOneReturnsMember(t *testing.T) {
	p := example9(t)
	for _, f := range Families {
		one := One(f, p)
		if one == nil {
			t.Fatalf("%v: One returned nil (P1 violated?)", f)
		}
		if !Check(f, p, one) {
			t.Errorf("%v: One returned a non-member %v", f, one)
		}
	}
}
