package workload

import (
	"prefcqa/internal/fd"
	"prefcqa/internal/relation"
)

// Example7 builds Example 7: R(A,B) with key A -> B, instance
// {ta=(1,1), tb=(1,2), tc=(1,3)}, priority ta ≻ tc, ta ≻ tb
// (Figure 2). L-Rep selects only {ta}.
func Example7() *Scenario {
	s := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"))
	inst := relation.NewInstance(s)
	inst.MustInsert(1, 1) // ta
	inst.MustInsert(1, 2) // tb
	inst.MustInsert(1, 3) // tc
	sc := build("example7", "Example 7 / Figure 2: L-Rep with one key",
		inst, fd.MustParseSet(s, "A -> B"))
	sc.Pri.MustAdd(0, 2)
	sc.Pri.MustAdd(0, 1)
	return sc
}

// Example8 builds Example 8: R(A,B,C) with A -> B, instance
// {ta=(1,1,1), tb=(1,1,2), tc=(1,2,3)}, total priority tc ≻ ta,
// tc ≻ tb (Figure 3). L-Rep keeps both repairs (non-categorical);
// S-Rep keeps only {tc}.
func Example8() *Scenario {
	s := relation.MustSchema("R",
		relation.IntAttr("A"), relation.IntAttr("B"), relation.IntAttr("C"))
	inst := relation.NewInstance(s)
	inst.MustInsert(1, 1, 1) // ta
	inst.MustInsert(1, 1, 2) // tb
	inst.MustInsert(1, 2, 3) // tc
	sc := build("example8", "Example 8 / Figure 3: non-categoricity of L-Rep",
		inst, fd.MustParseSet(s, "A -> B"))
	sc.Pri.MustAdd(2, 0)
	sc.Pri.MustAdd(2, 1)
	return sc
}

// Example9 builds Example 9 exactly as printed (Figure 4): the
// conflict path ta-tb-tc-td-te under A -> B and C -> D with the total
// chain priority. NOTE: as printed, the instance has four repairs
// (the paper lists two) and the chain priority is categorical for
// S-Rep under the formal definitions; Example9Mutual reconstructs the
// intended non-categoricity scenario. See "Deviations from the paper"
// in docs/ARCHITECTURE.md.
func Example9() *Scenario {
	s := relation.MustSchema("R",
		relation.IntAttr("A"), relation.IntAttr("B"),
		relation.IntAttr("C"), relation.IntAttr("D"))
	inst := relation.NewInstance(s)
	inst.MustInsert(1, 1, 0, 0) // ta
	inst.MustInsert(1, 2, 1, 1) // tb
	inst.MustInsert(2, 1, 1, 2) // tc
	inst.MustInsert(2, 2, 2, 1) // td
	inst.MustInsert(0, 0, 2, 2) // te
	sc := build("example9", "Example 9 / Figure 4 as printed: conflict path",
		inst, fd.MustParseSet(s, "A -> B", "C -> D"))
	sc.Pri.MustAdd(0, 1)
	sc.Pri.MustAdd(1, 2)
	sc.Pri.MustAdd(2, 3)
	sc.Pri.MustAdd(3, 4)
	return sc
}

// Example9Mutual reconstructs the scenario §3.3 describes around
// Example 9: one K_{2,3} mutual-conflict component over R(A,B,C,D,E)
// with F = {A -> B, C -> D} — all five tuples share the A-group and
// the C-group, B and D are constant per side, so exactly the
// cross-side pairs conflict (under both dependencies) — with the
// partial chain priority t0 ≻ t1 ≻ ... ≻ t4. Repairs are exactly the
// two sides; S-Rep keeps both, G-Rep and C-Rep keep only {t0, t2, t4}.
func Example9Mutual() *Scenario {
	s := relation.MustSchema("R",
		relation.IntAttr("A"), relation.IntAttr("B"),
		relation.IntAttr("C"), relation.IntAttr("D"),
		relation.IntAttr("E"))
	inst := relation.NewInstance(s)
	for i := 0; i < 5; i++ {
		side := i%2 + 1
		inst.MustInsert(1, side, 1, side, i)
	}
	sc := build("example9-mutual", "Example 9 reconstructed: mutual conflicts, partial priority",
		inst, fd.MustParseSet(s, "A -> B", "C -> D"))
	for i := 0; i+1 < 5; i++ {
		sc.Pri.MustAdd(i, i+1)
	}
	return sc
}
