// Package workload is test support: it generates the instances,
// dependencies and priorities the tests and the Benchmark* functions
// run on, and nothing that ships imports it. It contains the paper's
// examples (Examples 4, 7, 8, 9) and parametric families whose
// conflict-graph shapes scale them up:
//
//	Pairs(n)        Example 4: n disjoint conflict edges, 2^n repairs
//	Chain(n)        Example 9: a conflict path of n tuples (two FDs)
//	Clusters(m, k)  m independent key-violation cliques of size k
//	Random(...)     random instances over R(A,B,C) with two FDs
package workload

import (
	"fmt"
	"math/rand"

	"prefcqa/internal/conflict"
	"prefcqa/internal/fd"
	"prefcqa/internal/priority"
	"prefcqa/internal/relation"
)

// Scenario bundles a generated instance with its dependencies,
// conflict graph and priority.
type Scenario struct {
	Name string
	Desc string
	Inst *relation.Instance
	FDs  *fd.Set
	Pri  *priority.Priority
}

// Graph returns the scenario's conflict graph.
func (s *Scenario) Graph() *conflict.Graph { return s.Pri.Graph() }

func build(name, desc string, inst *relation.Instance, fds *fd.Set) *Scenario {
	g := conflict.MustBuild(inst, fds)
	return &Scenario{Name: name, Desc: desc, Inst: inst, FDs: fds, Pri: priority.New(g)}
}

// Pairs builds Example 4's instance r_n = {(0,0),(0,1),...,(n-1,0),
// (n-1,1)} over R(A,B) with A -> B: n independent conflict pairs and
// 2^n repairs. Figure 1 shows n = 4.
func Pairs(n int) *Scenario {
	s := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"))
	inst := relation.NewInstance(s)
	for i := 0; i < n; i++ {
		inst.MustInsert(i, 0)
		inst.MustInsert(i, 1)
	}
	return build(fmt.Sprintf("pairs(%d)", n),
		"Example 4: n disjoint conflict edges, 2^n repairs",
		inst, fd.MustParseSet(s, "A -> B"))
}

// Chain builds a conflict path of n tuples over R(A,B,C,D) with
// F = {A -> B, C -> D}, generalizing Example 9: tuple i conflicts
// tuple i+1, alternating between the two dependencies. The returned
// priority orients every edge i ≻ i+1 (the paper's chain priority).
func Chain(n int) *Scenario {
	if n < 1 {
		panic("workload: Chain needs n >= 1")
	}
	s := relation.MustSchema("R",
		relation.IntAttr("A"), relation.IntAttr("B"),
		relation.IntAttr("C"), relation.IntAttr("D"))
	inst := relation.NewInstance(s)
	// Tuple i: A-group pairs (2i, 2i+1) share A value; C-group pairs
	// (2i+1, 2i+2) share C value. Values chosen so exactly the path
	// edges appear.
	for i := 0; i < n; i++ {
		a := (i + 1) / 2 // tuples 2k-1, 2k share a-group k
		c := i / 2       // tuples 2k, 2k+1 share c-group k
		b := i % 2       // alternate to create the A->B conflict
		d := (i + 1) % 2 // alternate to create the C->D conflict
		inst.MustInsert(a, b, c+1000, d)
	}
	sc := build(fmt.Sprintf("chain(%d)", n),
		"Example 9 generalized: a conflict path under two FDs",
		inst, fd.MustParseSet(s, "A -> B", "C -> D"))
	for i := 0; i+1 < n; i++ {
		sc.Pri.MustAdd(i, i+1)
	}
	return sc
}

// Clusters builds m independent clusters of k mutually conflicting
// tuples (key violations: same key, k distinct values) over R(K,V)
// with K -> V. Each cluster is a k-clique, so there are k^m repairs.
func Clusters(m, k int) *Scenario {
	s := relation.MustSchema("R", relation.IntAttr("K"), relation.IntAttr("V"))
	inst := relation.NewInstance(s)
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			inst.MustInsert(i, j)
		}
	}
	return build(fmt.Sprintf("clusters(%d,%d)", m, k),
		"m independent key-violation cliques of size k",
		inst, fd.MustParseSet(s, "K -> V"))
}

// Random builds a random instance of n tuples over R(A,B,C) with
// F = {A -> B, B -> C} and attribute values drawn from [0, vals),
// plus a random acyclic priority of the given density.
func Random(rng *rand.Rand, n, vals int, density float64) *Scenario {
	s := relation.MustSchema("R", relation.IntAttr("A"), relation.IntAttr("B"), relation.IntAttr("C"))
	inst := relation.NewInstance(s)
	for i := 0; i < n; i++ {
		inst.MustInsert(rng.Intn(vals), rng.Intn(vals), rng.Intn(vals))
	}
	fds := fd.MustParseSet(s, "A -> B", "B -> C")
	g := conflict.MustBuild(inst, fds)
	return &Scenario{
		Name: fmt.Sprintf("random(%d,%d,%.2f)", n, vals, density),
		Desc: "random two-FD instance with random priority",
		Inst: inst, FDs: fds,
		Pri: priority.Random(g, density, rng),
	}
}
