package prefcqa_test

import (
	"fmt"

	"prefcqa"
)

// The paper's running example: integrating conflicting sources and
// querying under preferred-repair semantics.
func Example() {
	db := prefcqa.New()
	mgr, _ := db.CreateRelation("Mgr",
		prefcqa.NameAttr("Name"), prefcqa.NameAttr("Dept"),
		prefcqa.IntAttr("Salary"), prefcqa.IntAttr("Reports"))

	mary := mgr.MustInsert("Mary", "R&D", 40, 3)  // source s1
	john := mgr.MustInsert("John", "R&D", 10, 2)  // source s2
	maryIT := mgr.MustInsert("Mary", "IT", 20, 1) // source s3
	johnPR := mgr.MustInsert("John", "PR", 30, 4) // source s3

	_ = mgr.AddFD("Dept -> Name, Salary, Reports")
	_ = mgr.AddFD("Name -> Dept, Salary, Reports")

	q2 := `EXISTS x1,y1,z1,x2,y2,z2 .
		Mgr('Mary',x1,y1,z1) AND Mgr('John',x2,y2,z2) AND y1 > y2 AND z1 < z2`

	before, _ := db.Query(prefcqa.Rep, q2)
	fmt.Println("no preferences:", before)

	// Example 3: s3 is less reliable than s1 and s2.
	_ = mgr.Prefer(mary, maryIT)
	_ = mgr.Prefer(john, johnPR)

	after, _ := db.Query(prefcqa.Global, q2)
	fmt.Println("with preferences:", after)
	// Output:
	// no preferences: undetermined
	// with preferences: true
}

// Counting and materializing preferred repairs.
func ExampleDB_Repairs() {
	db := prefcqa.New()
	r, _ := db.CreateRelation("R", prefcqa.IntAttr("K"), prefcqa.IntAttr("V"))
	a := r.MustInsert(1, 10)
	b := r.MustInsert(1, 20)
	_ = r.AddFD("K -> V")
	_ = r.Prefer(a, b)

	all, _ := db.CountRepairs(prefcqa.Rep, "R")
	preferred, _ := db.CountRepairs(prefcqa.Global, "R")
	fmt.Println(all, preferred)
	// Output: 2 1
}

// Algorithm 1: winnow-driven cleaning under preferences.
func ExampleDB_Clean() {
	db := prefcqa.New()
	r, _ := db.CreateRelation("R", prefcqa.IntAttr("K"), prefcqa.IntAttr("V"))
	a := r.MustInsert(1, 10)
	b := r.MustInsert(1, 20)
	r.MustInsert(2, 30)
	_ = r.AddFD("K -> V")
	_ = r.Prefer(b, a) // prefer the V=20 row

	cleaned, _ := db.Clean("R")
	fmt.Println(cleaned.Len())
	fmt.Println(cleaned.Contains(prefcqa.Tuple{prefcqa.Int(1), prefcqa.Int(20)}))
	// Output:
	// 2
	// true
}

// Brave vs cautious answers.
func ExampleDB_Possible() {
	db := prefcqa.New()
	r, _ := db.CreateRelation("R", prefcqa.IntAttr("K"), prefcqa.IntAttr("V"))
	r.MustInsert(1, 10)
	r.MustInsert(1, 20)
	_ = r.AddFD("K -> V")

	certain, _ := db.Certain(prefcqa.Rep, "R(1, 10)")
	possible, _ := db.Possible(prefcqa.Rep, "R(1, 10)")
	fmt.Println(certain, possible)
	// Output: false true
}

// ExampleDB_Snapshot shows the mutable-workload model: point
// mutations are folded into the built state incrementally (cost
// proportional to the touched conflict component), while a snapshot
// keeps answering from its pinned version.
func ExampleDB_Snapshot() {
	db := prefcqa.New()
	inv, _ := db.CreateRelation("Inv", prefcqa.IntAttr("SKU"), prefcqa.IntAttr("Qty"))
	_ = inv.AddFD("SKU -> Qty")

	a := inv.MustInsert(1, 10) // two feeds disagree on SKU 1
	b := inv.MustInsert(1, 12)
	_ = inv.Prefer(a, b) // trust the first feed

	snap, _ := db.Snapshot() // pin this version

	inv.Delete(a) // a correction arrives: replace the trusted tuple
	c := inv.MustInsert(1, 17)
	_ = inv.Prefer(c, b)

	now, _ := db.Query(prefcqa.Global, "Inv(1, 17)")
	then, _ := snap.Query(prefcqa.Global, "Inv(1, 17)")
	pinned, _ := snap.Query(prefcqa.Global, "Inv(1, 10)")
	fmt.Println(now, then, pinned)
	// Output: true false true
}

// ExampleDB_ExplainPlan renders the physical plan the query planner
// chooses: access path per atom (secondary-index probe vs scan),
// join order, and estimated vs actual candidate rows.
func ExampleDB_ExplainPlan() {
	db := prefcqa.New()
	mgr, _ := db.CreateRelation("Mgr",
		prefcqa.NameAttr("Name"), prefcqa.NameAttr("Dept"), prefcqa.IntAttr("Salary"))
	mgr.MustInsert("Mary", "R&D", 40)
	mgr.MustInsert("John", "R&D", 10)
	mgr.MustInsert("Mary", "IT", 20)

	rep, _ := db.ExplainPlan("EXISTS d, s . Mgr('Mary', d, s) AND s > 30")
	fmt.Println(rep)
	// Output:
	// query: EXISTS d, s . Mgr('Mary', d, s) AND s > 30
	// holds on full instance: true
	// plan 1: EXISTS d, s [exec vectorized-greedy; cost yannakakis 2 vs greedy 2]
	//   1. Mgr('Mary', d, s)  index(Name='Mary')  est 2 act 1  [batches 1 ids 1 out 1]  binds d, s
	//   residual: s > 30
}
