// Benchmarks regenerating the paper's figures and tables. Naming:
// BenchmarkFigN... covers figure N; Fig. 5 (the complexity table) is
// split per row and column. Where the printed Example 9 and the
// S-Rep/P4 cell differ from the paper, see "Deviations from the
// paper" in docs/ARCHITECTURE.md.
package prefcqa

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"prefcqa/internal/bitset"
	"prefcqa/internal/clean"
	"prefcqa/internal/conflict"
	"prefcqa/internal/core"
	"prefcqa/internal/cqa"
	"prefcqa/internal/fd"
	"prefcqa/internal/priority"
	"prefcqa/internal/query"
	"prefcqa/internal/relation"
	"prefcqa/internal/workload"
)

// --- Figure 1 / Example 4: conflict graph construction ---

func BenchmarkFig1ConflictGraphBuild(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			sc := workload.Pairs(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := conflict.Build(sc.Inst, sc.FDs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig1RepairCount(b *testing.B) {
	sc := workload.Pairs(60) // 2^60 repairs, counted componentwise
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := core.Sequential().CountCtx(context.Background(), core.Rep, sc.Pri)
		if err != nil || c != 1<<60 {
			b.Fatalf("count = %d, %v", c, err)
		}
	}
}

// --- Figures 2-4 / Examples 7-9: family selection ---

func benchFamilies(b *testing.B, sc *workload.Scenario) {
	b.Helper()
	for _, f := range core.Families {
		b.Run(f.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n := 0
				core.Sequential().Enumerate(f, sc.Pri, func(*bitset.Set) bool { n++; return true }) //nolint:errcheck
				if n == 0 {
					b.Fatal("empty family")
				}
			}
		})
	}
}

func BenchmarkFig2Example7(b *testing.B) { benchFamilies(b, workload.Example7()) }
func BenchmarkFig3Example8(b *testing.B) { benchFamilies(b, workload.Example8()) }
func BenchmarkFig4Example9(b *testing.B) { benchFamilies(b, workload.Example9Mutual()) }

// --- Figure 5, column "repair check" ---

// The checked repair is Algorithm 1's output on Chain(n): a member of
// every family. Rep, L-Rep, S-Rep and C-Rep checking is polynomial;
// G-Rep checking enumerates the component's repairs (co-NP-complete
// problem) and blows up with n.
func benchRepairCheck(b *testing.B, f core.Family, n int) {
	sc := workload.Chain(n)
	rp := clean.Deterministic(sc.Pri)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !core.Check(f, sc.Pri, rp) {
			b.Fatal("check failed")
		}
	}
}

func BenchmarkFig5RepairCheckRep(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchRepairCheck(b, core.Rep, n) })
	}
}

func BenchmarkFig5RepairCheckLocal(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchRepairCheck(b, core.Local, n) })
	}
}

func BenchmarkFig5RepairCheckSemiGlobal(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchRepairCheck(b, core.SemiGlobal, n) })
	}
}

func BenchmarkFig5RepairCheckCommon(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchRepairCheck(b, core.Common, n) })
	}
}

func BenchmarkFig5RepairCheckGlobal(b *testing.B) {
	// Same sizes as the polynomial families would be infeasible: the
	// component's repair count grows like Fibonacci(n).
	for _, n := range []int{8, 16, 24} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchRepairCheck(b, core.Global, n) })
	}
}

// --- Figure 5, column "consistent answers", row Rep ---

func pairsInput(n int) cqa.Input {
	sc := workload.Pairs(n)
	in, err := cqa.NewInput(&cqa.Relation{Inst: sc.Inst, FDs: sc.FDs, Pri: sc.Pri})
	if err != nil {
		panic(err)
	}
	return in
}

// groundAllPairsQuery: (R(0,0) OR R(0,1)) AND ... — certainly true,
// touches every component.
func groundAllPairsQuery(n int) query.Expr {
	atom := func(a, bb int64) query.Expr {
		return query.Atom{Rel: "R", Args: []query.Term{
			query.Const{Value: relation.Int(a)}, query.Const{Value: relation.Int(bb)},
		}}
	}
	var q query.Expr
	for i := 0; i < n; i++ {
		or := query.Or{L: atom(int64(i), 0), R: atom(int64(i), 1)}
		if q == nil {
			q = or
		} else {
			q = query.And{L: q, R: or}
		}
	}
	return q
}

// The {∀,∃}-free PTIME cell: the witness-cover algorithm scales
// polynomially even though the instance has 2^n repairs.
func BenchmarkFig5GroundCQARep(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			in := pairsInput(n)
			q := groundAllPairsQuery(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, err := cqa.GroundQFEvaluate(in, q)
				if err != nil || a != cqa.CertainlyTrue {
					b.Fatalf("%v %v", a, err)
				}
			}
		})
	}
}

// The conjunctive-query co-NP cell: a certainly-true EXISTS query
// forces enumeration of all 2^n repairs.
func BenchmarkFig5ConjunctiveCQARep(b *testing.B) {
	for _, n := range []int{6, 9, 12} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			in := pairsInput(n)
			q := query.MustParse("EXISTS x, y . R(x, y)")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, err := cqa.Evaluate(core.Rep, in, q)
				if err != nil || a != cqa.CertainlyTrue {
					b.Fatalf("%v %v", a, err)
				}
			}
		})
	}
}

// --- Figure 5, rows L/S/G/C: preferred CQA vs priority density ---

func benchPreferredCQA(b *testing.B, f core.Family, density float64) {
	sc := workload.Pairs(9)
	rng := rand.New(rand.NewSource(1))
	sc.Pri = priority.Random(sc.Graph(), density, rng)
	in, err := cqa.NewInput(&cqa.Relation{Inst: sc.Inst, FDs: sc.FDs, Pri: sc.Pri})
	if err != nil {
		b.Fatal(err)
	}
	q := query.MustParse("EXISTS x, y . R(x, y)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := cqa.Evaluate(f, in, q)
		if err != nil || a != cqa.CertainlyTrue {
			b.Fatalf("%v %v", a, err)
		}
	}
}

func BenchmarkFig5CQALocal(b *testing.B) {
	for _, d := range []float64{0, 1} {
		b.Run(fmt.Sprintf("density=%.0f", d), func(b *testing.B) { benchPreferredCQA(b, core.Local, d) })
	}
}

func BenchmarkFig5CQASemiGlobal(b *testing.B) {
	for _, d := range []float64{0, 1} {
		b.Run(fmt.Sprintf("density=%.0f", d), func(b *testing.B) { benchPreferredCQA(b, core.SemiGlobal, d) })
	}
}

func BenchmarkFig5CQAGlobal(b *testing.B) {
	for _, d := range []float64{0, 1} {
		b.Run(fmt.Sprintf("density=%.0f", d), func(b *testing.B) { benchPreferredCQA(b, core.Global, d) })
	}
}

func BenchmarkFig5CQACommon(b *testing.B) {
	for _, d := range []float64{0, 1} {
		b.Run(fmt.Sprintf("density=%.0f", d), func(b *testing.B) { benchPreferredCQA(b, core.Common, d) })
	}
}

// --- Algorithm 1 / Proposition 1 ---

func BenchmarkAlgorithm1Clean(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for _, m := range []int{100, 400, 1600} {
		b.Run(fmt.Sprintf("clusters=%d", m), func(b *testing.B) {
			sc := workload.Clusters(m, 3)
			total := sc.Pri.TotalExtension(rng)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := clean.Deterministic(total)
				if out.Len() != m {
					b.Fatalf("cleaned size %d", out.Len())
				}
			}
		})
	}
}

// --- Ablations ---

// Componentwise repair counting vs full enumeration.
func BenchmarkAblationComponentCount(b *testing.B) {
	sc := workload.Pairs(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c, err := core.Sequential().CountCtx(context.Background(), core.Rep, sc.Pri); err != nil || c != 1<<16 {
			b.Fatalf("%d %v", c, err)
		}
	}
}

func BenchmarkAblationFullEnumerationCount(b *testing.B) {
	sc := workload.Pairs(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		core.Sequential().Enumerate(core.Rep, sc.Pri, func(*bitset.Set) bool { n++; return true }) //nolint:errcheck
		if n != 1<<12 {
			b.Fatalf("n=%d", n)
		}
	}
}

// --- Parallel component-sharded engine (docs/ARCHITECTURE.md) ---

// engineConfigs are the two headline configurations: the sequential
// reference path and the parallel memoizing engine.
func engineConfigs() []struct {
	name string
	eng  *core.Engine
} {
	return []struct {
		name string
		eng  *core.Engine
	}{
		{"sequential", core.Sequential()},
		{"parallel", core.NewEngine()},
	}
}

// multiChains builds m disjoint conflict chains of n tuples each
// (Chain(n) repeated with disjoint attribute groups), every edge
// oriented along the chain. G-Rep choice computation on a chain is
// quadratic in its Fibonacci-many repairs, so per-component work
// dominates — the shape the component-sharded engine targets.
func multiChains(m, n int) *priority.Priority {
	inst, fds := multiChainsInstance(m, n)
	p := priority.New(conflict.MustBuild(inst, fds))
	for j := 0; j < m; j++ {
		for i := 0; i+1 < n; i++ {
			p.MustAdd(j*n+i, j*n+i+1)
		}
	}
	return p
}

// multiChainsInstance is the instance and FDs behind multiChains.
func multiChainsInstance(m, n int) (*relation.Instance, *fd.Set) {
	s := relation.MustSchema("R",
		relation.IntAttr("A"), relation.IntAttr("B"),
		relation.IntAttr("C"), relation.IntAttr("D"))
	inst := relation.NewInstance(s)
	for j := 0; j < m; j++ {
		off := int64(j+1) * 1_000_000
		for i := 0; i < n; i++ {
			a := int64((i+1)/2) + off
			c := int64(i/2) + 1000 + off
			inst.MustInsert(a, int64(i%2), c, int64((i+1)%2))
		}
	}
	return inst, fd.MustParseSet(s, "A -> B", "C -> D")
}

// Counting G-Rep over 8 disjoint conflict chains (an 8-component
// conflict graph with expensive components): the engine shards the
// components across workers and serves the structurally identical
// chains from its cache, so the parallel configuration computes one
// chain where the sequential path computes eight — every iteration.
func BenchmarkEngineCountSequentialVsParallel(b *testing.B) {
	for _, cfg := range engineConfigs() {
		b.Run(cfg.name, func(b *testing.B) {
			p := multiChains(8, 10)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := cfg.eng.CountCtx(context.Background(), core.Global, p)
				if err != nil || c == 0 {
					b.Fatalf("count = %d, %v", c, err)
				}
			}
		})
	}
}

// Full enumeration of L-Rep over a multi-component instance: the
// cross-product walk streams while later components are computed.
func BenchmarkEngineEnumerateSequentialVsParallel(b *testing.B) {
	for _, cfg := range engineConfigs() {
		b.Run(cfg.name, func(b *testing.B) {
			sc := workload.Clusters(10, 3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				cfg.eng.Enumerate(core.Local, sc.Pri, func(*bitset.Set) bool { n++; return true }) //nolint:errcheck
				if n == 0 {
					b.Fatal("empty family")
				}
			}
		})
	}
}

// End-to-end CQA on the parallel engine: a ground G-Rep query against
// a multi-chain instance. The pruned path recomputes the touched
// chain's G-Rep choices on every evaluation; the memoizing engine
// computes them once and serves every later query from the cache —
// the "repeated queries against the same instance" scenario.
func BenchmarkEngineCQASequentialVsParallel(b *testing.B) {
	for _, cfg := range engineConfigs() {
		b.Run(cfg.name, func(b *testing.B) {
			p := multiChains(8, 10)
			inst, fds := multiChainsInstance(8, 10)
			in, err := cqa.NewInput(&cqa.Relation{Inst: inst, FDs: fds, Pri: p})
			if err != nil {
				b.Fatal(err)
			}
			in = in.WithEngine(cfg.eng)
			// Chain 0's first tuple: in the unique G-Rep outcome.
			q := query.MustParse("R(1000000, 0, 1001000, 1)")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, err := cqa.Evaluate(core.Global, in, q)
				if err != nil || a != cqa.CertainlyTrue {
					b.Fatalf("%v %v", a, err)
				}
			}
		})
	}
}

// --- requests that consult every component of a version ---

// One warm whole-relation verification at 16 000 two-tuple clusters
// (3 undetermined): a clone of the version's resolved base and one
// evaluation on the union of its 8 preferred repairs, where the query
// is false. TestWarmRequestAllocations gates the bytes.
func BenchmarkWholeRelationVerify(b *testing.B) {
	snap, err := clusterDB(b, 16000).Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a, err := snap.QueryContext(ctx, Global, wholeRelationQuery); err != nil || a != False {
			b.Fatalf("%v %v", a, err)
		}
	}
}

// chainDB builds the acyclic chain CR(A,B) ⋈ CS(B,C) ⋈ CT(C,D) over n
// rows per relation with an empty join (CT.C starts where CS.C ends, so
// no executor can stop at a first witness). CR has three undetermined
// key conflicts: 8 preferred repairs, like the chain class of the
// serving benchmark's analytic dataset.
func chainDB(tb testing.TB, n int) *DB {
	tb.Helper()
	db := New()
	for _, spec := range []struct {
		name   string
		attrs  [2]string
		off    int
		undets int
	}{{"CR", [2]string{"A", "B"}, 0, 3}, {"CS", [2]string{"B", "C"}, 0, 0}, {"CT", [2]string{"C", "D"}, 2 * n, 0}} {
		r, err := db.CreateRelation(spec.name, IntAttr(spec.attrs[0]), IntAttr(spec.attrs[1]))
		if err != nil {
			tb.Fatal(err)
		}
		if err := r.AddFD(spec.attrs[0] + " -> " + spec.attrs[1]); err != nil {
			tb.Fatal(err)
		}
		rows := make([]Tuple, 0, n+spec.undets)
		for i := 0; i < n; i++ {
			rows = append(rows, Tuple{Int(int64(spec.off + i)), Int(int64(i))})
		}
		for j := 0; j < spec.undets; j++ {
			rows = append(rows, Tuple{Int(int64(spec.off + j)), Int(int64(n + j))})
		}
		if _, err := r.InsertRows(rows); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

const chainQuery = "EXISTS a, b, c, d . CR(a, b) AND CS(b, c) AND CT(c, d)"

// One warm verification of the chain join at 4 000 rows per relation:
// the join is empty on the union of CR's 8 preferred repairs, so it is
// evaluated once, not once per repair.
func BenchmarkChainVerify(b *testing.B) {
	snap, err := chainDB(b, 4000).Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a, err := snap.QueryContext(ctx, Global, chainQuery); err != nil || a != False {
			b.Fatalf("%v %v", a, err)
		}
	}
}

// One warm request of the serving benchmark's declined class at 16 000
// clusters: the support analysis refuses the query, the whole-database
// enumeration visits preferred repairs until it has seen both outcomes,
// and each visit is one evaluation that binds x from its equality.
// TestWarmRequestAllocations gates the bytes.
func BenchmarkDeclinedVerify(b *testing.B) {
	const n = 16000
	db := clusterDB(b, n)
	snap, err := db.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	check := func() {
		if a, err := snap.QueryContext(ctx, Global, declinedQuery(n)); err != nil || a != Undetermined {
			b.Fatalf("%v %v", a, err)
		}
	}
	check()
	if st := db.QueryStats(); st.ClosedFull == 0 || st.ClosedPruned != 0 {
		b.Fatalf("the declined query was not answered by the whole-database enumeration: %+v", st)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		check()
	}
}

// One warm EnumerateRepairs on the same data, stopped at its first
// yield: the resolved walk plus materializing one repair.
func BenchmarkRepairsFirstYield(b *testing.B) {
	snap, err := clusterDB(b, 16000).Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		yields := 0
		err := snap.EnumerateRepairs(ctx, Global, "R", func(*Instance) bool { yields++; return false })
		if err != nil || yields != 1 {
			b.Fatalf("%d yields, %v", yields, err)
		}
	}
}

// --- facade end-to-end ---

// One single-tuple update on 2m tuples (m two-tuple clusters, each
// oriented toward its anchor) — delete the losing side of a rotating
// cluster, insert a replacement, orient the fresh conflict — followed
// by one read: a ground G-Rep query or a full repair count.
// "incremental" patches the touched component; "rebuild" is
// withIncremental(false), the reference of mutation_test.go, which
// rebuilds graph, priority and component index for every read. Both
// modes must give the same answers.
func BenchmarkMutationUpdate(b *testing.B) {
	const m = 2000
	for _, kind := range []string{"query", "count"} {
		for _, mode := range []string{"incremental", "rebuild"} {
			b.Run(kind+"/"+mode, func(b *testing.B) {
				db := New(withIncremental(mode == "incremental"))
				r, err := db.CreateRelation("R", IntAttr("K"), IntAttr("V"))
				if err != nil {
					b.Fatal(err)
				}
				if err := r.AddFD("K -> V"); err != nil {
					b.Fatal(err)
				}
				anchor := make([]TupleID, m) // the (key, 0) tuple of each cluster
				for i := 0; i < m; i++ {
					anchor[i] = r.MustInsert(i, 0)
					if err := r.Prefer(anchor[i], r.MustInsert(i, 1)); err != nil {
						b.Fatal(err)
					}
				}
				if c, err := db.CountRepairs(Global, "R"); err != nil || c != 1 {
					b.Fatalf("initial G-Rep count = %d, %v; want 1", c, err) // build and publish
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					key, gen := i%m, i/m
					// Replace the cluster's (key, 1+gen) tuple with the next
					// value: every cluster stays at two live tuples with the
					// conflict resolved toward the anchor.
					if old, ok := r.Instance().Lookup(Tuple{Int(int64(key)), Int(int64(1 + gen))}); ok {
						r.Delete(old)
					}
					id, err := r.Insert(key, 2+gen)
					if err != nil {
						b.Fatal(err)
					}
					if err := r.Prefer(anchor[key], id); err != nil {
						b.Fatal(err)
					}
					if kind == "count" {
						if c, err := db.CountRepairs(Global, "R"); err != nil || c != 1 {
							b.Fatalf("G-Rep count = %d, %v", c, err)
						}
						continue
					}
					if a, err := db.Query(Global, fmt.Sprintf("R(%d, 0)", key)); err != nil || a != True {
						b.Fatalf("anchor (%d, 0) not certain: %v, %v", key, a, err)
					}
				}
			})
		}
	}
}

// BenchmarkUpdateCycle times the iteration the serving benchmark's
// write_mix replays (updateCycle, alloc_test.go): three writes, each
// followed by the Snapshot that derives a version from it and a point
// query at that version. BenchmarkMutationUpdate's 2 000 clusters are
// too few to show what a derivation costs; at these sizes a version
// that copied its overlays would pay for thousands of entries per
// write. The warm-up leaves the overlays between two compactions.
func BenchmarkUpdateCycle(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"25k", 25000}, {"100k", 100000}} {
		b.Run(size.name, func(b *testing.B) {
			u := newUpdateCycle(b, size.n)
			era := func() uint64 {
				g, err := u.r.Graph()
				if err != nil {
					b.Fatal(err)
				}
				return g.Era()
			}
			first := era()
			for i := 0; i < 3000; i++ {
				u.step(b, nil) // asserts the three answers
			}
			if era() == first {
				b.Fatal("3000 warm-up iterations never compacted the conflict graph")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u.step(b, nil)
			}
		})
	}
}

func BenchmarkFacadeQueryGlobal(b *testing.B) {
	db := New()
	mgr, err := db.CreateRelation("Mgr",
		NameAttr("Name"), NameAttr("Dept"), IntAttr("Salary"), IntAttr("Reports"))
	if err != nil {
		b.Fatal(err)
	}
	mary := mgr.MustInsert("Mary", "R&D", 40, 3)
	john := mgr.MustInsert("John", "R&D", 10, 2)
	maryIT := mgr.MustInsert("Mary", "IT", 20, 1)
	johnPR := mgr.MustInsert("John", "PR", 30, 4)
	if err := mgr.AddFD("Dept -> Name,Salary,Reports"); err != nil {
		b.Fatal(err)
	}
	if err := mgr.AddFD("Name -> Dept,Salary,Reports"); err != nil {
		b.Fatal(err)
	}
	mgr.Prefer(mary, maryIT) //nolint:errcheck
	mgr.Prefer(john, johnPR) //nolint:errcheck
	q := `EXISTS x1, y1, z1, x2, y2, z2 .
		Mgr('Mary', x1, y1, z1) AND Mgr('John', x2, y2, z2) AND y1 > y2 AND z1 < z2`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := db.Query(Global, q)
		if err != nil || a != True {
			b.Fatalf("%v %v", a, err)
		}
	}
}
