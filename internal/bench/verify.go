package bench

import (
	"testing"

	"prefcqa/internal/core"
	"prefcqa/internal/cqa"
	"prefcqa/internal/fd"
	"prefcqa/internal/query"
	"prefcqa/internal/relation"
)

// VerifyWorkload builds an n-tuple multi-component instance — n/2
// conflict clusters R(k, 0) / R(k, 1) under the FD K → V, all
// oriented toward the 0-tuple except the last three (so the Global
// family has exactly 2³ preferred repairs) — and returns a benchmark
// whose op is one quantified closed certain-answer check:
//
//	EXISTS v . R(7, v) AND v < 2
//
// The query's support is the K = 7 posting: two tuples, one oriented
// component. mode "pruned" answers through cqa.Evaluate — the support
// analysis prunes the repair walk to that single component and the
// compiled query re-runs per repair by swapping visibility subsets —
// while mode "full" answers through cqa.EvaluateFull, the pinned
// ablation baseline that enumerates preferred repairs of the whole
// database (a clone of the version's resolved base set, a walk over
// its undetermined components, one evaluation per repair visited —
// before the resolved structure, n/2 components lifted per repair).
// Both must agree on
// CertainlyTrue: cluster 7 is oriented, so R(7, 0) is in every
// preferred repair. The source of the BENCH_9.json verify_query rows.
func VerifyWorkload(n int, mode string) func(b *testing.B) {
	return func(b *testing.B) {
		schema := relation.MustSchema("R", relation.IntAttr("K"), relation.IntAttr("V"))
		inst := relation.NewInstance(schema)
		m := n / 2
		ids := make([][2]relation.TupleID, m)
		for k := 0; k < m; k++ {
			ids[k][0] = inst.MustInsert(k, 0)
			ids[k][1] = inst.MustInsert(k, 1)
		}
		rel, err := cqa.NewRelation(inst, fd.MustParseSet(schema, "K -> V"))
		if err != nil {
			b.Fatal(err)
		}
		// Orient every cluster toward its 0-tuple except the last
		// three: those stay undetermined, giving 2^3 = 8 preferred
		// Global repairs — all agreeing on the queried cluster.
		for k := 0; k < m-3; k++ {
			rel.Pri.MustAdd(ids[k][0], ids[k][1])
		}
		in, err := cqa.NewInput(rel)
		if err != nil {
			b.Fatal(err)
		}
		stats := &cqa.EvalStats{}
		in = in.WithEngine(core.NewEngine()).WithStats(stats)
		q := query.MustParse("EXISTS v . R(7, v) AND v < 2")
		check := func() {
			var ans cqa.Answer
			var err error
			switch mode {
			case "pruned":
				ans, err = cqa.Evaluate(core.Global, in, q)
			case "full":
				ans, err = cqa.EvaluateFull(core.Global, in, q)
			default:
				b.Fatalf("unknown verify workload mode %q", mode)
			}
			if err != nil {
				b.Fatal(err)
			}
			if ans != cqa.CertainlyTrue {
				b.Fatalf("%s answer = %v, want true", mode, ans)
			}
		}
		// Warmup: pin the differential (both paths agree) and that the
		// intended path fired.
		check()
		snap := stats.Snapshot()
		switch mode {
		case "pruned":
			if snap.ClosedPruned == 0 || snap.ClosedFull != 0 {
				b.Fatalf("pruned verification did not fire: %+v", snap)
			}
			if full, err := cqa.EvaluateFull(core.Global, in, q); err != nil || full != cqa.CertainlyTrue {
				b.Fatalf("full differential: ans=%v err=%v", full, err)
			}
		case "full":
			if snap.ClosedFull == 0 {
				b.Fatalf("full enumeration did not fire: %+v", snap)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			check()
		}
	}
}
