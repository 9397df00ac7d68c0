package prefcqa_test

import (
	"testing"

	"prefcqa/internal/bench"
)

// The mutation-workload benchmarks reuse bench.MutationWorkload — the
// exact op the prefbench -json suite snapshots into BENCH_*.json
// (single-tuple update + ground G-Rep query / repair count) — at a
// size small enough for CI's 1x smoke run. This file is an external
// test package because internal/bench imports the facade.

func BenchmarkMutationUpdateQueryIncremental(b *testing.B) {
	bench.MutationWorkload(2000, true, "query")(b)
}

func BenchmarkMutationUpdateQueryRebuild(b *testing.B) {
	bench.MutationWorkload(2000, false, "query")(b)
}

func BenchmarkMutationUpdateCountIncremental(b *testing.B) {
	bench.MutationWorkload(2000, true, "count")(b)
}

// The selective-query benchmarks reuse bench.SelectiveWorkload the
// same way: the planner's index access paths on the point/join/lowsel
// queries the BENCH_*.json selective rows measure.

func BenchmarkSelectivePointQueryIndexed(b *testing.B) {
	bench.SelectiveWorkload(20_000, "point")(b)
}

func BenchmarkSelectiveJoinQueryIndexed(b *testing.B) {
	bench.SelectiveWorkload(20_000, "join")(b)
}

func BenchmarkSelectiveLowselQueryIndexed(b *testing.B) {
	bench.SelectiveWorkload(20_000, "lowsel")(b)
}

// The acyclic-join benchmarks reuse bench.AcyclicWorkload: a
// three-atom chain with an empty join, answered by the Yannakakis
// semijoin executor (the cost-based default, asserted inside the
// workload) vs the vectorized greedy executor.

func BenchmarkAcyclicChainYannakakis(b *testing.B) {
	bench.AcyclicWorkload(20_000, "yannakakis")(b)
}

func BenchmarkAcyclicChainGreedy(b *testing.B) {
	bench.AcyclicWorkload(20_000, "greedy")(b)
}

// The open-query benchmarks reuse bench.OpenQueryWorkload: certain
// answers of an open query by direct spine enumeration (asserted
// inside the workload) vs the active-domain substitution baseline.

func BenchmarkOpenQueryDirect(b *testing.B) {
	bench.OpenQueryWorkload(2_000, "direct")(b)
}

func BenchmarkOpenQuerySubst(b *testing.B) {
	bench.OpenQueryWorkload(2_000, "subst")(b)
}

// The verification benchmarks reuse bench.VerifyWorkload: one
// quantified closed certain-answer check over a multi-component
// instance, answered by the component-pruned vectorized repair walk
// (asserted inside the workload) vs the pinned full whole-database
// enumeration.

func BenchmarkVerifyQueryPruned(b *testing.B) {
	bench.VerifyWorkload(2_000, "pruned")(b)
}

func BenchmarkVerifyQueryFull(b *testing.B) {
	bench.VerifyWorkload(2_000, "full")(b)
}

// The cyclic-join benchmarks reuse bench.CyclicWorkload: an empty
// triangle join, answered by the worst-case-optimal generic join (the
// cost-based default, asserted inside the workload) vs the vectorized
// greedy executor.

func BenchmarkCyclicTriangleWcoj(b *testing.B) {
	bench.CyclicWorkload(20_000, "wcoj")(b)
}

func BenchmarkCyclicTriangleGreedy(b *testing.B) {
	bench.CyclicWorkload(20_000, "greedy")(b)
}
