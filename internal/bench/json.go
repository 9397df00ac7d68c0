package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"prefcqa"
	"prefcqa/internal/bitset"
	"prefcqa/internal/clean"
	"prefcqa/internal/conflict"
	"prefcqa/internal/core"
	"prefcqa/internal/cqa"
	"prefcqa/internal/fd"
	"prefcqa/internal/priority"
	"prefcqa/internal/query"
	"prefcqa/internal/relation"
	"prefcqa/internal/repair"
	"prefcqa/internal/workload"
)

// Metric is one machine-readable benchmark result. NsPerOp, BytesPerOp
// and AllocsPerOp mirror `go test -bench -benchmem`; Extra carries
// metric-specific throughput numbers (e.g. repairs_per_sec).
type Metric struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Report is the JSON document emitted by `prefbench -json`. Checked-in
// snapshots (BENCH_<pr>.json) accumulate the performance trajectory of
// the repo across PRs.
type Report struct {
	Schema      string   `json:"schema"`
	GeneratedAt string   `json:"generated_at"`
	GoVersion   string   `json:"go_version"`
	GOOS        string   `json:"goos"`
	GOARCH      string   `json:"goarch"`
	CPUs        int      `json:"cpus"`
	Quick       bool     `json:"quick"`
	Results     []Metric `json:"results"`
}

// measure runs fn under the testing benchmark harness and records the
// result. extra maps metric names to per-op counts that are converted
// to per-second rates (count * 1e9 / ns_per_op).
func measure(name string, extra map[string]float64, fn func(b *testing.B)) Metric {
	r := testing.Benchmark(fn)
	m := Metric{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
	if len(extra) > 0 && m.NsPerOp > 0 {
		m.Extra = map[string]float64{}
		for k, perOp := range extra {
			m.Extra[k+"_per_sec"] = perOp * 1e9 / m.NsPerOp
		}
	}
	return m
}

// JSON runs the machine-readable benchmark suite. The suite is the
// stable core of the repo's performance surface: conflict-graph
// construction, priority generation, per-component enumeration,
// componentwise counting, cleaning, and ground CQA.
func JSON(o Options) Report {
	rep := Report{
		Schema:      "prefbench/v1",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CPUs:        runtime.NumCPU(),
		Quick:       o.Quick,
	}
	pick := func(quick, full int) int {
		if o.Quick {
			return quick
		}
		return full
	}

	// Conflict-graph construction (CSR streaming build).
	pairsN := pick(1024, 4096)
	if o.want("conflict_build/pairs") {
		pairs := workload.Pairs(pairsN)
		rep.add(measure("conflict_build/pairs", map[string]float64{"tuples": float64(2 * pairsN)}, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				conflict.MustBuild(pairs.Inst, pairs.FDs)
			}
		}))
	}
	clustersM := pick(10_000, 50_000)
	// The large sparse clusters instance is shared by three workloads;
	// build it lazily so a -workloads filter skipping all of them
	// skips the construction too.
	var bigMemo *workload.Scenario
	big := func() *workload.Scenario {
		if bigMemo == nil {
			bigMemo = workload.Clusters(clustersM, 2)
		}
		return bigMemo
	}
	if o.want("conflict_build/clusters") {
		rep.add(measure("conflict_build/clusters", map[string]float64{"tuples": float64(2 * clustersM)}, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				conflict.MustBuild(big().Inst, big().FDs)
			}
		}))
	}

	// Priority generation over every conflict edge.
	if o.want("priority_from_ranks") {
		bigG := big().Graph()
		rep.add(measure("priority_from_ranks/clusters", map[string]float64{"edges": float64(clustersM)}, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				priority.FromRanks(bigG, func(id relation.TupleID) int { return id % 2 })
			}
		}))
	}

	// Per-component enumeration: allocation-free local Bron–Kerbosch.
	if o.want("component_enumeration") {
		chain := workload.Chain(pick(16, 24))
		chainComp := chain.Graph().Components()[0]
		sets := float64(repair.CountComponent(chain.Graph(), chainComp))
		rep.add(measure("component_enumeration/chain", map[string]float64{"repairs": sets}, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				repair.CountComponent(chain.Graph(), chainComp)
			}
		}))
	}

	// Componentwise counting on the large sparse instance, per family,
	// on the production engine (workers + memo).
	for _, f := range []core.Family{core.Local, core.Global, core.Common} {
		f := f
		name := "engine_count/" + f.String() + "/clusters"
		if !o.want(name) {
			continue
		}
		bigP := priority.FromRanks(big().Graph(), func(id relation.TupleID) int { return id % 2 })
		eng := core.NewEngine()
		rep.add(measure(name,
			map[string]float64{"components": float64(clustersM)}, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := eng.Count(f, bigP); err != nil {
						b.Fatal(err)
					}
				}
			}))
	}

	// Full enumeration throughput in repairs/sec.
	if o.want("enumerate/rep") {
		enumSc := workload.Clusters(pick(8, 10), 3)
		enumCount := 0
		core.Enumerate(core.Rep, enumSc.Pri, func(*bitset.Set) bool { enumCount++; return true }) //nolint:errcheck
		rep.add(measure("enumerate/rep/clusters", map[string]float64{"repairs": float64(enumCount)}, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Enumerate(core.Rep, enumSc.Pri, func(*bitset.Set) bool { return true }) //nolint:errcheck
			}
		}))
	}

	// Algorithm 1 cleaning.
	if o.want("clean_deterministic") {
		cleanSc := workload.Clusters(pick(400, 1600), 3)
		cleanP := cleanSc.Pri.TotalExtension(nil)
		rep.add(measure("clean_deterministic/clusters",
			map[string]float64{"tuples": float64(cleanSc.Inst.Len())}, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					clean.Deterministic(cleanP)
				}
			}))
	}

	// Ground quantifier-free CQA (the PTIME witness-cover path).
	if o.want("ground_cqa") {
		cqaN := pick(16, 32)
		cqaSc := workload.Pairs(cqaN)
		in, err := cqa.NewInput(&cqa.Relation{Inst: cqaSc.Inst, FDs: cqaSc.FDs, Pri: cqaSc.Pri})
		if err == nil {
			q := groundOrQuery(cqaN)
			rep.add(measure("ground_cqa/pairs", nil, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := cqa.GroundQFEvaluate(in, q); err != nil {
						b.Fatal(err)
					}
				}
			}))
		}
	}

	// Mutation workload: a hot serving scenario over a large instance —
	// single-tuple updates (delete + insert + re-orient) each followed
	// by a ground query (or a repair count), on incremental delta
	// maintenance vs the full-rebuild baseline (WithIncremental(false)).
	// The tuple count matches the conflict_build/clusters instance:
	// 2 * clustersM tuples.
	mutM := pick(10_000, 50_000)
	for _, kind := range []string{"query", "count"} {
		kind := kind
		if !o.want("mutation_update_" + kind) {
			continue
		}
		incMetric := measure("mutation_update_"+kind+"/incremental", nil, MutationWorkload(mutM, true, kind))
		rebMetric := measure("mutation_update_"+kind+"/rebuild", nil, MutationWorkload(mutM, false, kind))
		rep.add(incMetric)
		rep.add(rebMetric)
		if incMetric.NsPerOp > 0 {
			rep.add(Metric{
				Name:       "mutation_update_" + kind + "/speedup",
				Iterations: 1,
				Extra:      map[string]float64{"x": rebMetric.NsPerOp / incMetric.NsPerOp},
			})
		}
	}

	// Selective-query workloads: the planner's index access paths on
	// a large instance. "point" and "join" are high-selectivity (a
	// ten-tuple posting out of selN tuples), "lowsel" matches half the
	// instance. The row names keep their "/indexed" suffix so the
	// trajectory in BENCH_4…10.json stays comparable.
	selN := pick(10_000, 100_000)
	for _, kind := range []string{"point", "join", "lowsel"} {
		kind := kind
		if !o.want("selective_" + kind) {
			continue
		}
		rep.add(measure("selective_"+kind+"_query/indexed",
			map[string]float64{"tuples": float64(selN)}, SelectiveWorkload(selN, kind)))
	}

	// Acyclic-join workload: a three-atom chain with an empty join,
	// answered by the Yannakakis executor (bottom-up semijoin
	// reduction) vs the vectorized greedy executor forced via
	// query.EvalGreedy.
	if o.want("acyclic_chain_query") {
		acyN := pick(10_000, 100_000)
		yanMetric := measure("acyclic_chain_query/yannakakis",
			map[string]float64{"tuples": float64(acyN)}, AcyclicWorkload(acyN, "yannakakis"))
		greedyMetric := measure("acyclic_chain_query/greedy",
			map[string]float64{"tuples": float64(acyN)}, AcyclicWorkload(acyN, "greedy"))
		rep.add(yanMetric)
		rep.add(greedyMetric)
		if yanMetric.NsPerOp > 0 {
			rep.add(Metric{
				Name:       "acyclic_chain_query/speedup",
				Iterations: 1,
				Extra:      map[string]float64{"x": greedyMetric.NsPerOp / yanMetric.NsPerOp},
			})
		}
	}

	// Open-query workload: certain answers of an open query over a
	// mostly-clean instance, answered by direct spine enumeration
	// (compile once, enumerate candidate bindings off the columnar
	// data, verify survivors) vs the active-domain substitution
	// baseline, which re-evaluates the closed query once per candidate
	// value of the free variable. Sized below the join workloads: each
	// surviving candidate costs a full repair-enumerating closed check,
	// and the substitution baseline pays it for the whole kind-pruned
	// domain (200 names here), which at 100k tuples would not finish
	// in benchmark time — that gap is the point of the direct path.
	if o.want("open_query") {
		openN := pick(2_000, 10_000)
		directMetric := measure("open_query/direct",
			map[string]float64{"tuples": float64(openN)}, OpenQueryWorkload(openN, "direct"))
		substMetric := measure("open_query/subst",
			map[string]float64{"tuples": float64(openN)}, OpenQueryWorkload(openN, "subst"))
		rep.add(directMetric)
		rep.add(substMetric)
		if directMetric.NsPerOp > 0 {
			rep.add(Metric{
				Name:       "open_query/speedup",
				Iterations: 1,
				Extra:      map[string]float64{"x": substMetric.NsPerOp / directMetric.NsPerOp},
			})
		}
	}

	// Cyclic-join workload: an empty triangle join, answered by the
	// worst-case-optimal generic join (per-variable posting
	// intersection) vs the vectorized greedy executor forced via
	// query.EvalGreedy. The workload asserts the cost-based planner
	// actually picked the WCOJ executor.
	if o.want("cyclic_triangle_query") {
		cycN := pick(10_000, 100_000)
		wcojMetric := measure("cyclic_triangle_query/wcoj",
			map[string]float64{"tuples": float64(cycN)}, CyclicWorkload(cycN, "wcoj"))
		cgreedyMetric := measure("cyclic_triangle_query/greedy",
			map[string]float64{"tuples": float64(cycN)}, CyclicWorkload(cycN, "greedy"))
		rep.add(wcojMetric)
		rep.add(cgreedyMetric)
		if wcojMetric.NsPerOp > 0 {
			rep.add(Metric{
				Name:       "cyclic_triangle_query/speedup",
				Iterations: 1,
				Extra:      map[string]float64{"x": cgreedyMetric.NsPerOp / wcojMetric.NsPerOp},
			})
		}
	}

	// Verification workload: one quantified closed query over a large
	// multi-component instance, answered by the component-pruned
	// vectorized repair walk (cqa.Evaluate) vs the pinned full
	// whole-database repair enumeration (cqa.EvaluateFull). The
	// workload asserts both paths agree and that the pruned path
	// actually fired (EvalStats.ClosedPruned).
	verifyN := pick(10_000, 100_000)
	if o.want("verify_query") {
		prunedMetric := measure("verify_query/pruned",
			map[string]float64{"tuples": float64(verifyN)}, VerifyWorkload(verifyN, "pruned"))
		fullMetric := measure("verify_query/full",
			map[string]float64{"tuples": float64(verifyN)}, VerifyWorkload(verifyN, "full"))
		rep.add(prunedMetric)
		rep.add(fullMetric)
		if prunedMetric.NsPerOp > 0 {
			rep.add(Metric{
				Name:       "verify_query/speedup",
				Iterations: 1,
				Extra:      map[string]float64{"x": fullMetric.NsPerOp / prunedMetric.NsPerOp},
			})
		}
	}

	// Serving-layer workload: sustained concurrent ground queries
	// against a live prefserve over real loopback sockets, snapshot
	// per read — first read-only, then with concurrent writers
	// churning single-tuple update batches through the incremental
	// delta path. Reports qps and p50/p99 latency.
	srvM := pick(1_000, 10_000)
	srvReqs := pick(800, 4_000)
	for _, writers := range []int{0, 2} {
		if !o.want("server_query") {
			break
		}
		m, err := ServerWorkload(srvM, 8, writers, srvReqs)
		if err != nil {
			m = Metric{Name: fmt.Sprintf("server_query/%s", map[bool]string{false: "readonly", true: "mixed"}[writers > 0]),
				Extra: map[string]float64{"failed": 1}}
			fmt.Fprintln(os.Stderr, "server workload failed:", err)
		}
		rep.add(m)
	}

	// Durability cost: sustained write throughput through the full
	// stack — HTTP, facade, write-ahead log — under each fsync
	// policy. fsync=off is the no-durability-cost baseline (the log
	// is written, the OS flushes), group batches fsyncs on a short
	// timer, always fsyncs before every ack (group commit shares
	// fsyncs across concurrent committers).
	durWrites := pick(400, 2_000)
	for _, policy := range []prefcqa.SyncPolicy{prefcqa.SyncNever, prefcqa.SyncGroup, prefcqa.SyncAlways} {
		if !o.want("server_write") {
			break
		}
		m, err := ServerWriteWorkload(policy, 8, durWrites)
		if err != nil {
			label := policy.String()
			if policy == prefcqa.SyncNever {
				label = "off"
			}
			m = Metric{Name: "server_write/" + label, Extra: map[string]float64{"failed": 1}}
			fmt.Fprintln(os.Stderr, "durable write workload failed:", err)
		}
		rep.add(m)
	}

	// Replication read scale-out: the same ground-query read workload,
	// served through 1..N WAL-shipping followers behind a
	// follower-aware ReplicaSet, every read pinned at the preload's
	// write-version. qps across rows is the scale-out curve; lag_p99
	// is the acked-write → follower-readable catch-up tail.
	replM := pick(500, 5_000)
	replReqs := pick(600, 3_000)
	for _, followers := range []int{1, 2, 3} {
		if !o.want("repl_read_scaleout") {
			break
		}
		m, err := ReplicationWorkload(replM, followers, 8, replReqs)
		if err != nil {
			m = Metric{Name: fmt.Sprintf("repl_read_scaleout/f%d", followers), Extra: map[string]float64{"failed": 1}}
			fmt.Fprintln(os.Stderr, "replication workload failed:", err)
		}
		rep.add(m)
	}
	return rep
}

// SelectiveWorkload builds an n-tuple relation R(K, L, V) — K
// point-selective (ten tuples per key), L half-selective — plus an
// n-tuple join target S(W, X) with unique W, and returns a benchmark
// whose op is one closed selective query answered by the cost-based
// planner. Every query carries an always-false residual so the
// access path is traversed in full instead of short-circuiting at
// the first match:
//
//	point   EXISTS l, v . R(7, l, v) AND v < 0          (10-row posting)
//	join    EXISTS l, v, x . R(7, l, v) AND S(v, x) AND x < 0
//	lowsel  EXISTS k, v . R(k, 1, v) AND v < 0          (n/2-row posting)
//
// Exported so the top-level go-bench suite measures exactly the
// prefbench workload.
func SelectiveWorkload(n int, kind string) func(b *testing.B) {
	return func(b *testing.B) {
		db := relation.NewDatabase()
		r := relation.NewInstance(relation.MustSchema("R",
			relation.IntAttr("K"), relation.IntAttr("L"), relation.IntAttr("V")))
		for i := 0; i < n; i++ {
			r.MustInsert(i/10, i%2, i)
		}
		s := relation.NewInstance(relation.MustSchema("S",
			relation.IntAttr("W"), relation.IntAttr("X")))
		for i := 0; i < n; i++ {
			s.MustInsert(i, i)
		}
		if err := db.AddInstance(r); err != nil {
			b.Fatal(err)
		}
		if err := db.AddInstance(s); err != nil {
			b.Fatal(err)
		}
		m := query.DBModel{DB: db}
		var src string
		switch kind {
		case "point":
			src = "EXISTS l, v . R(7, l, v) AND v < 0"
		case "join":
			src = "EXISTS l, v, x . R(7, l, v) AND S(v, x) AND x < 0"
		case "lowsel":
			src = "EXISTS k, v . R(k, 1, v) AND v < 0"
		default:
			b.Fatalf("unknown selective workload %q", kind)
		}
		q := query.MustParse(src)
		// Warm the lazily built indexes so ops measure steady state.
		if res, err := query.Eval(q, m); err != nil || res {
			b.Fatalf("warmup: %v, %v", res, err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := query.Eval(q, m)
			if err != nil || res {
				b.Fatalf("%v, %v", res, err)
			}
		}
	}
}

// AcyclicWorkload builds a three-relation chain R(A,B) ⋈ S(B,C) ⋈
// T(C,D) with n tuples each, where S and T share no C values, and
// returns a benchmark whose op is the closed chain query
//
//	EXISTS a, b, c, d . R(a, b) AND S(b, c) AND T(c, d)
//
// The join is empty, so no executor can short-circuit on a witness:
// the vectorized greedy executor walks all n R tuples probing S and
// T per tuple, while the Yannakakis executor discovers the emptiness
// in one bottom-up semijoin pass (T semijoin S empties T's mask) and
// never enumerates. mode selects the executor: "yannakakis" is the
// cost-based query.Eval, asserted to actually pick the Yannakakis
// path; "greedy" forces the vectorized greedy executor via
// query.EvalGreedy. Exported so the top-level go-bench suite measures
// exactly the prefbench workload.
func AcyclicWorkload(n int, mode string) func(b *testing.B) {
	return func(b *testing.B) {
		db := relation.NewDatabase()
		r := relation.NewInstance(relation.MustSchema("R",
			relation.IntAttr("A"), relation.IntAttr("B")))
		s := relation.NewInstance(relation.MustSchema("S",
			relation.IntAttr("B"), relation.IntAttr("C")))
		tr := relation.NewInstance(relation.MustSchema("T",
			relation.IntAttr("C"), relation.IntAttr("D")))
		for i := 0; i < n; i++ {
			r.MustInsert(i, i)
			s.MustInsert(i, i)
			tr.MustInsert(i+n, i) // S.C and T.C are disjoint
		}
		for _, inst := range []*relation.Instance{r, s, tr} {
			if err := db.AddInstance(inst); err != nil {
				b.Fatal(err)
			}
		}
		m := query.DBModel{DB: db}
		eval := query.Eval
		if mode == "greedy" {
			eval = query.EvalGreedy
		} else if mode != "yannakakis" {
			b.Fatalf("unknown acyclic workload mode %q", mode)
		}
		q := query.MustParse("EXISTS a, b, c, d . R(a, b) AND S(b, c) AND T(c, d)")
		// Warm the lazily built indexes; in Yannakakis mode also pin
		// that the cost-based planner actually chose that executor.
		if mode == "yannakakis" {
			res, trace, err := query.EvalTrace(q, m)
			if err != nil || res {
				b.Fatalf("warmup: %v, %v", res, err)
			}
			if len(trace.Execs) == 0 || trace.Execs[0].Executor != query.ExecYannakakis {
				b.Fatalf("planner did not choose the Yannakakis executor:\n%s",
					trace.Execs[0].Describe())
			}
		} else if res, err := eval(q, m); err != nil || res {
			b.Fatalf("warmup: %v, %v", res, err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := eval(q, m)
			if err != nil || res {
				b.Fatalf("%v, %v", res, err)
			}
		}
	}
}

// OpenQueryWorkload builds an n-tuple relation R(Name, Val) — Name
// cycling through 100 distinct names, Val unique — plus 100 oriented
// key conflicts on the FD Val -> Name (twin names), and returns a
// benchmark whose op is the certain-answer set of the open query
//
//	EXISTS v . R(x, v) AND v > n-6
//
// under the globally-optimal family. Every candidate the spine does
// not kill costs one closed certain-answer check, and that check
// enumerates preferred repairs of the whole instance — so the win of
// the direct path is proportional to the candidates it prunes. mode
// selects the executor: "direct" is cqa.FreeAnswers, asserted (via
// cqa.EvalStats) to take the direct spine-enumeration path — one
// columnar pass finds the 5 names the residual leaves alive, and only
// those are verified. "subst" forces the active-domain substitution
// baseline (cqa.FreeAnswersSubst), which closed-evaluates all 200
// names of x's kind-pruned domain (kind-aware pruning already keeps
// the n distinct integers out; without it the baseline would not
// terminate in benchmark time). Exported so the top-level go-bench
// suite measures exactly the prefbench workload.
func OpenQueryWorkload(n int, mode string) func(b *testing.B) {
	return func(b *testing.B) {
		schema := relation.MustSchema("R", relation.NameAttr("Name"), relation.IntAttr("Val"))
		inst := relation.NewInstance(schema)
		first := make([]relation.TupleID, 100) // the ("u<j>", j) tuple of each conflict pair
		for i := 0; i < n; i++ {
			id := inst.MustInsert(fmt.Sprintf("u%d", i%100), i)
			if i < 100 {
				first[i] = id
			}
		}
		// 100 conflicting twins (same Val, different Name) — a mostly-
		// clean instance with real conflicts, oriented to the original.
		twins := make([]relation.TupleID, 100)
		for j := 0; j < 100; j++ {
			twins[j] = inst.MustInsert(fmt.Sprintf("x%d", j), j)
		}
		rel, err := cqa.NewRelation(inst, fd.MustParseSet(schema, "Val -> Name"))
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 100; j++ {
			rel.Pri.MustAdd(first[j], twins[j])
		}
		in, err := cqa.NewInput(rel)
		if err != nil {
			b.Fatal(err)
		}
		stats := &cqa.EvalStats{}
		in = in.WithStats(stats)
		q := query.MustParse(fmt.Sprintf("EXISTS v . R(x, v) AND v > %d", n-6))
		answers := func() []cqa.Binding {
			var ans []cqa.Binding
			var err error
			switch mode {
			case "direct":
				ans, err = cqa.FreeAnswers(core.Global, in, q)
			case "subst":
				ans, err = cqa.FreeAnswersSubst(core.Global, in, q)
			default:
				b.Fatalf("unknown open workload mode %q", mode)
			}
			if err != nil {
				b.Fatal(err)
			}
			return ans
		}
		// Warm the lazily built indexes; the 5 matching tuples are
		// conflict-free, so the answer count is family-independent. In
		// direct mode also pin that the direct path actually fired.
		if got := len(answers()); got != 5 {
			b.Fatalf("warmup: %d answers, want 5", got)
		}
		if snap := stats.Snapshot(); mode == "direct" && (snap.OpenDirect == 0 || snap.OpenFallback != 0) {
			b.Fatalf("direct open enumeration did not fire: %+v", snap)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := len(answers()); got != 5 {
				b.Fatalf("%d answers, want 5", got)
			}
		}
	}
}

// CyclicWorkload builds a triangle R(A,B) ⋈ S(B,C) ⋈ T(C,A) with n
// tuples per relation over 1000 distinct join values, T's A column
// offset so the join is empty, and returns a benchmark whose op is
// the closed triangle query
//
//	EXISTS a, b, c . R(a, b) AND S(b, c) AND T(c, a)
//
// The spine is cyclic (GYO ear removal fails), so the cost-based
// planner hands it to the worst-case-optimal generic join, which
// discovers the emptiness at the first variable level: every
// candidate a value has an empty T posting, so no (a, b) pair is ever
// enumerated. The greedy baseline (mode "greedy", query.EvalGreedy)
// instead walks all n R tuples and probes S and T per tuple. mode
// "wcoj" is the cost-based query.Eval, asserted to actually pick the
// WCOJ executor. Exported so the top-level go-bench suite measures
// exactly the prefbench workload.
func CyclicWorkload(n int, mode string) func(b *testing.B) {
	return func(b *testing.B) {
		const v = 1000 // distinct values per join column
		db := relation.NewDatabase()
		r := relation.NewInstance(relation.MustSchema("R",
			relation.IntAttr("A"), relation.IntAttr("B")))
		s := relation.NewInstance(relation.MustSchema("S",
			relation.IntAttr("B"), relation.IntAttr("C")))
		tr := relation.NewInstance(relation.MustSchema("T",
			relation.IntAttr("C"), relation.IntAttr("A")))
		for i := 0; i < n; i++ {
			lo, fan := i%v, (i%v+i/v)%v // n distinct pairs, n/v fan-out per value
			r.MustInsert(lo, fan)
			s.MustInsert(lo, fan)
			tr.MustInsert(lo, v+fan) // T.A and R.A are disjoint
		}
		for _, inst := range []*relation.Instance{r, s, tr} {
			if err := db.AddInstance(inst); err != nil {
				b.Fatal(err)
			}
		}
		m := query.DBModel{DB: db}
		eval := query.Eval
		if mode == "greedy" {
			eval = query.EvalGreedy
		} else if mode != "wcoj" {
			b.Fatalf("unknown cyclic workload mode %q", mode)
		}
		q := query.MustParse("EXISTS a, b, c . R(a, b) AND S(b, c) AND T(c, a)")
		// Warm the lazily built indexes; in WCOJ mode also pin that the
		// cost-based planner actually chose the generic join.
		if mode == "wcoj" {
			res, trace, err := query.EvalTrace(q, m)
			if err != nil || res {
				b.Fatalf("warmup: %v, %v", res, err)
			}
			if len(trace.Execs) == 0 || trace.Execs[0].Executor != query.ExecWCOJ {
				b.Fatalf("planner did not choose the WCOJ executor:\n%s",
					trace.Execs[0].Describe())
			}
		} else if res, err := eval(q, m); err != nil || res {
			b.Fatalf("warmup: %v, %v", res, err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := eval(q, m)
			if err != nil || res {
				b.Fatalf("%v, %v", res, err)
			}
		}
	}
}

// MutationWorkload builds a 2m-tuple instance (m conflict pairs, each
// resolved by a preference) and returns a benchmark whose op is one
// single-tuple update — delete one side of a rotating conflict pair,
// insert a replacement, orient the fresh conflict — plus one read:
// a ground query under G-Rep (kind "query") or a full repair count
// (kind "count"). With incremental maintenance the update touches one
// component (the query then reads it; the count multiplies cached
// per-component counts); with it disabled every op rebuilds graph,
// priority and component index from scratch.
// It is exported so the top-level go-bench suite measures exactly the
// workload the prefbench JSON snapshots (BENCH_*.json) are based on.
func MutationWorkload(m int, incremental bool, kind string) func(b *testing.B) {
	return func(b *testing.B) {
		db := prefcqa.New(prefcqa.WithIncremental(incremental))
		r, err := db.CreateRelation("R", prefcqa.IntAttr("K"), prefcqa.IntAttr("V"))
		if err != nil {
			b.Fatal(err)
		}
		if err := r.AddFD("K -> V"); err != nil {
			b.Fatal(err)
		}
		anchor := make([]prefcqa.TupleID, m) // the (key, 0) tuple of each cluster
		for i := 0; i < m; i++ {
			anchor[i] = r.MustInsert(i, 0)
			loser := r.MustInsert(i, 1)
			if err := r.Prefer(anchor[i], loser); err != nil {
				b.Fatal(err)
			}
		}
		if c, err := db.CountRepairs(prefcqa.Global, "R"); err != nil || c != 1 {
			b.Fatalf("initial G-Rep count = %d, %v; want 1", c, err) // build and publish
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			key, gen := i%m, i/m
			// Update: replace the cluster's (key, 1+gen) tuple with the
			// next value, keeping every cluster at two live tuples with
			// the conflict resolved toward the anchor.
			old, ok := r.Instance().Lookup(prefcqa.Tuple{prefcqa.Int(int64(key)), prefcqa.Int(int64(1 + gen))})
			if ok {
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
				if c, err := db.CountRepairs(prefcqa.Global, "R"); err != nil || c != 1 {
					b.Fatalf("G-Rep count = %d, %v", c, err)
				}
				continue
			}
			a, err := db.Query(prefcqa.Global, fmt.Sprintf("R(%d, 0)", key))
			if err != nil {
				b.Fatal(err)
			}
			if a != prefcqa.True {
				b.Fatalf("anchor (%d, 0) not certain: %v", key, a)
			}
		}
	}
}

func (r *Report) add(m Metric) { r.Results = append(r.Results, m) }

// WriteJSON renders the report as indented JSON.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
