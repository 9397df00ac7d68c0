// Large-instance scale tests and benchmarks for the sparse (CSR)
// conflict representation and the component-local evaluation path.
//
// The paper's tractability story assumes sparse conflict graphs with
// small components; these tests pin the implementation to it: a
// 100k-tuple instance with ~50k conflicts must build its graph and
// priority in O(n+m) memory (single-digit MB, where the former dense
// representation — three n-bit sets per vertex across graph and
// priority, 3n²/8 bytes — measured ~950 MB at 50k tuples and grows
// quadratically to ~3.8 GB here), and every family's tractable
// counting path must complete within a tight budget.
package prefcqa

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"prefcqa/internal/bitset"
	"prefcqa/internal/conflict"
	"prefcqa/internal/core"
	"prefcqa/internal/priority"
	"prefcqa/internal/relation"
	"prefcqa/internal/repair"
	"prefcqa/internal/workload"
)

const (
	scaleClusters = 50_000  // clusters of 2 → 100k tuples, 50k conflicts
	scaleMemLimit = 8 << 20 // graph + component index + priority, retained
	scaleTimeout  = 2 * time.Minute
)

// scaleScenario returns the 100k-tuple / 50k-conflict workload: 50k
// independent key-violation pairs.
func scaleScenario() *workload.Scenario { return workload.Clusters(scaleClusters, 2) }

// retainedAfter runs fn and returns the retained heap growth it
// caused, measured across forced collections.
func retainedAfter(fn func()) int64 {
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestScale100kBuildMemory asserts the headline memory bound: the
// graph, its component index and a priority over 100k tuples / 50k
// conflicts retain a few MB between them, each measured on its own
// while the scenario (instance, dependencies, its own graph) stays
// alive, so that nothing it frees is netted against what is built.
// With the former dense n-bit-per-vertex sets this instance needed
// ~3.8 GB (quadratic in n; ~950 MB measured at 50k tuples).
func TestScale100kBuildMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test: skipped with -short")
	}
	start := time.Now()
	sc := scaleScenario()
	var g *conflict.Graph
	var p *priority.Priority
	graph := retainedAfter(func() { g = conflict.MustBuild(sc.Inst, sc.FDs) })
	comps := retainedAfter(func() { g.NumComponents() })
	pri := retainedAfter(func() { p = priority.FromRanks(g, func(id relation.TupleID) int { return id % 2 }) })
	if g.NumEdges() != scaleClusters || g.NumComponents() != scaleClusters {
		t.Fatalf("edges = %d, components = %d, want %d of each", g.NumEdges(), g.NumComponents(), scaleClusters)
	}
	if n := len(p.Edges()); n != scaleClusters {
		t.Fatalf("oriented edges = %d, want %d", n, scaleClusters)
	}
	mb := func(b int64) float64 { return float64(b) / (1 << 20) }
	total := graph + comps + pri
	t.Logf("retained: graph %.2f MB, components %.2f MB, priority %.2f MB, total %.2f MB (elapsed %v)",
		mb(graph), mb(comps), mb(pri), mb(total), time.Since(start))
	if total > scaleMemLimit {
		t.Fatalf("graph + components + priority retain %.2f MB, budget %.1f MB", mb(total), mb(scaleMemLimit))
	}
	if elapsed := time.Since(start); elapsed > scaleTimeout {
		t.Fatalf("build took %v, budget %v", elapsed, scaleTimeout)
	}
	runtime.KeepAlive(sc)
	runtime.KeepAlive(g)
	runtime.KeepAlive(p)
}

// TestScale100kCountAllFamilies runs every family's tractable counting
// path over the 100k-tuple instance. With the total pair priority the
// preferred families are categorical (one repair per component →
// count 1); plain Rep doubles per component and must report overflow
// — after visiting components, not by materializing anything.
func TestScale100kCountAllFamilies(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test: skipped with -short")
	}
	start := time.Now()
	sc := scaleScenario()
	g := sc.Graph()
	p := priority.FromRanks(g, func(id relation.TupleID) int { return id % 2 })
	eng := core.NewEngine() // production configuration: workers + memo

	if _, err := eng.CountCtx(context.Background(), core.Rep, p); err != repair.ErrOverflow {
		t.Fatalf("Rep count: err = %v, want overflow (2^%d repairs)", err, scaleClusters)
	}
	for _, f := range []core.Family{core.Local, core.SemiGlobal, core.Global, core.Common} {
		c, err := eng.CountCtx(context.Background(), f, p)
		if err != nil {
			t.Fatalf("%s count: %v", f, err)
		}
		if c != 1 {
			t.Fatalf("%s count = %d, want 1 (total priority is categorical)", f, c)
		}
	}
	// The unique preferred repair is the 50k rank-0 tuples; spot-check
	// via the cleaning algorithm, which shares the winnow machinery.
	var one *bitset.Set
	eng.Enumerate(core.Common, p, func(s *bitset.Set) bool { //nolint:errcheck // stops after the first
		one = s.Clone()
		return false
	})
	if one.Len() != scaleClusters {
		t.Fatalf("preferred repair keeps %d tuples, want %d", one.Len(), scaleClusters)
	}
	if elapsed := time.Since(start); elapsed > scaleTimeout {
		t.Fatalf("counting took %v, budget %v", elapsed, scaleTimeout)
	}
	t.Logf("all families counted in %v", time.Since(start))
}

// --- -benchmem benchmarks: the O(n+m) construction paths ---

func BenchmarkScaleConflictBuild100k(b *testing.B) {
	sc := scaleScenario()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := conflict.Build(sc.Inst, sc.FDs)
		if err != nil || g.NumEdges() != scaleClusters {
			b.Fatalf("%v edges=%d", err, g.NumEdges())
		}
	}
}

func BenchmarkScalePriorityFromRanks100k(b *testing.B) {
	sc := scaleScenario()
	g := sc.Graph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := priority.FromRanks(g, func(id relation.TupleID) int { return id % 2 })
		if !p.IsTotal() {
			b.Fatal("some conflict is not oriented")
		}
	}
}

// BenchmarkScalePriorityBulkAdd measures a preference batch over every
// conflict of the scale scenario's shape — scaleClusters two-tuple
// clusters in R(K, V) under K -> V — written with PreferPairs after the
// first read, and the read that folds it in: the shipped path of a bulk
// add, which lays the pairs out in one FromRelation. Folded in by one
// overlay Add per pair (with its component-bounded cycle check) it took
// 370–460 ms and 335 MB per op, against 23–25 ms and 17 MB laid out
// (-benchtime 5x -count 3, 2-CPU machine).
func BenchmarkScalePriorityBulkAdd(b *testing.B) {
	pairs := make([][2]TupleID, scaleClusters)
	for k := range pairs {
		pairs[k] = [2]TupleID{2 * k, 2*k + 1}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := New()
		loadClusters(b, db, scaleClusters, 0)
		if _, err := db.Snapshot(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := db.rels["R"].PreferPairs(pairs); err != nil {
			b.Fatal(err)
		}
		if _, err := db.Snapshot(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if !db.rels["R"].cur.Load().Pri.IsTotal() {
			b.Fatal("some conflict is not oriented")
		}
	}
}

// --- per-component enumeration: the allocation-free hot path ---

// BenchmarkComponentEnumerationMultiChain counts the maximal
// independent sets of every chain of the multi-chain workload: pure
// Bron–Kerbosch in local index space. Allocations per op are the
// per-enumeration arena setup only — independent of the number of
// recursion nodes (formerly O(sets × chain length) fresh bitsets).
func BenchmarkComponentEnumerationMultiChain(b *testing.B) {
	p := multiChains(8, 20)
	g := p.Graph()
	comps := g.Components()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var total int64
		for _, comp := range comps {
			repair.EnumerateLocal(g.Project(comp), func(bitset.Words) bool { //nolint:errcheck // never stops
				total++
				return true
			})
		}
		if total == 0 {
			b.Fatal("no repairs")
		}
	}
}

// BenchmarkComponentChoicesMultiChain measures each family's
// per-component choice computation (enumeration + optimality
// conditions) on one 20-chain component, uncached.
func BenchmarkComponentChoicesMultiChain(b *testing.B) {
	p := multiChains(1, 20)
	comp := p.Graph().Components()[0]
	for _, f := range core.Families {
		b.Run(f.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(core.ChoicesForComponent(f, p, comp).Local) == 0 {
					b.Fatal("no choices")
				}
			}
		})
	}
}

// BenchmarkScaleCountGlobal100k is the end-to-end headline: G-Rep
// counting over 50k two-tuple components with the memoizing engine,
// reported as repairs/sec-style throughput via ns/op.
func BenchmarkScaleCountGlobal100k(b *testing.B) {
	sc := scaleScenario()
	p := priority.FromRanks(sc.Graph(), func(id relation.TupleID) int { return id % 2 })
	eng := core.NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := eng.CountCtx(context.Background(), core.Global, p)
		if err != nil || c != 1 {
			b.Fatalf("count = %d, %v", c, err)
		}
	}
}

// builtRetainedLimit bounds what a relation of 100 000 two-tuple
// clusters with 90 000 preferences retains once built and read: the
// columns, the tuple-key partition and the partition on K (which the
// point reads probe), the preference history, the conflict graph, its
// component index and the priority. With attribute postings beside the
// partition on K, a conflict edge list beside the CSR rows and a
// preference history keyed by [2]int pairs, the same relation retained
// 30.59 MB (34.34 MB with a key string per tuple, 51.52 MB with one
// heap object per vertex, component and posted value).
const builtRetainedLimit = 0.75 * 30.59 * (1 << 20)

// firstBuildAllocLimit bounds what the first Snapshot of that relation
// allocates, before any read: the violation list, the conflict graph,
// its components and the priority; it reads 17.4 MB. A violation list
// grown by append and copied into an edge list made it 29.7 MB, and a
// violation scan that keyed every tuple's LHS into a string map 54.3 MB.
const firstBuildAllocLimit = 1.1 * 17.4 * (1 << 20)

// loadClusters creates R(K, V) under K -> V in db, loads it with
// clusters two-tuple clusters, and prefers the first tuple of each of
// the first prefs clusters.
func loadClusters(t testing.TB, db *DB, clusters, prefs int) {
	t.Helper()
	r, err := db.CreateRelation("R", IntAttr("K"), IntAttr("V"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddFD("K -> V"); err != nil {
		t.Fatal(err)
	}
	rows := make([]Tuple, 0, 2*clusters)
	for k := 0; k < clusters; k++ {
		rows = append(rows, Tuple{Int(int64(k)), Int(0)}, Tuple{Int(int64(k)), Int(1)})
	}
	ids, err := r.InsertRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([][2]TupleID, prefs)
	for k := range pairs {
		pairs[k] = [2]TupleID{ids[2*k], ids[2*k+1]}
	}
	if err := r.PreferPairs(pairs); err != nil {
		t.Fatal(err)
	}
}

// TestBuiltRelationRetained measures the heap a built relation holds
// at the serving benchmark's point_read size, after one quantified and
// one open point read.
func TestBuiltRelationRetained(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 100 000 clusters")
	}
	const clusters, prefs = 100_000, 90_000
	var db *DB
	retained := retainedAfter(func() {
		db = New()
		loadClusters(t, db, clusters, prefs)
		snap, err := db.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if a, err := snap.Query(Global, "EXISTS v . R(17, v) AND v < 1"); err != nil || a != True {
			t.Fatalf("quantified point read = %v, %v, want true", a, err)
		}
		if b, err := snap.QueryOpen(Global, fmt.Sprintf("R(%d, x)", clusters-1)); err != nil || len(b) != 0 {
			t.Fatalf("open point read of an undetermined cluster = %v, %v, want no certain binding", b, err)
		}
	})
	t.Logf("built relation of %d clusters and %d preferences retains %.2f MB", clusters, prefs, float64(retained)/(1<<20))
	if float64(retained) > builtRetainedLimit {
		t.Fatalf("built relation retains %.2f MB, limit %.2f MB", float64(retained)/(1<<20), builtRetainedLimit/(1<<20))
	}
	runtime.KeepAlive(db)
}

// TestFirstBuildAllocations measures what the first Snapshot after
// the bulk load of TestBuiltRelationRetained allocates.
func TestFirstBuildAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 100 000 clusters")
	}
	db := New()
	loadClusters(t, db, 100_000, 90_000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := db.Snapshot(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc := float64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("first Snapshot allocates %.1f MB in %d objects", alloc/(1<<20), after.Mallocs-before.Mallocs)
	if alloc > firstBuildAllocLimit {
		t.Fatalf("first Snapshot allocates %.1f MB, limit %.1f MB", alloc/(1<<20), firstBuildAllocLimit/(1<<20))
	}
}

// TestFirstProbeAllocations is the gate on the first quantified point
// read on K after the first Snapshot of TestBuiltRelationRetained's
// relation: the violation scan built the partition on K, and a probe
// for a value reads that partition, so the read builds no index. With
// attribute postings kept apart from the partitions, it built a map of
// K's 100 000 values.
func TestFirstProbeAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 100 000 clusters")
	}
	db := New()
	loadClusters(t, db, 100_000, 90_000)
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// The component index is laid out on the first read too, whatever
	// it probes: lay it out first, so that the gate sees the probe.
	g, err := db.rels["R"].Graph()
	if err != nil {
		t.Fatal(err)
	}
	g.NumComponents()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a, err := snap.Query(Global, "EXISTS v . R(17, v) AND v < 1")
	runtime.ReadMemStats(&after)
	if err != nil || a != True {
		t.Fatalf("quantified point read = %v, %v, want true", a, err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("first quantified point read allocates %d B in %d objects", alloc, after.Mallocs-before.Mallocs)
	if alloc >= 64<<10 {
		t.Fatalf("first quantified point read allocates %d B, want under 64 KB", alloc)
	}
}

// TestInsertRowsAllocations is the gate on the facade's bulk load: an
// in-memory InsertRows of 200 000 fresh rows makes fewer than 1 000
// heap objects, since the batch dedupes by sorting row positions and
// the instance keeps nothing per row. A key string per row made at
// least 200 000.
func TestInsertRowsAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 200 000 rows")
	}
	r, err := New().CreateRelation("R", IntAttr("K"), IntAttr("V"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddFD("K -> V"); err != nil {
		t.Fatal(err)
	}
	rows := make([]Tuple, 0, 200_000)
	for k := 0; k < 100_000; k++ {
		rows = append(rows, Tuple{Int(int64(k)), Int(0)}, Tuple{Int(int64(k)), Int(1)})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ids, err := r.InsertRows(rows)
	runtime.ReadMemStats(&after)
	if err != nil || len(ids) != len(rows) || ids[len(ids)-1] != len(rows)-1 {
		t.Fatalf("InsertRows: %d IDs, %v", len(ids), err)
	}
	objects := after.Mallocs - before.Mallocs
	t.Logf("InsertRows of %d fresh rows: %d objects, %.1f MB", len(rows), objects, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	if objects >= 1000 {
		t.Fatalf("InsertRows of %d fresh rows makes %d objects, want fewer than 1 000", len(rows), objects)
	}
}

// TestPreferByRankAfterReadAllocations is the gate on a preference
// batch written after the first read: PreferByRank over 32 768
// two-tuple clusters, then one read, allocates at most twice what the
// same pairs and the read cost when they are recorded before the first
// read, which builds the state from scratch. Folded in by one overlay
// Add per pair, the batch and its read allocated 237 MB.
func TestPreferByRankAfterReadAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 32 768 clusters")
	}
	const clusters = 32_768
	rank := func(id TupleID) int { return id % 2 }
	measure := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	read := func(db *DB, want Answer) {
		snap, err := db.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if a, err := snap.Query(Global, "R(17, 0)"); err != nil || a != want {
			t.Fatalf("point read = %v, %v, want %v", a, err, want)
		}
	}

	// The reference: the same pairs recorded before the first read,
	// which builds the state from scratch.
	ref := New()
	loadClusters(t, ref, clusters, 0)
	pairs := make([][2]TupleID, clusters)
	for k := range pairs {
		pairs[k] = [2]TupleID{2 * k, 2*k + 1}
	}
	rebuild := measure(func() {
		if err := ref.rels["R"].PreferPairs(pairs); err != nil {
			t.Fatal(err)
		}
		read(ref, True)
	})

	db := New()
	loadClusters(t, db, clusters, 0)
	read(db, Undetermined)
	batch := measure(func() {
		if err := db.rels["R"].PreferByRank(rank); err != nil {
			t.Fatal(err)
		}
		read(db, True)
	})
	t.Logf("PreferByRank + read after the first read: %.1f MB; the pairs + the first read: %.1f MB", float64(batch)/(1<<20), float64(rebuild)/(1<<20))
	if batch > 2*rebuild {
		t.Fatalf("PreferByRank + read allocates %.1f MB, want at most twice the %.1f MB of the pairs and a rebuild", float64(batch)/(1<<20), float64(rebuild)/(1<<20))
	}
}
