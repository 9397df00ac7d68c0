package prefcqa

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"prefcqa/internal/bitset"
	"prefcqa/internal/repair"
)

// clusterDB builds R(K,V) with K -> V and n two-tuple clusters
// {(k,0), (k,1)}, every one oriented towards (k,0) except the last
// three, which stay undetermined: 8 preferred repairs, like relation C
// of the serving benchmark's analytic dataset.
func clusterDB(tb testing.TB, n int) *DB {
	tb.Helper()
	return keyedClusterDB(tb, n, IntAttr("K"), func(k int) Value { return Int(int64(k)) })
}

// longNameDB is clusterDB over R(K name, V int) with keys of 41
// characters: an encoded key string that long does not fit the stack
// buffer a short conversion gets, so a read that built one per posting
// probe would allocate it on the heap.
func longNameDB(tb testing.TB, n int) *DB {
	tb.Helper()
	return keyedClusterDB(tb, n, NameAttr("K"), func(k int) Value { return Name(longName(k)) })
}

// longName is the key of cluster k in longNameDB.
func longName(k int) string { return fmt.Sprintf("cluster-%06d-of-the-long-named-relation", k) }

// keyedClusterDB is clusterDB with cluster k keyed by key(k) in the
// attribute keyAttr, which must be named K.
func keyedClusterDB(tb testing.TB, n int, keyAttr Attribute, key func(int) Value) *DB {
	tb.Helper()
	db := New()
	r, err := db.CreateRelation("R", keyAttr, IntAttr("V"))
	if err != nil {
		tb.Fatal(err)
	}
	if err := r.AddFD("K -> V"); err != nil {
		tb.Fatal(err)
	}
	rows := make([]Tuple, 0, 2*n)
	for k := 0; k < n; k++ {
		rows = append(rows, Tuple{key(k), Int(0)}, Tuple{key(k), Int(1)})
	}
	ids, err := r.InsertRows(rows)
	if err != nil {
		tb.Fatal(err)
	}
	pairs := make([][2]TupleID, n-3)
	for k := range pairs {
		pairs[k] = [2]TupleID{ids[2*k], ids[2*k+1]}
	}
	if err := r.PreferPairs(pairs); err != nil {
		tb.Fatal(err)
	}
	return db
}

// bytesPerOp returns the bytes one call of fn allocates, averaged over
// runs calls after one warm-up call (which fills every lazily built
// structure: postings, the version's resolved components, the memo).
// The collector is off meanwhile: a collection empties every sync.Pool,
// and a pooled buffer allocated again mid-measure would make the count
// depend on when the collector ran.
func bytesPerOp(runs int, fn func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// wholeRelationQuery has a constant-free atom, so its support is all
// of R and the verification consults every component; it is false on
// the union of the 8 preferred repairs, which is where it is decided.
const wholeRelationQuery = "EXISTS k, v . R(k, v) AND v > 1"

// declinedQuery is the serving benchmark's declined class on a
// clusterDB of n clusters: x occurs only under a negation, so the
// support analysis declines and the whole-database enumeration answers
// — about the highest key, one of the three undetermined clusters.
func declinedQuery(n int) string {
	return fmt.Sprintf("EXISTS x . x = %d AND NOT R(x, 0)", n-1)
}

// TestWarmRequestAllocations is the allocation gate of the resolved
// structure. No timings: bytes allocated per warm request, which are
// deterministic. A request that consults every component of an
// n-cluster relation — a quantified query whose support is the whole
// relation, a repair enumeration up to its first repair — may allocate
// a clone of the base set (n/4 bytes) and the query's own buffers —
// not a set per component, which was
// quadratic (tens of MB at n = 16 000, growing 4x when n doubles).
// And a ground point read of the highest key — an undetermined
// cluster, two choices — allocates nothing of the instance's size, and
// the same at every size: not one visibility set reaching the highest
// tuple ID, let alone one per choice plus one per choice tried. The same
// holds for a quantified point read of that key, whose support is the
// two tuples its posting matches. A query the support analysis declines walks the
// preferred repairs of the whole database on a clone of the base set,
// and evaluating it in each of them allocates nothing of the instance's
// size: its variable is bound by the equality that names its value, not
// found by collecting the active domain (a map slot and a slice slot
// per value, per visited repair).
func TestWarmRequestAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 48 000 clusters")
	}
	ctx := context.Background()
	measure := func(n int) (query, ground, quant, firstYield, declined uint64) {
		db := clusterDB(t, n)
		snap, err := db.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		// Snapshot.EnumerateRepairs hands every repair over as a
		// materialized instance (Instance.Subset: megabytes at this
		// size, by design and unchanged). What is gated is everything it
		// does before that: the walk over the version's resolved
		// components up to the first repair.
		sr := snap.rels["R"]
		firstYield = bytesPerOp(5, func() {
			res, err := sr.rel.Resolved(ctx, snap.engine, Global)
			if err != nil {
				t.Fatal(err)
			}
			yields := 0
			err = res.Enumerate(ctx, func(*bitset.Set) bool { yields++; return false })
			if err != repair.ErrStopped || yields != 1 {
				t.Fatalf("n=%d: enumeration stopped at the first repair: %d yields, %v", n, yields, err)
			}
		})
		query = bytesPerOp(5, func() {
			if a, err := snap.QueryContext(ctx, Global, wholeRelationQuery); err != nil || a != False {
				t.Fatalf("n=%d: whole-relation query = %v, %v, want false", n, a, err)
			}
		})
		// The point reads run on one P. bytesPerOp holds the collector
		// off, so no GC empties the executors' sync.Pool; but a Pool
		// keeps a private slot per P that no other P takes from, and a
		// read that moved to another P since the last one would miss the
		// pooled run state and allocate it again.
		procs := runtime.GOMAXPROCS(1)
		point := fmt.Sprintf("R(%d, 0)", n-1)
		ground = bytesPerOp(20, func() {
			if a, err := snap.QueryContext(ctx, Global, point); err != nil || a != Undetermined {
				t.Fatalf("n=%d: %s = %v, %v, want undetermined", n, point, a, err)
			}
		})
		quantPoint := fmt.Sprintf("EXISTS v . R(%d, v) AND v < 1", n-1)
		quant = bytesPerOp(20, func() {
			if a, err := snap.QueryContext(ctx, Global, quantPoint); err != nil || a != Undetermined {
				t.Fatalf("n=%d: %s = %v, %v, want undetermined", n, quantPoint, a, err)
			}
		})
		runtime.GOMAXPROCS(procs)
		full := db.QueryStats().ClosedFull
		declined = bytesPerOp(5, func() {
			if a, err := snap.QueryContext(ctx, Global, declinedQuery(n)); err != nil || a != Undetermined {
				t.Fatalf("n=%d: %s = %v, %v, want undetermined", n, declinedQuery(n), a, err)
			}
		})
		if got := db.QueryStats().ClosedFull - full; got != 6 {
			t.Fatalf("n=%d: %d of 6 declined requests took the whole-database enumeration", n, got)
		}
		return query, ground, quant, firstYield, declined
	}
	q16, g16, p16, y16, d16 := measure(16000)
	q32, g32, p32, y32, d32 := measure(32000)
	t.Logf("bytes per warm request at n=16000 and n=32000: whole-relation query %d, %d; repairs to the first yield %d, %d; ground point read %d, %d; quantified point read %d, %d; declined query %d, %d", q16, q32, y16, y32, g16, g32, p16, p32, d16, d32)
	// The clone of R's base set is 2n/8 bytes; parsing, validation, the
	// refused support analysis and two evaluations fit in 8 KB.
	if limit := uint64(2*16000/8 + 8<<10); d16 > limit {
		t.Errorf("declined query allocates %d B per request at n=16000, want <= %d B (the cloned base set plus 8 KB)", d16, limit)
	}
	if float64(d32) > 2.2*float64(d16) {
		t.Errorf("declined query allocates %d B at n=32000 against %d B at n=16000: more than 2.2x for 2x the data", d32, d16)
	}
	if y16 > 256<<10 {
		t.Errorf("EnumerateRepairs allocates %d B up to its first yield at n=16000, want <= 256 KB", y16)
	}
	if float64(y32) > 2.2*float64(y16) {
		t.Errorf("EnumerateRepairs allocates %d B up to its first yield at n=32000 against %d B at n=16000: more than 2.2x for 2x the data", y32, y16)
	}
	if q16 > 256<<10 {
		t.Errorf("whole-relation query allocates %d B per request at n=16000, want <= 256 KB", q16)
	}
	if float64(q32) > 2.2*float64(q16) {
		t.Errorf("whole-relation query allocates %d B at n=32000 against %d B at n=16000: more than 2.2x for 2x the data", q32, q16)
	}
	// A point read's visibility set is lent and given back, so nothing it
	// allocates grows with the instance: parsing and analysis are cached
	// per text and the input per snapshot, and what is left — resolving
	// the touched cluster, the walk and the prepared query — fits in 2 KB
	// (3 KB with the support analysis and compile of a quantifier).
	if g16 > 2<<10 || g32 > 2<<10 {
		t.Errorf("ground point read of the highest key allocates %d B at n=16000 and %d B at n=32000, want <= 2 KB", g16, g32)
	}
	// The race detector makes sync.Pool drop a share of what it is
	// given, which costs a quantified read about a hundred bytes more.
	quantLimit := uint64(2 << 10)
	if raceEnabled() {
		quantLimit = 3 << 10
	}
	if p16 > quantLimit || p32 > quantLimit {
		t.Errorf("quantified point read of the highest key allocates %d B at n=16000 and %d B at n=32000, want <= 2 KB (3 KB under -race)", p16, p32)
	}
	// The race detector makes sync.Pool drop a share of what it is given
	// at random, so the executors' pooled run state is re-allocated now
	// and then and the two sizes need not agree to the byte.
	if !raceEnabled() && (g32 != g16 || p32 != p16) {
		t.Errorf("point reads allocate %d B (ground) and %d B (quantified) at n=32000 against %d B and %d B at n=16000: want the same", g32, p32, g16, p16)
	}
	// A posting is probed by the value itself, so a long name key costs a
	// point read no key string: a quantified read of one fits the same
	// 2 KB as of an int key, and an open read 5 250 B (building the key
	// on the heap took 384 and 192 B more).
	db := longNameDB(t, 16000)
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	procs := runtime.GOMAXPROCS(1)
	quantName := fmt.Sprintf("EXISTS v . R('%s', v) AND v < 1", longName(15999))
	nq := bytesPerOp(20, func() {
		if a, err := snap.QueryContext(ctx, Global, quantName); err != nil || a != Undetermined {
			t.Fatalf("%s = %v, %v, want undetermined", quantName, a, err)
		}
	})
	openName := fmt.Sprintf("R('%s', x)", longName(15999))
	no := bytesPerOp(20, func() {
		if b, err := snap.QueryOpenContext(ctx, Global, openName); err != nil || len(b) != 0 {
			t.Fatalf("%s = %v, %v, want no certain binding", openName, b, err)
		}
	})
	runtime.GOMAXPROCS(procs)
	t.Logf("bytes per warm point read of a %d-character name key: quantified %d, open %d", len(longName(15999)), nq, no)
	if !raceEnabled() && (nq > 2<<10 || no > 5250) {
		t.Errorf("point reads of a long name key allocate %d B (quantified) and %d B (open), want <= 2 KB and 5 250 B", nq, no)
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// updateCycle replays in process, on a clusterDB, the iteration the
// serving benchmark's write_mix drives over the wire: a challenger
// (k, v >= 2) joins the next oriented cluster, the cluster's anchor
// (k, 0) is preferred over it, the previous iteration's challenger is
// deleted — and after each of the three writes the database is read at
// the version the write produced.
type updateCycle struct {
	db    *DB
	r     *Relation
	n     int          // clusters; the last three stay out of the rotation
	pos   int          // iterations so far
	prev  TupleID      // the live challenger, -1 before the first
	prefs [][2]TupleID // every preference stated so far, clusterDB's included
}

func newUpdateCycle(tb testing.TB, n int) *updateCycle {
	db := clusterDB(tb, n)
	r, _ := db.Relation("R")
	u := &updateCycle{db: db, r: r, n: n, prev: -1}
	for k := 0; k < n-3; k++ {
		u.prefs = append(u.prefs, [2]TupleID{2 * k, 2*k + 1}) // clusterDB's IDs are dense: (k, v) is 2k+v
	}
	return u
}

// step runs one iteration. Each write and the Snapshot that folds it
// in — the derivation of a version, as opposed to the query that then
// reads it — run inside derive when one is given, so a caller can
// account for them apart. R(k, 0) is undetermined under G-Rep while
// the challenger is not yet dominated, and certain once it is.
func (u *updateCycle) step(tb testing.TB, derive func(func())) {
	if derive == nil {
		derive = func(fn func()) { fn() }
	}
	k := u.pos % (u.n - 3)
	val := 2 + u.pos/(u.n-3)
	u.pos++
	var id TupleID
	writes := [3]func() error{
		func() (err error) { id, err = u.r.Insert(k, val); return err },
		func() error { return u.r.Prefer(2*k, id) },
		func() error {
			if u.prev < 0 {
				return nil
			}
			_, err := u.r.Delete(u.prev)
			return err
		},
	}
	point := fmt.Sprintf("R(%d, 0)", k)
	for i, want := range [3]Answer{Undetermined, True, True} {
		var snap *Snapshot
		derive(func() {
			err := writes[i]()
			if err == nil {
				snap, err = u.db.Snapshot()
			}
			if err != nil {
				tb.Fatalf("iteration %d, write %d: %v", u.pos, i, err)
			}
		})
		if a, err := snap.Query(Global, point); err != nil || a != want {
			tb.Fatalf("iteration %d, after write %d: %s = %v, %v; want %v", u.pos, i, point, a, err, want)
		}
	}
	u.prev = id
	u.prefs = append(u.prefs, [2]TupleID{2 * k, id})
}

// TestUpdateCycleAllocations is the allocation gate of version
// derivation: what one update iteration allocates in its three writes
// and the three Snapshot calls that fold them in must depend on what
// the writes touch — one two-tuple cluster each — not on how much the
// overlays of the conflict graph, the priority and the instance hold
// at the time, and so not on the size of the instance. The warm-up
// leaves the overlays between two compactions; the measured stretch
// spans several, so the amortized share of compaction and flatten is
// counted. The queries are not: each allocates a visibility set sized
// to the highest tuple ID it touches (the challenger), which is the
// read path's business.
func TestUpdateCycleAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 100 000 clusters")
	}
	measure := func(n int) uint64 {
		u := newUpdateCycle(t, n)
		for i := 0; i < 3000; i++ {
			u.step(t, nil)
		}
		var total uint64
		var before, after runtime.MemStats
		const iterations = 6000
		for i := 0; i < iterations; i++ {
			u.step(t, func(fn func()) {
				runtime.ReadMemStats(&before)
				fn()
				runtime.ReadMemStats(&after)
				total += after.TotalAlloc - before.TotalAlloc
			})
		}
		return total / iterations
	}
	b25, b100 := measure(25000), measure(100000)
	t.Logf("bytes per update iteration (three writes and three Snapshot calls): %d at 25 000 clusters, %d at 100 000", b25, b100)
	if b100 > 128<<10 {
		t.Errorf("an update iteration allocates %d B deriving its three versions at 100 000 clusters, want <= 128 KB", b100)
	}
	if float64(b100) > 1.5*float64(b25) {
		t.Errorf("an update iteration allocates %d B at 100 000 clusters against %d B at 25 000: more than 1.5x for 4x the data", b100, b25)
	}
}
