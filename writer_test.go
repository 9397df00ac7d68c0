package prefcqa

import (
	"errors"
	"runtime"
	"testing"
)

// TestSnapshotAfterWriteAllocatesNothing is the gate on the read path's
// pin: on a built database the writer derives and publishes each
// version, so DB.Snapshot, also the first one after a write, is one
// atomic load and allocates nothing. A Snapshot that built the pending
// delta on the reader, or assembled a view per call, allocated.
func TestSnapshotAfterWriteAllocatesNothing(t *testing.T) {
	db := clusterDB(t, 1000)
	if _, err := db.Snapshot(); err != nil {
		t.Fatal(err)
	}
	r, _ := db.Relation("R")
	// On one P nothing else runs between the two ReadMemStats calls
	// unless Snapshot yields, so the count is Snapshot's own.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	for i := 0; i < 20; i++ {
		if _, err := r.Insert(i, 2); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		snap, err := db.Snapshot()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc != 0 {
			t.Fatalf("the Snapshot after write %d allocates %d B, want 0", i, alloc)
		}
		if snap.WriteVersion() != db.WriteVersion() {
			t.Fatalf("Snapshot after write %d is at write-version %d, want %d", i, snap.WriteVersion(), db.WriteVersion())
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := db.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("DB.Snapshot on a built database makes %.0f allocations, want 0", allocs)
	}
}

// TestBulkLoadBuildsOnce is the guard on the rule that keeps a bulk
// load cheap: a relation that no read has built stays unbuilt under
// writes and is built once, by the first read. The serving benchmark's
// load shape — one FD, 100 000 two-tuple clusters in 20 batches of
// 10 000 rows, 90 000 preferences in 9 batches of 10 000, then one
// read — allocates at most 1.2 times what it allocated when every read
// built the state it found pending (bulkLoadParentBytes). Building
// after every batch allocated more than ten times that.
func TestBulkLoadBuildsOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 100 000 clusters")
	}
	const clusters, batch = 100_000, 10_000
	rows := make([]Tuple, 0, 2*clusters)
	for k := 0; k < clusters; k++ {
		rows = append(rows, Tuple{Int(int64(k)), Int(0)}, Tuple{Int(int64(k)), Int(1)})
	}
	pairs := make([][2]TupleID, 90_000)
	for k := range pairs {
		pairs[k] = [2]TupleID{2 * k, 2*k + 1}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	db := New()
	r, err := db.CreateRelation("R", IntAttr("K"), IntAttr("V"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddFD("K -> V"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(rows); i += batch {
		if _, err := r.InsertRows(rows[i : i+batch]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < len(pairs); i += batch {
		if err := r.PreferPairs(pairs[i : i+batch]); err != nil {
			t.Fatal(err)
		}
	}
	if a, err := db.Query(Global, "R(17, 0)"); err != nil || a != True {
		t.Fatalf("R(17, 0) = %v, %v; want true", a, err)
	}
	runtime.ReadMemStats(&after)
	alloc := float64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("bulk load and one read allocate %.1f MB (limit %.1f MB)", alloc/(1<<20), 1.2*bulkLoadParentBytes/(1<<20))
	if alloc > 1.2*bulkLoadParentBytes {
		t.Fatalf("bulk load and one read allocate %.1f MB, want at most 1.2 × %.1f MB", alloc/(1<<20), bulkLoadParentBytes/(1<<20))
	}
}

// bulkLoadParentBytes is what TestBulkLoadBuildsOnce's load and read
// allocated when the first read built every relation (linux/amd64,
// Go 1.24; five runs agreed to the byte).
const bulkLoadParentBytes float64 = 76_449_584

// kvDB opens a durable database in dir holding R(K, V) with K -> V and
// the conflicting tuples (1, 0) and (1, 1), IDs 0 and 1, and reads it
// once, so that R is built.
func kvDB(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r, err := db.CreateRelation("R", IntAttr("K"), IntAttr("V"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddFD("K -> V"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.InsertRows([]Tuple{{Int(1), Int(0)}, {Int(1), Int(1)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(Global, "R(1, 0)"); err != nil {
		t.Fatal(err)
	}
	return db
}

// refused asserts that err is the PriorityError with the given text
// and that the refused write left the write-version at wv.
func refused(t *testing.T, db *DB, err error, wv uint64, want string) {
	t.Helper()
	var perr *PriorityError
	if !errors.As(err, &perr) || err.Error() != want {
		t.Fatalf("write: %v, want the PriorityError %q", err, want)
	}
	if got := db.WriteVersion(); got != wv {
		t.Fatalf("refused write moved the write-version %d → %d", wv, got)
	}
}

// readsAfterRestart asserts that q answers want on db and, after a
// restart from dir, still does, at the same write-version.
func readsAfterRestart(t *testing.T, db *DB, dir, q string, want Answer) {
	t.Helper()
	wv := db.WriteVersion()
	for restart := 0; restart < 2; restart++ {
		if a, err := db.Query(Global, q); err != nil || a != want {
			t.Fatalf("restart %d: %s = %v, %v; want %v", restart, q, a, err, want)
		}
		if got := db.WriteVersion(); got != wv {
			t.Fatalf("restart %d: write-version %d, want %d", restart, got, wv)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		var err error
		if db, err = Open(dir); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()
}

// TestRefusedContradiction is ROADMAP item 11's first reproducer on a
// built relation: Prefer(0, 1), then Prefer(1, 0). The second is
// refused with the text Priority.Add gives, never logged, and reads
// go on — also after a restart, which replays the log.
func TestRefusedContradiction(t *testing.T) {
	dir := t.TempDir()
	db := kvDB(t, dir)
	r, _ := db.Relation("R")
	if err := r.Prefer(0, 1); err != nil {
		t.Fatal(err)
	}
	wv := db.WriteVersion()
	refused(t, db, r.Prefer(1, 0), wv, "prefcqa: relation R: priority: conflict {1,0} already oriented 0 ≻ 1")
	readsAfterRestart(t, db, dir, "R(1, 0)", True)
}

// TestRefusedCyclicFD is item 11's second reproducer: preferences on
// tuples that do not conflict are recorded and ignored, until a new
// dependency makes them conflict and the preferences a cycle. The
// dependency is refused, and the relation keeps its old one.
func TestRefusedCyclicFD(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r, err := db.CreateRelation("R", IntAttr("K"), IntAttr("V"), IntAttr("W"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddFD("K -> V"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.InsertRows([]Tuple{{Int(1), Int(0), Int(5)}, {Int(2), Int(0), Int(5)}, {Int(3), Int(0), Int(5)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(Global, "R(1, 0, 5)"); err != nil {
		t.Fatal(err)
	}
	for _, p := range [][2]TupleID{{0, 1}, {2, 0}, {1, 2}} {
		if err := r.Prefer(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	wv := db.WriteVersion()
	refused(t, db, r.AddFD("W -> K"), wv, "prefcqa: relation R: priority: orienting 1 ≻ 2 would create a cycle")
	if got := r.FDs(); got != "K -> V" {
		t.Fatalf("FDs after the refused dependency: %q, want K -> V", got)
	}
	readsAfterRestart(t, db, dir, "R(1, 0, 5)", True)
}

// TestRefusedBatchWhole: a batch holding both orientations of one
// conflict is refused whole; neither pair is recorded, so stating one
// of them afterwards is a fresh write.
func TestRefusedBatchWhole(t *testing.T) {
	dir := t.TempDir()
	db := kvDB(t, dir)
	r, _ := db.Relation("R")
	wv := db.WriteVersion()
	refused(t, db, r.PreferPairs([][2]TupleID{{0, 1}, {1, 0}}), wv, "prefcqa: relation R: priority: conflict {1,0} already oriented 0 ≻ 1")
	if a, err := db.Query(Global, "R(1, 0)"); err != nil || a != Undetermined {
		t.Fatalf("R(1, 0) after the refused batch = %v, %v; want undetermined", a, err)
	}
	if err := r.Prefer(0, 1); err != nil {
		t.Fatal(err)
	}
	if got := db.WriteVersion(); got != wv+1 {
		t.Fatalf("Prefer(0, 1) after the refused batch: write-version %d, want %d (a fresh pair)", got, wv+1)
	}
	readsAfterRestart(t, db, dir, "R(1, 0)", True)
}
