package prefcqa

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// allFamilies is the full repair-family matrix every durability test
// sweeps: recovery must reproduce each family bit for bit, not just
// the raw tuples.
var allFamilies = []Family{Rep, Local, SemiGlobal, Global, Common}

// newDurDB opens a durable DB in a fresh directory with the standard
// two-column test relation, mirroring newMutDB.
func newDurDB(t *testing.T, opts ...Option) (*DB, *Relation, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Open(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	r, err := db.CreateRelation("R", IntAttr("K"), IntAttr("V"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddFD("K -> V"); err != nil {
		t.Fatal(err)
	}
	return db, r, dir
}

// cloneDir copies a WAL directory byte for byte into a fresh temp
// location: the moral equivalent of the state SIGKILL leaves behind,
// without tearing down the running DB (which a clean Close would
// flush, hiding sync bugs).
func cloneDir(t *testing.T, src string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "clone")
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// mirrorDB reconstructs an independent, purely in-memory DB holding
// the same logical state as src: same tuple IDs (including tombstone
// gaps), same dependencies, same preference pairs. It is the
// reference every recovered database is compared against.
func mirrorDB(t *testing.T, src *DB) *DB {
	t.Helper()
	m := New()
	for _, name := range src.Relations() {
		sr, _ := src.Relation(name)
		inst := sr.Instance()
		sch := inst.Schema()
		attrs := make([]Attribute, sch.Arity())
		for i := range attrs {
			attrs[i] = sch.Attr(i)
		}
		mr, err := m.CreateRelation(sch.Name(), attrs...)
		if err != nil {
			t.Fatal(err)
		}
		dead := inst.DeadIDs()
		for id := 0; id < inst.NumIDs(); id++ {
			ids, err := mr.InsertRows([]Tuple{inst.Tuple(id)})
			if err != nil {
				t.Fatalf("mirror insert id %d: %v", id, err)
			}
			if ids[0] != id {
				t.Fatalf("mirror insert: got id %d, want %d", ids[0], id)
			}
			if dead != nil && dead.Has(id) {
				if ok, err := mr.Delete(id); err != nil || !ok {
					t.Fatalf("mirror delete %d: ok=%v err=%v", id, ok, err)
				}
			}
		}
		sr.mu.Lock()
		fds := sr.head.FDs.All()
		prefs := append([][2]TupleID(nil), sr.prefs...)
		sr.mu.Unlock()
		for _, f := range fds {
			if err := mr.AddFD(f.String()); err != nil {
				t.Fatal(err)
			}
		}
		// mustLive=false: src.prefs may retain pairs whose tuples have
		// since died (pruning is lazy); such pairs cannot affect any
		// result, so the mirror skips them.
		if _, err := mr.preferPairs(prefs, false); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// assertSameResults compares two DBs across every repair family:
// instance state bit for bit, conflict counts, repair counts and —
// when small enough to materialize — the full ordered repair lists.
func assertSameResults(t *testing.T, label string, got, want *DB) {
	t.Helper()
	gr := got.Relations()
	wr := want.Relations()
	if len(gr) != len(wr) {
		t.Fatalf("%s: relations %v vs %v", label, gr, wr)
	}
	for _, name := range wr {
		gRel, ok := got.Relation(name)
		if !ok {
			t.Fatalf("%s: relation %q missing", label, name)
		}
		wRel, _ := want.Relation(name)
		gi, wi := gRel.Instance(), wRel.Instance()
		if gi.NumIDs() != wi.NumIDs() || gi.Len() != wi.Len() {
			t.Fatalf("%s/%s: %d IDs %d live vs %d IDs %d live",
				label, name, gi.NumIDs(), gi.Len(), wi.NumIDs(), wi.Len())
		}
		for id := 0; id < wi.NumIDs(); id++ {
			if gi.Live(id) != wi.Live(id) {
				t.Fatalf("%s/%s: liveness of id %d differs", label, name, id)
			}
			if g, w := gi.Tuple(id).String(), wi.Tuple(id).String(); g != w {
				t.Fatalf("%s/%s: tuple %d = %s, want %s", label, name, id, g, w)
			}
		}
		if g, w := gRel.FDs(), wRel.FDs(); g != w {
			t.Fatalf("%s/%s: FDs %q vs %q", label, name, g, w)
		}
		gc, err := gRel.Conflicts()
		if err != nil {
			t.Fatalf("%s/%s: conflicts: %v", label, name, err)
		}
		wc, err := wRel.Conflicts()
		if err != nil {
			t.Fatalf("%s/%s: mirror conflicts: %v", label, name, err)
		}
		if gc != wc {
			t.Fatalf("%s/%s: %d conflicts, want %d", label, name, gc, wc)
		}
		for _, f := range allFamilies {
			cg, err := got.CountRepairs(f, name)
			if err != nil {
				t.Fatalf("%s/%s/%v: count: %v", label, name, f, err)
			}
			cw, err := want.CountRepairs(f, name)
			if err != nil {
				t.Fatalf("%s/%s/%v: mirror count: %v", label, name, f, err)
			}
			if cg != cw {
				t.Fatalf("%s/%s/%v: %d repairs, want %d", label, name, f, cg, cw)
			}
			if cw <= 256 {
				rg, err := got.Repairs(f, name)
				if err != nil {
					t.Fatalf("%s/%s/%v: repairs: %v", label, name, f, err)
				}
				rw, err := want.Repairs(f, name)
				if err != nil {
					t.Fatalf("%s/%s/%v: mirror repairs: %v", label, name, f, err)
				}
				for i := range rw {
					if rg[i].String() != rw[i].String() {
						t.Fatalf("%s/%s/%v: repair %d differs:\n%s\nvs\n%s",
							label, name, f, i, rg[i], rw[i])
					}
				}
			}
		}
	}
}

// reopen closes a durable DB and opens the same directory again.
func reopen(t *testing.T, db *DB, dir string, opts ...Option) *DB {
	t.Helper()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	nd, err := Open(dir, opts...)
	if err != nil {
		t.Fatalf("reopen %s: %v", dir, err)
	}
	t.Cleanup(func() { nd.Close() })
	return nd
}

// TestDurableRoundTrip builds a small inconsistent instance with
// preferences, closes cleanly, reopens, and demands the recovered DB
// match an in-memory mirror on every family — and that the write
// version survives restart (the read-your-writes contract).
func TestDurableRoundTrip(t *testing.T) {
	db, r, dir := newDurDB(t)
	a := r.MustInsert(1, 0)
	b := r.MustInsert(1, 1)
	r.MustInsert(2, 0)
	r.MustInsert(2, 1)
	d := r.MustInsert(3, 7)
	if err := r.Prefer(a, b); err != nil {
		t.Fatal(err)
	}
	if ok, err := r.Delete(d); err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	wv := db.WriteVersion()
	if wv == 0 {
		t.Fatal("write version did not advance")
	}
	mirror := mirrorDB(t, db)

	db = reopen(t, db, dir)
	if got := db.WriteVersion(); got != wv {
		t.Fatalf("recovered write version %d, want %d", got, wv)
	}
	if !db.Durable() {
		t.Fatal("reopened DB does not report durable")
	}
	assertSameResults(t, "reopen", db, mirror)

	// Mutations continue from the recovered version.
	r2, _ := db.Relation("R")
	r2.MustInsert(9, 9)
	if got := db.WriteVersion(); got != wv+1 {
		t.Fatalf("post-recovery write version %d, want %d", got, wv+1)
	}
}

// TestDurableCrashImageRecovery recovers from a byte-for-byte copy of
// the WAL directory taken while the DB is still running — the on-disk
// state a SIGKILL would leave — under fsync=always, and checks the
// copy holds everything that was acknowledged.
func TestDurableCrashImageRecovery(t *testing.T) {
	db, r, dir := newDurDB(t, WithSyncPolicy(SyncAlways))
	for i := 0; i < 20; i++ {
		r.MustInsert(int64(i%5), int64(i%3))
	}
	if err := r.Prefer(0, 1); err != nil {
		t.Fatal(err)
	}
	wv := db.WriteVersion()
	mirror := mirrorDB(t, db)

	crashed, err := Open(cloneDir(t, dir), WithSyncPolicy(SyncAlways))
	if err != nil {
		t.Fatalf("recover crash image: %v", err)
	}
	defer crashed.Close()
	if got := crashed.WriteVersion(); got != wv {
		t.Fatalf("crash image write version %d, want %d", got, wv)
	}
	assertSameResults(t, "crash image", crashed, mirror)
}

// TestDurableMatchesInMemoryProperty is the durability analogue of
// TestMutationStreamMatchesFreshRebuild: a random mutation stream is
// applied to a durable DB and an in-memory DB in lockstep, with
// checkpoints forced and the log reopened at random points, and the
// two must agree bit for bit across all five families throughout.
func TestDurableMatchesInMemoryProperty(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dur, rDur, dir := newDurDB(t)
			mem, rMem := newMutDB(t)

			for step := 0; step < 25; step++ {
				inst := rDur.Instance()
				live := inst.AllIDs().Slice()
				var op mutOp
				switch k := rng.Intn(6); {
				case k <= 2 || len(live) < 2:
					op = mutOp{kind: 0, a: int64(rng.Intn(5)), b: int64(rng.Intn(4))}
				case k <= 4:
					g, err := rDur.Graph()
					if err != nil {
						t.Fatal(err)
					}
					es := g.Edges()
					if len(es) == 0 {
						op = mutOp{kind: 0, a: int64(rng.Intn(5)), b: int64(rng.Intn(4))}
					} else {
						e := es[rng.Intn(len(es))]
						op = mutOp{kind: 2, x: e.A, y: e.B}
					}
				default:
					op = mutOp{kind: 1, x: live[rng.Intn(len(live))]}
				}
				applyOp(t, rDur, op)
				applyOp(t, rMem, op)

				// The write-version streams must stay in lockstep: one
				// bump per applied mutation record on both sides.
				if dv, mv := dur.WriteVersion(), mem.WriteVersion(); dv != mv {
					t.Fatalf("seed %d step %d: write version %d (durable) vs %d (memory)",
						seed, step, dv, mv)
				}

				switch rng.Intn(5) {
				case 0: // force a checkpoint mid-stream
					if err := dur.Checkpoint(); err != nil {
						t.Fatalf("seed %d step %d: checkpoint: %v", seed, step, err)
					}
				case 1: // crash-restart from the live directory image
					crashed, err := Open(cloneDir(t, dir))
					if err != nil {
						t.Fatalf("seed %d step %d: crash image: %v", seed, step, err)
					}
					assertSameResults(t, fmt.Sprintf("seed %d step %d crash", seed, step), crashed, mem)
					crashed.Close()
				case 2: // clean close + reopen
					dur = reopen(t, dur, dir)
					rDur, _ = dur.Relation("R")
				}

				if step%5 == 4 {
					assertSameResults(t, fmt.Sprintf("seed %d step %d", seed, step), dur, mem)
				}
			}
			dur = reopen(t, dur, dir)
			assertSameResults(t, fmt.Sprintf("seed %d final", seed), dur, mem)
			if dv, mv := dur.WriteVersion(), mem.WriteVersion(); dv != mv {
				t.Fatalf("seed %d final: write version %d vs %d", seed, dv, mv)
			}
		})
	}
}

// TestPreferPartialApplyRecovery pins the repaired PR 5 wart: a
// preference batch that fails part-way must leave exactly the applied
// prefix — logged, versioned and recoverable — never an unlogged
// half-applied state. The batch here fails on its third pair (a dead
// tuple), after two pairs applied.
func TestPreferPartialApplyRecovery(t *testing.T) {
	db, r, dir := newDurDB(t, WithSyncPolicy(SyncAlways))
	a := r.MustInsert(1, 0)
	b := r.MustInsert(1, 1)
	c := r.MustInsert(2, 0)
	d := r.MustInsert(2, 1)
	e := r.MustInsert(3, 0)
	f := r.MustInsert(3, 1)
	if ok, err := r.Delete(f); err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	before := db.WriteVersion()

	// A caller looping Prefer over a batch: pair 3 references the dead
	// tuple and fails after pairs 1 and 2 applied.
	batch := [][2]TupleID{{a, b}, {c, d}, {e, f}}
	var applied int
	var batchErr error
	for _, p := range batch {
		if batchErr = r.Prefer(p[0], p[1]); batchErr != nil {
			break
		}
		applied++
	}
	if batchErr == nil || applied != 2 {
		t.Fatalf("batch applied %d pairs, err %v; want 2 with error", applied, batchErr)
	}
	// Each applied pair was logged and versioned individually.
	if got := db.WriteVersion(); got != before+2 {
		t.Fatalf("write version %d, want %d (+1 per applied pair)", got, before+2)
	}

	// Crash now: recovery must reproduce exactly the applied prefix.
	crashed, err := Open(cloneDir(t, dir))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer crashed.Close()
	if got := crashed.WriteVersion(); got != before+2 {
		t.Fatalf("recovered write version %d, want %d", got, before+2)
	}
	cr, _ := crashed.Relation("R")
	cr.mu.Lock()
	prefs := append([][2]TupleID(nil), cr.prefs...)
	cr.mu.Unlock()
	want := [][2]TupleID{{a, b}, {c, d}}
	if len(prefs) != len(want) {
		t.Fatalf("recovered prefs %v, want %v", prefs, want)
	}
	for i := range want {
		if prefs[i] != want[i] {
			t.Fatalf("recovered prefs %v, want %v", prefs, want)
		}
	}
	assertSameResults(t, "partial batch", crashed, mirrorDB(t, db))
}

// preferBatchFixture fills R on db and on an in-memory reference with
// six two-tuple clusters and orients the first five: on db with one
// PreferPairs batch, on the reference pair by pair. It returns the
// reference and the batch.
func preferBatchFixture(t *testing.T, r *Relation) (*DB, [][2]TupleID) {
	t.Helper()
	ref := New()
	rr, err := ref.CreateRelation("R", IntAttr("K"), IntAttr("V"))
	if err != nil {
		t.Fatal(err)
	}
	if err := rr.AddFD("K -> V"); err != nil {
		t.Fatal(err)
	}
	var batch [][2]TupleID
	for k := 0; k < 6; k++ {
		a, b := r.MustInsert(k, 0), r.MustInsert(k, 1)
		if ra, rb := rr.MustInsert(k, 0), rr.MustInsert(k, 1); ra != a || rb != b {
			t.Fatalf("reference IDs (%d, %d), want (%d, %d)", ra, rb, a, b)
		}
		if k < 5 {
			batch = append(batch, [2]TupleID{a, b})
		}
	}
	if err := r.PreferPairs(batch); err != nil {
		t.Fatal(err)
	}
	for _, p := range batch {
		if err := rr.Prefer(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	return ref, batch
}

// TestPreferPairsOneRecord: a preference batch is one log record and
// one write-version step, a batch naming a dead tuple changes nothing,
// and recovery replays the multi-pair record to the state pair-by-pair
// Prefer calls build.
func TestPreferPairsOneRecord(t *testing.T) {
	db, r, dir := newDurDB(t, WithSyncPolicy(SyncAlways))
	position := func() (uint64, uint64) {
		st, _ := db.WALStats()
		return st.Seq, db.WriteVersion()
	}
	seq0, _ := position()
	ref, batch := preferBatchFixture(t, r)
	// Twelve inserts, then the batch.
	if seq, wv := position(); seq != seq0+13 || wv != seq0+13 {
		t.Fatalf("log seq %d, write-version %d after 12 inserts and one %d-pair batch; want %d", seq, wv, len(batch), seq0+13)
	}

	dead := batch[0][1]
	for _, d := range []*DB{db, ref} {
		rel, _ := d.Relation("R")
		if ok, err := rel.Delete(dead); err != nil || !ok {
			t.Fatalf("Delete = %v, %v", ok, err)
		}
	}
	seq1, wv1 := position()
	open := [2]TupleID{10, 11} // cluster 5, valid and fresh
	if err := r.PreferPairs([][2]TupleID{open, batch[0]}); err == nil {
		t.Fatal("a batch naming a dead tuple was accepted")
	}
	if seq, wv := position(); seq != seq1 || wv != wv1 {
		t.Fatalf("rejected batch moved the log %d -> %d, write-version %d -> %d", seq1, seq, wv1, wv)
	}
	r.mu.Lock()
	nprefs := len(r.prefs)
	r.mu.Unlock()
	if nprefs != len(batch) {
		t.Fatalf("%d preferences recorded after the rejected batch, want %d", nprefs, len(batch))
	}

	crashed, err := Open(cloneDir(t, dir))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer crashed.Close()
	assertSameResults(t, "batched prefer, recovered", crashed, ref)
}

// TestRecoveryScale100k replays a 100k-tuple log (checkpointing
// disabled, so recovery walks every record) and requires it to finish
// in seconds, not minutes.
func TestRecoveryScale100k(t *testing.T) {
	const n = 100_000
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Open(dir, WithSyncPolicy(SyncNever), WithCheckpointBytes(-1))
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
	const batch = 1000
	rows := make([]Tuple, batch)
	for lo := 0; lo < n; lo += batch {
		for i := range rows {
			tup, err := MakeTuple(int64(lo+i), int64((lo+i)%97))
			if err != nil {
				t.Fatal(err)
			}
			rows[i] = tup
		}
		if _, err := r.InsertRows(rows); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	db2, err := Open(dir, WithCheckpointBytes(-1))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer db2.Close()
	elapsed := time.Since(start)
	r2, _ := db2.Relation("R")
	if got := r2.Instance().Len(); got != n {
		t.Fatalf("recovered %d tuples, want %d", got, n)
	}
	t.Logf("recovered %d tuples in %v", n, elapsed)
	if elapsed > 30*time.Second {
		t.Fatalf("recovery took %v, want seconds", elapsed)
	}
}
