package prefcqa

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// mutOp is one recorded mutation, replayable onto a fresh DB.
type mutOp struct {
	kind int // 0 insert, 1 delete, 2 prefer
	a, b int64
	x, y TupleID
}

// applyOp applies the op to a relation; ids are deterministic, so a
// replay reproduces the exact TupleID assignment.
func applyOp(t *testing.T, r *Relation, op mutOp) {
	t.Helper()
	switch op.kind {
	case 0:
		if _, err := r.Insert(op.a, op.b); err != nil {
			t.Fatalf("insert(%d,%d): %v", op.a, op.b, err)
		}
	case 1:
		r.Delete(op.x)
	case 2:
		if err := r.Prefer(op.x, op.y); err != nil {
			t.Fatalf("prefer(%d,%d): %v", op.x, op.y, err)
		}
	}
}

func newMutDB(t *testing.T, opts ...Option) (*DB, *Relation) {
	t.Helper()
	db := New(opts...)
	r, err := db.CreateRelation("R", IntAttr("K"), IntAttr("V"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddFD("K -> V"); err != nil {
		t.Fatal(err)
	}
	return db, r
}

// repairFingerprint renders the full ordered repair list of a family.
func repairFingerprint(t *testing.T, db *DB, f Family) string {
	t.Helper()
	reps, err := db.Repairs(f, "R")
	if err != nil {
		t.Fatalf("Repairs(%v): %v", f, err)
	}
	s := ""
	for _, rp := range reps {
		s += rp.String() + "\n"
	}
	return s
}

// TestMutationStreamMatchesFreshRebuild is the end-to-end delta-
// maintenance property: random interleavings of Insert, Delete and
// Prefer, each followed by Count and full enumeration across all five
// families, must match (a) a DB replayed from scratch — whose built
// state is a fresh Build — and (b) a DB running with incremental
// maintenance disabled, bit for bit, including enumeration order.
func TestMutationStreamMatchesFreshRebuild(t *testing.T) {
	families := []Family{Rep, Local, SemiGlobal, Global, Common}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inc, rInc := newMutDB(t)
		noInc, rNo := newMutDB(t, withIncremental(false))
		var log []mutOp

		for step := 0; step < 30; step++ {
			// Pick a mutation valid for the current state.
			var op mutOp
			inst := rInc.Instance()
			live := inst.AllIDs().Slice()
			switch k := rng.Intn(6); {
			case k <= 2 || len(live) < 2: // insert (biased: keep it growing)
				op = mutOp{kind: 0, a: int64(rng.Intn(5)), b: int64(rng.Intn(4))}
			case k <= 4: // prefer an adjacent pair if one exists, low ≻ high stays acyclic
				g, err := rInc.Graph()
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
			default: // delete
				op = mutOp{kind: 1, x: live[rng.Intn(len(live))]}
			}
			log = append(log, op)
			applyOp(t, rInc, op)
			applyOp(t, rNo, op)

			// Fresh replay: the reference build of the mutated state.
			fresh, rFresh := newMutDB(t)
			for _, o := range log {
				applyOp(t, rFresh, o)
			}

			for _, f := range families {
				ci, err := inc.CountRepairs(f, "R")
				if err != nil {
					t.Fatalf("seed %d step %d: inc count: %v", seed, step, err)
				}
				cf, err := fresh.CountRepairs(f, "R")
				if err != nil {
					t.Fatalf("seed %d step %d: fresh count: %v", seed, step, err)
				}
				cn, err := noInc.CountRepairs(f, "R")
				if err != nil {
					t.Fatalf("seed %d step %d: no-inc count: %v", seed, step, err)
				}
				if ci != cf || ci != cn {
					t.Fatalf("seed %d step %d %v: counts inc=%d fresh=%d rebuild=%d", seed, step, f, ci, cf, cn)
				}
				fi := repairFingerprint(t, inc, f)
				ff := repairFingerprint(t, fresh, f)
				fn := repairFingerprint(t, noInc, f)
				if fi != ff {
					t.Fatalf("seed %d step %d %v: incremental enumeration differs from fresh rebuild:\n%s\nvs\n%s", seed, step, f, fi, ff)
				}
				if fi != fn {
					t.Fatalf("seed %d step %d %v: incremental enumeration differs from withIncremental(false)", seed, step, f)
				}
			}
			// Spot-check query answers on a live tuple.
			if len(live) > 0 {
				tup := rInc.Instance().Tuple(live[rng.Intn(len(live))])
				q := fmt.Sprintf("R(%s, %s)", tup[0], tup[1])
				f := families[rng.Intn(len(families))]
				ai, err := inc.Query(f, q)
				if err != nil {
					t.Fatalf("seed %d step %d: query: %v", seed, step, err)
				}
				af, err := fresh.Query(f, q)
				if err != nil {
					t.Fatalf("seed %d step %d: fresh query: %v", seed, step, err)
				}
				if ai != af {
					t.Fatalf("seed %d step %d %v %s: answer %v != fresh %v", seed, step, f, q, ai, af)
				}
			}
			// And the deterministic cleaning output.
			cli, err := inc.Clean("R")
			if err != nil {
				t.Fatal(err)
			}
			clf, err := fresh.Clean("R")
			if err != nil {
				t.Fatal(err)
			}
			if cli.String() != clf.String() {
				t.Fatalf("seed %d step %d: clean %s != fresh %s", seed, step, cli, clf)
			}
		}
	}
}

// TestDeleteBasics covers the facade Delete contract: liveness, ID
// stability, set-semantics interplay, and priority cleanup.
func TestDeleteBasics(t *testing.T) {
	_, r := newMutDB(t)
	a := r.MustInsert(1, 0)
	b := r.MustInsert(1, 1)
	c := r.MustInsert(2, 0)
	if err := r.Prefer(a, b); err != nil {
		t.Fatal(err)
	}
	if n, _ := r.Conflicts(); n != 1 {
		t.Fatalf("conflicts = %d, want 1", n)
	}
	if ok, err := r.Delete(a); err != nil || !ok {
		t.Fatalf("Delete(a) = %v, %v", ok, err)
	}
	if ok, err := r.Delete(a); err != nil || ok {
		t.Fatalf("double Delete(a) = %v, %v", ok, err)
	}
	if n, _ := r.Conflicts(); n != 0 {
		t.Fatalf("conflicts after delete = %d, want 0", n)
	}
	inst := r.Instance()
	if inst.Live(a) || !inst.Live(b) || !inst.Live(c) {
		t.Fatal("liveness after delete wrong")
	}
	if inst.Tuple(b)[1].String() != "1" {
		t.Fatal("IDs shifted after delete")
	}
	// Re-inserting the deleted tuple assigns a fresh ID and restores
	// the conflict.
	a2 := r.MustInsert(1, 0)
	if a2 == a {
		t.Fatalf("re-insert reused ID %d", a)
	}
	if n, _ := r.Conflicts(); n != 1 {
		t.Fatalf("conflicts after re-insert = %d, want 1", n)
	}
}

// TestPreferByRankIdempotent is the regression test for PreferByRank
// appending duplicate preference pairs on repeated calls.
func TestPreferByRankIdempotent(t *testing.T) {
	_, r := newMutDB(t)
	r.MustInsert(1, 0)
	r.MustInsert(1, 1)
	rank := func(id TupleID) int { return int(id) }
	if err := r.PreferByRank(rank); err != nil {
		t.Fatal(err)
	}
	first := len(r.prefs)
	if first != 1 {
		t.Fatalf("prefs after first PreferByRank = %d, want 1", first)
	}
	if err := r.PreferByRank(rank); err != nil {
		t.Fatal(err)
	}
	if len(r.prefs) != first {
		t.Fatalf("PreferByRank duplicated pairs: %d != %d", len(r.prefs), first)
	}
	// Explicit duplicate Prefer is also recorded once.
	if err := r.Prefer(0, 1); err != nil {
		t.Fatal(err)
	}
	if len(r.prefs) != first {
		t.Fatalf("duplicate Prefer recorded: %d pairs", len(r.prefs))
	}
	if c, err := r.db.CountRepairs(Global, "R"); err != nil || c != 1 {
		t.Fatalf("G-Rep count = %d, %v; want 1", c, err)
	}
}

// TestMutationAfterAddFDRebuilds checks the rebuild escape hatch:
// dependencies added after queries force a full rebuild that folds in
// every recorded preference.
func TestMutationAfterAddFDRebuilds(t *testing.T) {
	db := New()
	r, err := db.CreateRelation("R", IntAttr("A"), IntAttr("B"), IntAttr("C"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddFD("A -> B"); err != nil {
		t.Fatal(err)
	}
	a := r.MustInsert(1, 0, 0)
	b := r.MustInsert(1, 1, 0)
	if n, _ := r.Conflicts(); n != 1 {
		t.Fatalf("conflicts = %d", n)
	}
	c := r.MustInsert(2, 0, 0)
	d := r.MustInsert(2, 0, 1)
	if n, _ := r.Conflicts(); n != 1 {
		t.Fatalf("conflicts before AddFD = %d", n)
	}
	if err := r.AddFD("A -> C"); err != nil {
		t.Fatal(err)
	}
	if n, _ := r.Conflicts(); n != 2 {
		t.Fatalf("conflicts after AddFD = %d, want 2", n)
	}
	_ = a
	_ = b
	if err := r.Prefer(c, d); err != nil {
		t.Fatal(err)
	}
	cnt, err := db.CountRepairs(Common, "R")
	if err != nil {
		t.Fatal(err)
	}
	if cnt != 2 { // {a,b} unresolved ×2, {c,d} resolved ×1
		t.Fatalf("C-Rep count = %d, want 2", cnt)
	}
}

// TestPreferByRankCallbackMayReadRelation pins that the rank callback
// runs without the relation lock: deriving rank from tuple contents
// (the natural usage) must not deadlock.
func TestPreferByRankCallbackMayReadRelation(t *testing.T) {
	db, r := newMutDB(t)
	r.MustInsert(1, 0)
	r.MustInsert(1, 1)
	done := make(chan error, 1)
	go func() {
		done <- r.PreferByRank(func(id TupleID) int {
			// Reads back through the public API, which takes r.mu.
			return int(r.Instance().Tuple(id)[1].String()[0])
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("PreferByRank deadlocked on an instance-reading rank callback")
	}
	if c, err := db.CountRepairs(Global, "R"); err != nil || c != 1 {
		t.Fatalf("count = %d, %v; want 1", c, err)
	}
}

// TestIsPreferredRepairRejectsDeletedTuples pins that sets containing
// tombstoned tuples are never certified as repairs.
func TestIsPreferredRepairRejectsDeletedTuples(t *testing.T) {
	db, r := newMutDB(t)
	a := r.MustInsert(1, 10)
	b := r.MustInsert(1, 20)
	if ok, err := db.IsPreferredRepair(Rep, "R", []TupleID{a}); err != nil || !ok {
		t.Fatalf("pre-delete {a}: %v, %v", ok, err)
	}
	r.Delete(a)
	if ok, err := db.IsPreferredRepair(Rep, "R", []TupleID{a, b}); err != nil || ok {
		t.Fatalf("{deleted, live} accepted as repair: %v, %v", ok, err)
	}
	if ok, err := db.IsPreferredRepair(Rep, "R", []TupleID{a}); err != nil || ok {
		t.Fatalf("{deleted} accepted as repair: %v, %v", ok, err)
	}
	if ok, err := db.IsPreferredRepair(Rep, "R", []TupleID{b}); err != nil || !ok {
		t.Fatalf("{live survivor} rejected: %v, %v", ok, err)
	}
}

// TestPreferBatchReportsFirstFailure writes a preference batch after
// the first read whose first failing pair sits in its middle, a later
// pair failing too, once small enough to be folded in pair by pair and
// once large enough to take the rebuild. Both report the first failing
// pair, with the text Priority.Add gives it, on every read after.
func TestPreferBatchReportsFirstFailure(t *testing.T) {
	const clusters = 1000
	for _, size := range []int{20, clusters} {
		db := New()
		loadClusters(t, db, clusters, 0)
		r := db.rels["R"]
		// Orient clusters 3 and 5 first; the batch reverses both.
		if err := r.PreferPairs([][2]TupleID{{6, 7}, {10, 11}}); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Snapshot(); err != nil {
			t.Fatal(err)
		}
		var batch [][2]TupleID
		for k := 10; len(batch) < size; k++ {
			batch = append(batch, [2]TupleID{2 * (k % clusters), 2*(k%clusters) + 1})
			switch len(batch) {
			case size / 2:
				batch = append(batch, [2]TupleID{7, 6})
			case size/2 + 3:
				batch = append(batch, [2]TupleID{11, 10})
			}
		}
		if err := r.PreferPairs(batch); err != nil {
			t.Fatal(err)
		}
		const want = "prefcqa: relation R: priority: conflict {7,6} already oriented 6 ≻ 7"
		for read := 0; read < 2; read++ {
			if _, err := db.Snapshot(); err == nil || err.Error() != want {
				t.Fatalf("batch of %d pairs, read %d: %v, want %q", len(batch), read, err, want)
			}
		}
	}
}
